// `proxima diff <baseline.json> <candidate.json>`: the golden-number
// workflow as a CLI habit.
//
// Compares two saved `proxima run`/`proxima report`/`proxima sweep` JSON
// documents and flags every metric whose relative shift exceeds the
// tolerance: per-scenario times (n/min/mean/MOET/stddev), the times
// digest, the guest-instruction counter, per-partition rows (activations,
// cycles statistics, overruns, pWCET), and — for report/sweep documents —
// the Gumbel fit and the pWCET curve point by point.  Wall-clock fields
// (wall_seconds, minstr_per_second) are deliberately NOT compared: they
// are the only nondeterministic numbers in a report.
//
// Zero and absence are strict: a value moving onto/off zero only passes
// bit-equal (any relative tolerance would wave it through), and a metric
// present on one side only is a drift — with one documented exception,
// a BASELINE without a metrics digest (golden files that predate the
// observability registry stay clean against fresh candidates).
//
// `--format json` renders the same comparison as a machine-readable drift
// report (per-drift records plus the summary); exit codes are identical.
//
// `--against SCENARIO` replaces the baseline file with a fresh execution
// of the named registry scenario, mirroring the campaign knobs the
// candidate document records (runs, seed, frames, vm-core) and rendered
// through the same JSON sections `proxima run`/`report`/`sweep` emit — so
// the comparison below sees two documents of identical shape and the
// golden-number workflow needs no baseline file at all.
//
// Exit codes: 0 no drift, 1 drift, 2 usage (unreadable path, malformed or
// non-report JSON) via UsageError.
#include "cli.hpp"

#include "cli/exec_common.hpp"
#include "cli/json_reader.hpp"
#include "cli/json_writer.hpp"
#include "exec/seed.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace proxima::cli {

namespace {

} // namespace

JsonValue load_report_document(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw UsageError("diff: cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  JsonValue document;
  try {
    document = JsonValue::parse(text.str());
  } catch (const JsonParseError& error) {
    throw UsageError("diff: '" + path + "': " + error.what());
  }
  const JsonValue* command = document.get("command");
  const JsonValue* scenarios = document.get("scenarios");
  // `proxima list` also emits command + scenarios; comparing a catalogue
  // dump would "pass" on 100% null-vs-null metrics, so only the document
  // kinds that carry measurements are accepted.
  if (!command || !command->is_string() ||
      (command->string != "run" && command->string != "report" &&
       command->string != "sweep") ||
      !scenarios || !scenarios->is_array()) {
    throw UsageError("diff: '" + path +
                     "' is not a proxima run/report/sweep JSON document");
  }
  return document;
}

namespace {

/// Scenario identity inside a document: name + measured target (two
/// entries may share a name only across measured targets, but be strict).
std::string scenario_key(const JsonValue& scenario) {
  const JsonValue* name = scenario.get("name");
  const JsonValue* measured = scenario.get("measured");
  return (name && name->is_string() ? name->string : "?") + '|' +
         (measured && measured->is_string() ? measured->string : "");
}

std::string scenario_label(const JsonValue& scenario) {
  const JsonValue* name = scenario.get("name");
  return name && name->is_string() ? name->string : "<unnamed>";
}

/// One metric shift beyond the tolerance, kept structured so the renderer
/// (text line or JSON record) is chosen once at the end.
struct Drift {
  std::string context;   // "scenario" or "scenario partition NAME"
  std::string metric;    // empty for structural drifts (missing rows)
  std::string baseline;  // rendered values ("<absent>" when missing)
  std::string candidate;
  /// (candidate - baseline) / baseline; NaN for non-numeric/structural
  /// drifts (renders as null in JSON).
  double relative_shift = std::numeric_limits<double>::quiet_NaN();
  std::string detail; // the human-readable text-mode line body
};

class Differ {
public:
  explicit Differ(double tolerance) : tolerance_(tolerance) {}

  int drifts() const noexcept { return static_cast<int>(drifts_.size()); }
  int compared() const noexcept { return compared_; }
  const std::vector<Drift>& records() const noexcept { return drifts_; }

  void flag(const std::string& context, const std::string& detail) {
    drifts_.push_back(Drift{context, {}, {}, {},
                            std::numeric_limits<double>::quiet_NaN(),
                            detail});
  }

  /// Numeric metric (accepts null==null as equal — e.g. a partition pWCET
  /// absent on both sides).
  void number(const std::string& context, const char* metric,
              const JsonValue* a, const JsonValue* b) {
    ++compared_;
    const bool a_null = !a || a->is_null();
    const bool b_null = !b || b->is_null();
    if (a_null && b_null) {
      return;
    }
    if (a_null != b_null || !a->is_number() || !b->is_number()) {
      drifts_.push_back(Drift{context, metric, render(a), render(b),
                              std::numeric_limits<double>::quiet_NaN(),
                              std::string(metric) + ": " + render(a) +
                                  " -> " + render(b)});
      return;
    }
    const double lo = a->number;
    const double hi = b->number;
    if (lo == hi) {
      return; // bit-equal, including 0 == 0
    }
    // Zero is special-cased BEFORE the relative band: with
    // scale = max(|lo|,|hi|), a zero baseline against any candidate shrinks
    // to |hi| <= tolerance * |hi|, which passes at --tolerance >= 1.  A
    // count or estimate moving onto/off zero is a structural change
    // (something stopped happening, or started), so it only ever passes
    // bit-equal — handled above.
    const bool zero_crossing = (lo == 0.0) != (hi == 0.0);
    const double scale = std::max(std::abs(lo), std::abs(hi));
    if (!zero_crossing && std::abs(lo - hi) <= tolerance_ * scale) {
      return;
    }
    std::ostringstream detail;
    detail << metric << ": baseline " << render(a) << " candidate "
           << render(b);
    if (zero_crossing) {
      detail << " (zero baseline/candidate: only bit-equality passes)";
    }
    double shift = std::numeric_limits<double>::quiet_NaN();
    if (lo != 0.0) {
      shift = (hi - lo) / lo;
      detail << " (" << std::showpos << std::setprecision(3) << 100.0 * shift
             << "%)";
    }
    drifts_.push_back(
        Drift{context, metric, render(a), render(b), shift, detail.str()});
  }

  /// Exact-match metric (strings, bools): a tolerance never relaxes it,
  /// except the digests, which the caller skips at tolerance > 0.
  void exact(const std::string& context, const char* metric,
             const JsonValue* a, const JsonValue* b) {
    ++compared_;
    if (render(a) != render(b)) {
      drifts_.push_back(Drift{context, metric, render(a), render(b),
                              std::numeric_limits<double>::quiet_NaN(),
                              std::string(metric) + ": " + render(a) +
                                  " -> " + render(b)});
    }
  }

private:
  static std::string render(const JsonValue* value) {
    if (!value) {
      return "<absent>";
    }
    switch (value->kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return value->boolean ? "true" : "false";
    case JsonValue::Kind::kString:
      return value->string;
    case JsonValue::Kind::kNumber: {
      std::ostringstream text;
      text << std::setprecision(12) << value->number;
      return text.str();
    }
    default:
      return "<composite>";
    }
  }

  double tolerance_;
  std::vector<Drift> drifts_;
  int compared_ = 0;
};

void diff_partitions(Differ& differ, const std::string& context,
                     const JsonValue* a, const JsonValue* b) {
  const bool a_rows = a && a->is_array();
  const bool b_rows = b && b->is_array();
  if (!a_rows && !b_rows) {
    return; // bare-platform scenario on both sides
  }
  if (a_rows != b_rows) {
    differ.flag(context, std::string("partitions: ") +
                             (a_rows ? "baseline" : "candidate") +
                             " has per-partition rows, the other does not");
    return;
  }
  std::map<std::string, const JsonValue*> baseline;
  for (const JsonValue& row : a->array) {
    baseline[scenario_label(row)] = &row;
  }
  for (const JsonValue& row : b->array) {
    const std::string name = scenario_label(row);
    const auto it = baseline.find(name);
    if (it == baseline.end()) {
      differ.flag(context, "partition '" + name + "' only in candidate");
      continue;
    }
    const std::string partition_context = context + " partition " + name;
    const JsonValue* base = it->second;
    differ.number(partition_context, "activations", base->get("activations"),
                  row.get("activations"));
    differ.number(partition_context, "min", base->get("min"),
                  row.get("min"));
    differ.number(partition_context, "mean", base->get("mean"),
                  row.get("mean"));
    differ.number(partition_context, "MOET", base->get("moet"),
                  row.get("moet"));
    differ.number(partition_context, "stddev", base->get("stddev"),
                  row.get("stddev"));
    differ.number(partition_context, "overruns", base->get("overruns"),
                  row.get("overruns"));
    differ.number(partition_context, "pWCET", base->get("pwcet"),
                  row.get("pwcet"));
    baseline.erase(it);
  }
  for (const auto& [name, row] : baseline) {
    (void)row;
    differ.flag(context, "partition '" + name + "' only in baseline");
  }
}

void diff_analysis(Differ& differ, const std::string& context,
                   const JsonValue* a, const JsonValue* b) {
  const bool a_fit = a && a->is_object();
  const bool b_fit = b && b->is_object();
  if (!a_fit && !b_fit) {
    return; // run documents, or both analyses failed
  }
  if (a_fit != b_fit) {
    differ.flag(context, std::string("analysis: ") +
                             (a_fit ? "candidate" : "baseline") +
                             " has no MBPTA fit");
    return;
  }
  differ.exact(context, "iid passes", a->get("iid", "passes"),
               b->get("iid", "passes"));
  differ.number(context, "gumbel location", a->get("gumbel", "location"),
                b->get("gumbel", "location"));
  differ.number(context, "gumbel scale", a->get("gumbel", "scale"),
                b->get("gumbel", "scale"));

  // pWCET curve, point by point at matching exceedance probabilities.
  // One-sided points (a baseline exceedance the candidate does not carry,
  // or vice versa — e.g. documents rendered at different --decades depths)
  // used to be skipped silently; a curve point is a metric, and a missing
  // metric is a drift, so the mismatch is flagged once, structurally.
  const JsonValue* a_curve = a->get("curve");
  const JsonValue* b_curve = b->get("curve");
  if (!a_curve || !b_curve || !a_curve->is_array() || !b_curve->is_array()) {
    return;
  }
  std::map<double, const JsonValue*> points;
  for (const JsonValue& point : a_curve->array) {
    if (const JsonValue* p = point.get("exceedance"); p && p->is_number()) {
      points[p->number] = point.get("pwcet_cycles");
    }
  }
  std::size_t candidate_only = 0;
  for (const JsonValue& point : b_curve->array) {
    const JsonValue* p = point.get("exceedance");
    if (!p || !p->is_number()) {
      continue;
    }
    const auto it = points.find(p->number);
    if (it == points.end()) {
      ++candidate_only;
      continue;
    }
    std::ostringstream metric;
    metric << "pWCET @ " << std::setprecision(3) << p->number;
    differ.number(context, metric.str().c_str(), it->second,
                  point.get("pwcet_cycles"));
    points.erase(it);
  }
  if (!points.empty() || candidate_only != 0) {
    std::ostringstream detail;
    detail << "pWCET curve: " << points.size()
           << " exceedance point(s) only in baseline, " << candidate_only
           << " only in candidate (different --decades?)";
    differ.flag(context, detail.str());
  }
}

void diff_scenario(Differ& differ, double tolerance, const JsonValue& a,
                   const JsonValue& b) {
  const std::string context = scenario_label(a);
  differ.number(context, "runs", a.get("runs"), b.get("runs"));
  differ.exact(context, "measured", a.get("measured"), b.get("measured"));
  differ.number(context, "n", a.get("times", "n"), b.get("times", "n"));
  differ.number(context, "min", a.get("times", "min"),
                b.get("times", "min"));
  differ.number(context, "mean", a.get("times", "mean"),
                b.get("times", "mean"));
  differ.number(context, "MOET", a.get("times", "max"),
                b.get("times", "max"));
  differ.number(context, "stddev", a.get("times", "stddev"),
                b.get("times", "stddev"));
  if (tolerance == 0.0) {
    // Bit-exact mode: the digest is the strongest check there is.  With a
    // tolerance the times may legitimately differ within the band, so a
    // digest mismatch alone is not a drift.
    differ.exact(context, "times digest", a.get("times", "digest"),
                 b.get("times", "digest"));
    // Metrics digest: a baseline without one is the single tolerated
    // absence — older golden reports predate the observability registry
    // and must keep diffing clean against fresh candidates.  A CANDIDATE
    // that lost the digest its baseline has is a drift (metrics stopped
    // being collected — silently skipping it would wave through exactly
    // the regression the digest exists to catch).
    const JsonValue* a_metrics = a.get("metrics", "digest");
    const JsonValue* b_metrics = b.get("metrics", "digest");
    if (a_metrics && b_metrics) {
      differ.exact(context, "metrics digest", a_metrics, b_metrics);
    } else if (a_metrics && !b_metrics) {
      differ.flag(context,
                  "metrics digest: present in baseline, absent in candidate");
    }
  }
  differ.number(context, "verified_runs", a.get("verified_runs"),
                b.get("verified_runs"));
  differ.number(context, "guest_instructions",
                a.get("throughput", "guest_instructions"),
                b.get("throughput", "guest_instructions"));
  const JsonValue* a_adaptive = a.get("adaptive");
  const JsonValue* b_adaptive = b.get("adaptive");
  const bool a_has_adaptive = a_adaptive && a_adaptive->is_object();
  const bool b_has_adaptive = b_adaptive && b_adaptive->is_object();
  if (a_has_adaptive != b_has_adaptive) {
    differ.flag(context, std::string("adaptive: only ") +
                             (a_has_adaptive ? "baseline" : "candidate") +
                             " ran a convergence-driven campaign");
  } else if (a_has_adaptive) {
    differ.exact(context, "adaptive converged",
                 a_adaptive->get("converged"), b_adaptive->get("converged"));
    differ.number(context, "adaptive batches", a_adaptive->get("batches"),
                  b_adaptive->get("batches"));
  }
  diff_partitions(differ, context, a.get("partitions"), b.get("partitions"));
  diff_analysis(differ, context, a.get("analysis"), b.get("analysis"));
}

/// Scenario-matched comparison of two loaded documents — the shared core
/// of `cmd_diff` and the `proxima sweep --baseline` gate.
struct ComparisonResult {
  Differ differ;
  int scenarios = 0; // matched on both sides
};

ComparisonResult compare_documents(const JsonValue& baseline,
                                   const JsonValue& candidate,
                                   double tolerance) {
  ComparisonResult result{Differ(tolerance), 0};
  Differ& differ = result.differ;
  std::map<std::string, const JsonValue*> remaining;
  for (const JsonValue& scenario : candidate.get("scenarios")->array) {
    remaining[scenario_key(scenario)] = &scenario;
  }
  for (const JsonValue& scenario : baseline.get("scenarios")->array) {
    const auto it = remaining.find(scenario_key(scenario));
    if (it == remaining.end()) {
      differ.flag(scenario_label(scenario), "only in baseline");
      continue;
    }
    ++result.scenarios;
    diff_scenario(differ, tolerance, scenario, *it->second);
    remaining.erase(it);
  }
  for (const auto& [key, scenario] : remaining) {
    (void)key;
    differ.flag(scenario_label(*scenario), "only in candidate");
  }
  return result;
}

// --- `--against SCENARIO`: the on-the-fly baseline ------------------------

/// Mirror the campaign knobs the candidate's (first) scenario records into
/// the options the baseline execution runs under.  The knobs live in the
/// header every document kind emits: runs, seed{input,layout}, frames,
/// vm_core.
CampaignOptions mirror_candidate_options(const std::string& against,
                                         const JsonValue& scenario) {
  CampaignOptions options;
  options.scenarios = {against};
  if (const JsonValue* runs = scenario.get("runs");
      runs && runs->is_number()) {
    options.runs = static_cast<std::uint32_t>(runs->number);
  }
  if (const JsonValue* core = scenario.get("vm_core");
      core && core->is_string()) {
    options.vm_core =
        parse_vm_core("diff --against: candidate vm_core", core->string);
  }
  if (const JsonValue* frames = scenario.get("frames");
      frames && frames->is_number()) {
    options.frames = static_cast<std::uint32_t>(frames->number);
  }
  // The seed pair is reproducible through the single `--seed` knob only
  // when it IS a `--seed` derivation (layout = splitmix64_mix(input)) or
  // the scenario's own defaults.  Anything else cannot be mirrored — fail
  // loudly instead of diffing against the wrong campaign.  (The layout
  // seed is compared in double space: JSON numbers round-trip through
  // double, so an exact uint64 comparison would spuriously fail for mixed
  // seeds above 2^53.)
  const JsonValue* input = scenario.get("seed", "input");
  const JsonValue* layout = scenario.get("seed", "layout");
  if (input && input->is_number() && layout && layout->is_number()) {
    const auto in = static_cast<std::uint64_t>(input->number);
    const casestudy::CampaignConfig defaults =
        detail::scenario_config(against, options); // options.seed unset
    if (static_cast<double>(defaults.input_seed) != input->number ||
        static_cast<double>(defaults.layout_seed) != layout->number) {
      if (static_cast<double>(exec::splitmix64_mix(in)) == layout->number) {
        options.seed = in;
      } else {
        throw UsageError(
            "diff --against: the candidate's seed pair is neither scenario '" +
            against + "' defaults nor a --seed derivation; rerun the "
            "baseline scenario manually and diff the two files");
      }
    }
  }
  return options;
}

/// The `--decades` depth the candidate's pWCET curve was rendered at: the
/// deepest exceedance is always 10^-decades (only SHALLOW points are
/// dropped as body probabilities).
int infer_decades(const JsonValue& scenario, int fallback) {
  const JsonValue* curve = scenario.get("analysis", "curve");
  if (!curve || !curve->is_array()) {
    return fallback;
  }
  double min_p = 1.0;
  for (const JsonValue& point : curve->array) {
    if (const JsonValue* p = point.get("exceedance");
        p && p->is_number() && p->number > 0.0 && p->number < min_p) {
      min_p = p->number;
    }
  }
  return min_p < 1.0 ? static_cast<int>(std::lround(-std::log10(min_p)))
                     : fallback;
}

/// Run `against` with the candidate's campaign knobs and render the result
/// as a document of the SAME kind as the candidate (run / report / sweep),
/// using the same write_* sections those commands use — `diff_analysis`
/// treats a one-sided MBPTA fit as a structural drift, so the shapes must
/// match before the comparison starts.
JsonValue synthesize_baseline(const std::string& against,
                              const JsonValue& candidate, std::ostream& err) {
  const JsonValue& scenarios = *candidate.get("scenarios");
  if (scenarios.array.empty()) {
    throw UsageError("diff --against: candidate document has no scenarios");
  }
  const JsonValue& mirror = scenarios.array.front();
  if (const JsonValue* adaptive = mirror.get("adaptive");
      adaptive && adaptive->is_object()) {
    // An adaptive campaign's run count is convergence-driven; replaying it
    // faithfully would need the full controller state, not four knobs.
    throw UsageError("diff --against: adaptive candidate documents are not "
                     "supported; save the baseline to a file instead");
  }
  const std::string& kind = candidate.get("command")->string;
  CampaignOptions options = mirror_candidate_options(against, mirror);
  const detail::Execution execution =
      detail::execute_scenario(against, options, nullptr, err);

  std::ostringstream text;
  {
    JsonWriter json(text);
    json.begin_object();
    json.key("command").value(kind);
    json.key("scenarios").begin_array();
    json.begin_object();
    detail::write_execution_header_json(json, execution, options);
    detail::write_adaptive_json(json, execution);
    detail::write_times_json(json, execution);
    detail::write_partitions_json(json, execution, options);
    if (kind != "report") { // run + sweep documents carry throughput
      detail::write_throughput_json(json, execution);
    }
    detail::write_metrics_json(json, execution);
    if (kind == "run") {
      json.key("verified_runs").value(execution.result.verified_runs);
    } else { // report + sweep documents carry the MBPTA analysis
      const detail::Analysed analysed =
          detail::analyse_execution(execution, options);
      detail::write_analysis_json(json, analysed,
                                  infer_decades(mirror, options.decades));
    }
    json.end_object();
    json.end_array();
    json.end_object();
  }
  return JsonValue::parse(text.str());
}

} // namespace

int diff_drift_count(const JsonValue& baseline, const JsonValue& candidate,
                     double tolerance, std::ostream& out) {
  const ComparisonResult result =
      compare_documents(baseline, candidate, tolerance);
  for (const Drift& drift : result.differ.records()) {
    out << "drift: " << drift.context << ": " << drift.detail << '\n';
  }
  out << "compared " << result.scenarios << " scenario(s), "
      << result.differ.compared() << " metric(s): " << result.differ.drifts()
      << " drift(s) beyond tolerance " << tolerance << '\n';
  return result.differ.drifts();
}

int cmd_diff(const DiffOptions& options, std::ostream& out,
             std::ostream& err) {
  JsonValue baseline;
  JsonValue candidate;
  if (options.against.empty()) {
    baseline = load_report_document(options.baseline);
    candidate = load_report_document(options.candidate);
  } else {
    candidate = load_report_document(options.candidate);
    baseline = synthesize_baseline(options.against, candidate, err);
  }

  const ComparisonResult result =
      compare_documents(baseline, candidate, options.tolerance);
  const Differ& differ = result.differ;
  const int scenarios = result.scenarios;

  if (options.format == OutputFormat::kJson) {
    JsonWriter json(out);
    json.begin_object();
    json.key("command").value("diff");
    // With `--against` the baseline is the freshly-run scenario, not a
    // file; the key renders what was actually compared against.
    json.key("baseline").value(options.against.empty()
                                   ? options.baseline
                                   : "--against " + options.against);
    json.key("candidate").value(options.candidate);
    json.key("tolerance").value(options.tolerance);
    json.key("compared_scenarios").value(scenarios);
    json.key("compared_metrics").value(differ.compared());
    json.key("drifts").begin_array();
    for (const Drift& drift : differ.records()) {
      json.begin_object();
      json.key("context").value(drift.context);
      json.key("metric");
      if (drift.metric.empty()) {
        json.null(); // structural drift (missing scenario/partition rows)
      } else {
        json.value(drift.metric);
      }
      json.key("baseline");
      if (drift.baseline.empty() && drift.metric.empty()) {
        json.null();
      } else {
        json.value(drift.baseline);
      }
      json.key("candidate");
      if (drift.candidate.empty() && drift.metric.empty()) {
        json.null();
      } else {
        json.value(drift.candidate);
      }
      json.key("relative_shift").value(drift.relative_shift); // NaN -> null
      json.key("detail").value(drift.detail);
      json.end_object();
    }
    json.end_array();
    json.key("drift_count").value(differ.drifts());
    json.end_object();
    return differ.drifts() == 0 ? 0 : 1;
  }

  for (const Drift& drift : differ.records()) {
    out << "drift: " << drift.context << ": " << drift.detail << '\n';
  }
  out << "compared " << scenarios << " scenario(s), " << differ.compared()
      << " metric(s): " << differ.drifts() << " drift(s) beyond tolerance "
      << options.tolerance << '\n';
  return differ.drifts() == 0 ? 0 : 1;
}

} // namespace proxima::cli
