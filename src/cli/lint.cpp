// Implementation of `proxima lint`: the address-leak gate for DSR secrecy
// (ISSUE 8).
//
// For every selected scenario the command checks the same property two
// independent ways and reports whether they agree:
//
//   static  — analysis::analyse_address_leaks over the guest program AS
//             THE CAMPAIGN RUNS IT (measured target build + the DSR pass
//             for kDsr arms): a forward taint dataflow proving "some store
//             into an observable output may carry a layout-derived value";
//   dynamic — the scenario's own campaign re-run with
//             `CampaignConfig::taint` (vm/taint.hpp): per-register /
//             per-word shadow bits maintained while the real runs execute,
//             counting actual tainted stores into the declared sink
//             objects via the `leak.*` metrics family.
//
// Exit codes: 0 every scenario clean, 1 any confirmed leak (either
// detector), 2 usage / unknown scenario, 3 campaign fault — matching the
// rest of the CLI.
#include "analysis/static_taint.hpp"
#include "casestudy/measured_target.hpp"
#include "cli.hpp"
#include "cli/exec_common.hpp"
#include "cli/json_writer.hpp"
#include "core/dsr_pass.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"

#include <string>
#include <vector>

namespace proxima::cli {

namespace {

/// Everything lint derives for one scenario.
struct LintResult {
  std::string name;
  std::string target;
  std::string randomisation;
  analysis::TaintReport static_report;
  std::uint64_t runs = 0;
  std::uint64_t sink_stores = 0;
  std::uint64_t tainted_stores = 0;
  std::uint64_t source_loads = 0;
  std::uint64_t pc_taints = 0;
  std::uint64_t sink_bits_max = 0;

  bool static_leak() const { return !static_report.clean(); }
  bool dynamic_leak() const { return sink_stores > 0; }
  bool leak() const { return static_leak() || dynamic_leak(); }
  bool agree() const { return static_leak() == dynamic_leak(); }
};

std::uint64_t counter_or_zero(const obs::MetricsSnapshot& metrics,
                              const std::string& name) {
  const auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

LintResult lint_scenario(const std::string& name,
                         const CampaignOptions& options, std::ostream& err) {
  LintResult result;
  result.name = name;
  casestudy::CampaignConfig config = detail::scenario_config(name, options);
  result.target = casestudy::measured_target_name(config.measured);
  result.randomisation = casestudy::randomisation_name(config.randomisation);

  // Static pass: analyse the program the campaign actually executes —
  // the measured target's build plus the DSR compiler pass for DSR arms
  // (the pass inserts the stubs/tables whose flows the lattice models).
  const std::unique_ptr<casestudy::Task> target =
      casestudy::make_measured_target(config);
  isa::Program program = target->build_program();
  if (casestudy::uses_dsr(config.randomisation)) {
    dsr::apply_pass(program, config.pass_options);
  }
  result.static_report =
      analysis::analyse_address_leaks(program, target->observable_symbols());

  // Dynamic confirmation: the scenario's own campaign with the taint
  // shadow machinery on.  Purely observational — times and digests match
  // a taint-off run — so the verdict describes exactly the executions the
  // scenario measures.
  config.taint = true;
  config.collect_metrics = true;
  exec::EngineOptions engine_options;
  engine_options.workers = options.workers;
  if (options.progress) {
    engine_options.progress = [&err, name](std::uint64_t completed,
                                           std::uint64_t total) {
      err << '\r' << name << ": " << completed << '/' << total << " runs"
          << std::flush;
    };
  }
  const exec::CampaignEngine engine(engine_options);
  const casestudy::CampaignResult campaign = engine.run(config);
  if (options.progress) {
    err << '\n';
  }
  result.runs = campaign.times.size();
  result.sink_stores = counter_or_zero(campaign.metrics, "leak.sink_stores");
  result.tainted_stores =
      counter_or_zero(campaign.metrics, "leak.tainted_stores");
  result.source_loads = counter_or_zero(campaign.metrics, "leak.source_loads");
  result.pc_taints = counter_or_zero(campaign.metrics, "leak.pc_taints");
  const auto bits = campaign.metrics.histograms.find("leak.sink_bits");
  if (bits != campaign.metrics.histograms.end() && bits->second.count > 0) {
    result.sink_bits_max = bits->second.max;
  }
  return result;
}

void render_text(const LintResult& result, std::ostream& out) {
  out << "lint " << result.name << " (measured " << result.target << ", "
      << result.randomisation << "): "
      << (result.leak() ? "LEAK" : "clean") << '\n';
  out << "  static: " << result.static_report.findings.size()
      << " finding(s) over " << result.static_report.functions_analysed
      << " function(s), " << result.static_report.instructions_analysed
      << " instruction(s)\n";
  for (const analysis::LeakFinding& finding : result.static_report.findings) {
    out << "    " << analysis::describe(finding) << '\n';
    for (const std::string& step : finding.chain) {
      out << "      " << step << '\n';
    }
  }
  out << "  dynamic: runs=" << result.runs
      << " sink_stores=" << result.sink_stores
      << " tainted_stores=" << result.tainted_stores
      << " source_loads=" << result.source_loads
      << " pc_taints=" << result.pc_taints
      << " sink_bits_max=" << result.sink_bits_max << '\n';
  out << "  static/dynamic agree: " << (result.agree() ? "yes" : "NO")
      << '\n';
}

void render_json(const std::vector<LintResult>& results, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("kind").value("lint");
  json.key("scenarios").begin_array();
  for (const LintResult& result : results) {
    json.begin_object();
    json.key("scenario").value(result.name);
    json.key("target").value(result.target);
    json.key("randomisation").value(result.randomisation);
    json.key("leak").value(result.leak());
    json.key("agree").value(result.agree());
    json.key("static").begin_object();
    json.key("functions").value(
        std::uint64_t{result.static_report.functions_analysed});
    json.key("instructions").value(
        std::uint64_t{result.static_report.instructions_analysed});
    json.key("findings").begin_array();
    for (const analysis::LeakFinding& finding :
         result.static_report.findings) {
      json.begin_object();
      json.key("function").value(finding.function);
      json.key("instruction_index")
          .value(std::uint64_t{finding.instruction_index});
      json.key("sink_symbol").value(finding.sink_symbol);
      json.key("sink_offset").value(std::int64_t{finding.sink_offset});
      json.key("source_kind")
          .value(analysis::taint_source_kind_name(finding.source.kind));
      json.key("source").value(finding.source.description);
      json.key("chain").begin_array();
      for (const std::string& step : finding.chain) {
        json.value(step);
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.key("dynamic").begin_object();
    json.key("runs").value(result.runs);
    json.key("sink_stores").value(result.sink_stores);
    json.key("tainted_stores").value(result.tainted_stores);
    json.key("source_loads").value(result.source_loads);
    json.key("pc_taints").value(result.pc_taints);
    json.key("sink_bits_max").value(result.sink_bits_max);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

} // namespace

int cmd_lint(const CampaignOptions& options, std::ostream& out,
             std::ostream& err) {
  const std::vector<std::string> names = detail::selected_scenarios(options);
  std::vector<LintResult> results;
  results.reserve(names.size());
  for (const std::string& name : names) {
    results.push_back(lint_scenario(name, options, err));
  }
  bool any_leak = false;
  if (options.format == OutputFormat::kJson) {
    render_json(results, out);
  }
  for (const LintResult& result : results) {
    if (options.format == OutputFormat::kText) {
      render_text(result, out);
    }
    any_leak = any_leak || result.leak();
  }
  return any_leak ? 1 : 0;
}

} // namespace proxima::cli
