// Implementation of `proxima list|run|report|profile`.
//
// `run` executes scenarios through the parallel engine (fixed size, or
// `--adaptive`: convergence-driven growth with deterministic batch
// boundaries) and prints timing summaries plus a times digest that is
// bit-stable across worker counts.  `report` additionally runs the MBPTA
// pipeline and renders the pWCET curve (text plot / JSON / CSV).
// `profile` renders the merged observability registry; `--trace-out`
// attaches a Chrome trace_event timeline to any campaign command.
//
// The execution plumbing and JSON section writers live in
// `proxima::cli::detail` (exec_common.hpp) because sweep.cpp assembles its
// per-cell scenario objects from the same pieces.
#include "cli.hpp"

#include "casestudy/fingerprint.hpp"
#include "cli/exec_common.hpp"
#include "cli/json_writer.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "exec/seed.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "trace/report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace proxima::cli {

namespace detail {

std::vector<std::string> selected_scenarios(const CampaignOptions& options) {
  const exec::ScenarioRegistry& registry = exec::ScenarioRegistry::global();
  if (options.all) {
    return registry.names();
  }
  for (const std::string& name : options.scenarios) {
    (void)registry.at(name); // throws std::out_of_range with the catalogue
  }
  return options.scenarios;
}

casestudy::CampaignConfig scenario_config(const std::string& name,
                                          const CampaignOptions& options) {
  casestudy::CampaignConfig config =
      exec::ScenarioRegistry::global().at(name).make_config(options.runs);
  config.vm_core = options.vm_core;
  if (options.randomisation) {
    config.randomisation = *options.randomisation;
  }
  if (options.seed) {
    // One knob reseeds the whole campaign: the layout stream gets a
    // SplitMix64-mixed companion so the two streams never coincide.
    config.input_seed = *options.seed;
    config.layout_seed = exec::splitmix64_mix(*options.seed);
  }
  if (options.frames) {
    if (!config.hypervisor) {
      throw UsageError("--frames: scenario '" + name +
                       "' does not run on the hypervisor");
    }
    config.hypervisor->frames = *options.frames;
  }
  return config;
}

std::uint64_t effective_batch(const CampaignOptions& options) {
  if (options.batch_runs != 0) {
    return options.batch_runs;
  }
  return std::max<std::uint64_t>(50, options.runs / 10);
}

exec::ConvergenceOptions convergence_options(const CampaignOptions& options) {
  exec::ConvergenceOptions convergence;
  convergence.batch_runs = effective_batch(options);
  convergence.max_runs = options.runs; // --runs is the adaptive budget
  convergence.controller.target_exceedance = 1e-12;
  convergence.controller.epsilon = 0.01;
  convergence.controller.stable_rounds = 3;
  convergence.controller.min_samples =
      std::min<std::size_t>(200, options.runs);
  convergence.controller.mbpta.block_size = mbpta::auto_block_size(options.runs);
  return convergence;
}

Execution execute_scenario(const std::string& name,
                           const CampaignOptions& options,
                           obs::Timeline* timeline, std::ostream& err) {
  Execution execution;
  execution.name = name;
  execution.config = scenario_config(name, options);
  // The registry is always collected: the delta-snapshot capture is off the
  // per-instruction path, and every output mode can then offer the metrics
  // digest as a determinism witness (see bench_obs_overhead for the cost).
  execution.config.collect_metrics = true;
  execution.config.timeline = timeline;
  exec::EngineOptions engine_options;
  engine_options.workers = options.workers;
  if (options.progress) {
    // The meter serialises callback invocations and coalesces bursts, so a
    // plain stream write is safe here even though workers drive it.
    engine_options.progress = [&err, name](std::uint64_t completed,
                                           std::uint64_t total) {
      err << '\r' << name << ": " << completed << '/' << total << " runs"
          << std::flush;
    };
  }
  // `resolved_workers` depends only on the options, so a probe engine
  // answers for the store-backed path too (the store builds its own).
  const exec::CampaignEngine probe(engine_options);
  const bool store_backed = !options.store_dir.empty();

  const auto start = std::chrono::steady_clock::now();
  if (options.adaptive) {
    execution.budget = options.runs;
    execution.batch_runs = effective_batch(options);
    // Adaptive campaigns shard one batch at a time.
    execution.workers = probe.resolved_workers(
        std::min<std::uint64_t>(execution.batch_runs, execution.budget));
    exec::AdaptiveCampaignResult adaptive;
    if (store_backed) {
      const store::CampaignStore store(options.store_dir);
      store::StoreStats stats;
      adaptive =
          store.run_adaptive(name, execution.config,
                             convergence_options(options),
                             std::move(engine_options), &stats);
      execution.store = std::move(stats);
    } else {
      adaptive =
          probe.run_adaptive(execution.config, convergence_options(options));
    }
    execution.result = std::move(adaptive.campaign);
    adaptive.campaign = {};
    execution.adaptive = std::move(adaptive);
  } else {
    execution.workers = probe.resolved_workers(options.runs);
    if (store_backed) {
      const store::CampaignStore store(options.store_dir);
      store::StoreStats stats;
      execution.result = store.run(name, execution.config,
                                   std::move(engine_options), &stats);
      execution.store = std::move(stats);
    } else {
      execution.result = probe.run(execution.config);
    }
  }
  execution.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (options.progress) {
    err << '\n'; // terminate the live \r line before the next scenario
  }
  return execution;
}

/// Serialise the timeline to `--trace-out FILE`.  Failures surface as a
/// campaign fault (exit 3): the campaign DID run, but its requested
/// artefact could not be produced.
void write_trace_file(const obs::Timeline& timeline, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("--trace-out: cannot open '" + path +
                             "' for writing");
  }
  timeline.write_json(file);
  file.flush();
  if (!file) {
    throw std::runtime_error("--trace-out: write to '" + path + "' failed");
  }
}

/// Execute every selected scenario (campaign fault on a later scenario
/// propagates BEFORE any output, so machine consumers never see a
/// truncated document), then write the shared `--trace-out` timeline.
std::vector<Execution> execute_selected(const CampaignOptions& options,
                                        std::ostream& err) {
  const std::vector<std::string> names = selected_scenarios(options);
  std::optional<obs::Timeline> timeline;
  if (!options.trace_out.empty()) {
    timeline.emplace();
  }
  std::vector<Execution> executions;
  executions.reserve(names.size());
  for (const std::string& name : names) {
    executions.push_back(execute_scenario(
        name, options, timeline ? &*timeline : nullptr, err));
  }
  if (timeline) {
    write_trace_file(*timeline, options.trace_out);
  }
  for (Execution& execution : executions) {
    execution.config.timeline = nullptr; // the local timeline dies here
  }
  return executions;
}

void write_adaptive_json(JsonWriter& json, const Execution& execution) {
  json.key("adaptive");
  if (!execution.adaptive) {
    json.null();
    return;
  }
  const exec::AdaptiveCampaignResult& adaptive = *execution.adaptive;
  json.begin_object();
  json.key("budget").value(execution.budget);
  json.key("batch_runs").value(execution.batch_runs);
  json.key("batches").value(std::uint64_t{adaptive.batches});
  json.key("converged").value(adaptive.converged);
  json.key("capped").value(adaptive.capped);
  json.key("estimates").begin_array();
  for (const double estimate : adaptive.estimates) {
    json.value(estimate); // NaN (i.i.d. failed) renders as null
  }
  json.end_array();
  json.end_object();
}

/// A `--partition` name matching no partition of any selected scenario is
/// a usage error, raised BEFORE any output so machine consumers never see
/// a well-formed document that silently dropped the filter.
void validate_partition_filter(const std::vector<const Execution*>& executions,
                               const CampaignOptions& options) {
  if (!options.partition) {
    return;
  }
  std::vector<std::string> available;
  for (const Execution* execution : executions) {
    for (const trace::PartitionSeries& series :
         casestudy::partition_series(execution->result.samples)) {
      if (series.partition == *options.partition) {
        return;
      }
      available.push_back(series.partition);
    }
  }
  std::string message =
      "--partition: no partition named '" + *options.partition + "'";
  if (available.empty()) {
    message += " (no hv/ scenario selected)";
  } else {
    message += "; partitions:";
    for (const std::string& name : available) {
      message += ' ' + name;
    }
  }
  throw UsageError(message);
}

/// Restrict flattened series to the `--partition` filter (validated
/// upstream), BEFORE the report is built: no analysis on discarded rows.
std::vector<trace::PartitionSeries>
filtered_series(const Execution& execution, const CampaignOptions& options) {
  std::vector<trace::PartitionSeries> series =
      casestudy::partition_series(execution.result.samples);
  if (options.partition) {
    std::erase_if(series, [&](const trace::PartitionSeries& s) {
      return s.partition != *options.partition;
    });
  }
  return series;
}

/// Per-partition sections of an hv/ scenario (null on the bare platform):
/// activation statistics over the cycles the schedule granted, budget
/// violations, and the per-partition Gumbel pWCET where the series carries
/// a fit.  `--partition` restricts the sections to one name.
void write_partitions_json(JsonWriter& json, const Execution& execution,
                           const CampaignOptions& options) {
  json.key("partitions");
  if (execution.result.samples.empty() ||
      execution.result.samples.front().partitions.empty()) {
    json.null();
    return;
  }
  const trace::PartitionReport report =
      trace::PartitionReport::build(filtered_series(execution, options));
  const std::string measured_partition =
      casestudy::measured_partition_name(execution.config.measured);
  json.begin_array();
  for (const trace::PartitionReport::Entry& entry : report.entries) {
    json.begin_object();
    json.key("name").value(entry.partition);
    json.key("measured").value(entry.partition == measured_partition);
    json.key("activations").value(std::uint64_t{entry.summary.count});
    json.key("min").value(entry.summary.min);
    json.key("mean").value(entry.summary.mean);
    json.key("moet").value(entry.summary.max);
    json.key("stddev").value(entry.summary.stddev);
    json.key("overruns").value(entry.overruns);
    json.key("iid_passes").value(entry.iid_passes);
    json.key("pwcet");
    if (entry.pwcet) {
      json.value(*entry.pwcet);
    } else {
      json.null();
    }
    json.key("pwcet_exceedance").value(report.target_exceedance);
    json.end_object();
  }
  json.end_array();
}

void print_partitions_text(std::ostream& out, const Execution& execution,
                           const CampaignOptions& options) {
  const std::vector<trace::PartitionSeries> series =
      filtered_series(execution, options);
  if (series.empty()) {
    return; // bare platform, or the filter names another scenario's guest
  }
  out << trace::PartitionReport::build(series).to_string();
}

void write_times_json(JsonWriter& json, const Execution& execution) {
  const mbpta::Summary summary = mbpta::summarise(execution.result.times);
  json.key("times").begin_object();
  json.key("n").value(std::uint64_t{summary.count});
  json.key("min").value(summary.min);
  json.key("mean").value(summary.mean);
  json.key("max").value(summary.max);
  json.key("stddev").value(summary.stddev);
  json.key("digest").value(trace::times_digest_hex(execution.result.times));
  json.end_object();
}

void write_throughput_json(JsonWriter& json, const Execution& execution) {
  json.key("throughput").begin_object();
  json.key("wall_seconds").value(execution.seconds);
  json.key("guest_instructions").value(execution.guest_instructions());
  json.key("minstr_per_second").value(execution.minstr_per_second());
  json.end_object();
}

/// The `"metrics"` section of run/report/profile JSON: the merged registry
/// keyed by determinism class.  The key is named "digest" like the times
/// digest, so a `grep '"digest"'` across worker counts checks BOTH
/// invariants at once.  Gauges land under "wall": wall-clock/platform
/// facts, legitimately different between identical campaigns.
void write_metrics_json(JsonWriter& json, const Execution& execution) {
  const obs::MetricsSnapshot& metrics = execution.result.metrics;
  json.key("metrics").begin_object();
  json.key("digest").value(obs::metrics_digest_hex(metrics));
  json.key("counters").begin_object();
  for (const auto& [name, value] : metrics.counters) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, histogram] : metrics.histograms) {
    json.key(name).begin_object();
    json.key("count").value(histogram.count);
    json.key("min").value(histogram.count == 0 ? 0 : histogram.min);
    json.key("max").value(histogram.max);
    json.key("mean").value(histogram.mean());
    // Sparse [bit_width, count] pairs; bucket b holds values of b bits.
    json.key("buckets").begin_array();
    for (std::size_t bit = 0; bit < obs::Histogram::kBuckets; ++bit) {
      if (histogram.buckets[bit] == 0) {
        continue;
      }
      json.begin_array();
      json.value(std::uint64_t{bit});
      json.value(histogram.buckets[bit]);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.key("series").begin_object();
  for (const auto& [name, values] : metrics.series) {
    json.key(name).begin_array();
    for (const double value : values) {
      json.value(value); // NaN (i.i.d. failed evaluation) renders as null
    }
    json.end_array();
  }
  json.end_object();
  json.key("wall").begin_object();
  for (const auto& [name, value] : metrics.gauges) {
    json.key(name).value(value);
  }
  json.end_object();
  json.end_object();
}

void print_metrics_text(std::ostream& out, const Execution& execution) {
  const obs::MetricsSnapshot& metrics = execution.result.metrics;
  char line[200];
  out << execution.name << " (" << execution.result.times.size()
      << " runs, metrics digest " << obs::metrics_digest_hex(metrics)
      << ")\n";
  if (!metrics.counters.empty()) {
    out << "  counters:\n";
    for (const auto& [name, value] : metrics.counters) {
      std::snprintf(line, sizeof(line), "    %-36s %20llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << line;
    }
  }
  if (!metrics.histograms.empty()) {
    out << "  histograms:\n";
    for (const auto& [name, histogram] : metrics.histograms) {
      std::snprintf(line, sizeof(line),
                    "    %-36s n=%llu min=%llu mean=%.1f max=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(histogram.count),
                    static_cast<unsigned long long>(
                        histogram.count == 0 ? 0 : histogram.min),
                    histogram.mean(),
                    static_cast<unsigned long long>(histogram.max));
      out << line;
    }
  }
  if (!metrics.series.empty()) {
    out << "  series:\n";
    for (const auto& [name, values] : metrics.series) {
      out << "    " << name << " (" << values.size() << "):";
      for (const double value : values) {
        std::snprintf(line, sizeof(line), " %.6g", value);
        out << line;
      }
      out << '\n';
    }
  }
  if (!metrics.gauges.empty()) {
    out << "  wall:\n";
    for (const auto& [name, value] : metrics.gauges) {
      std::snprintf(line, sizeof(line), "    %-36s %20.6f\n", name.c_str(),
                    value);
      out << line;
    }
  }
}

/// CSV rows `scenario,class,metric,value`: histograms flatten to
/// .count/.min/.mean/.max rows, series to indexed rows — every value a
/// plain number except the digest row's hex string.
void print_metrics_csv(std::ostream& out, const Execution& execution) {
  const obs::MetricsSnapshot& metrics = execution.result.metrics;
  out << execution.name << ",digest,metrics_digest,"
      << obs::metrics_digest_hex(metrics) << '\n';
  for (const auto& [name, value] : metrics.counters) {
    out << execution.name << ",counter," << name << ',' << value << '\n';
  }
  for (const auto& [name, histogram] : metrics.histograms) {
    out << execution.name << ",histogram," << name << ".count,"
        << histogram.count << '\n';
    out << execution.name << ",histogram," << name << ".min,"
        << (histogram.count == 0 ? 0 : histogram.min) << '\n';
    out << execution.name << ",histogram," << name << ".mean,"
        << histogram.mean() << '\n';
    out << execution.name << ",histogram," << name << ".max," << histogram.max
        << '\n';
  }
  for (const auto& [name, values] : metrics.series) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << execution.name << ",series," << name << '[' << i << "],"
          << values[i] << '\n';
    }
  }
  for (const auto& [name, value] : metrics.gauges) {
    out << execution.name << ",wall," << name << ',' << value << '\n';
  }
}

void write_execution_header_json(JsonWriter& json, const Execution& execution,
                                 const CampaignOptions& options) {
  json.key("name").value(execution.name);
  // The measured target: which program's UoA the times/digest describe
  // ("control" / "image").  Under hv/ scenarios this is the measured
  // partition; the guests appear in "partitions" only.
  json.key("measured").value(
      casestudy::measured_target_name(execution.config.measured));
  json.key("vm_core").value(vm_core_name(options.vm_core));
  json.key("seed").begin_object();
  json.key("input").value(execution.config.input_seed);
  json.key("layout").value(execution.config.layout_seed);
  json.end_object();
  json.key("runs").value(
      std::uint64_t{execution.result.times.size()});
  json.key("workers").value(execution.workers);
  json.key("frames");
  if (execution.config.hypervisor) {
    json.value(execution.config.hypervisor->frames);
  } else {
    json.null();
  }
  // Store-backed campaigns record their cell provenance; the counts are
  // NOT compared by diff (a warm cache legitimately differs from a cold
  // one) — the sweep manifest is what asserts simulated_runs == 0.
  json.key("store");
  if (execution.store) {
    json.begin_object();
    json.key("fingerprint")
        .value(casestudy::fingerprint_hex(execution.store->fingerprint));
    json.key("cell").value(execution.store->cell_path);
    json.key("stored_runs").value(execution.store->stored_runs);
    json.key("simulated_runs").value(execution.store->simulated_runs);
    json.end_object();
  } else {
    json.null();
  }
}

void print_adaptive_text(std::ostream& out, const Execution& execution) {
  if (!execution.adaptive) {
    return;
  }
  const exec::AdaptiveCampaignResult& adaptive = *execution.adaptive;
  out << "  adaptive: " << execution.result.times.size() << " of "
      << execution.budget << " budgeted runs ("
      << (adaptive.converged ? "converged" : "budget exhausted") << " after "
      << adaptive.batches << " batches of " << execution.batch_runs << ")\n";
  // Estimates exist only for batches past the controller's min_samples,
  // so they are numbered as evaluations rather than batches.
  std::size_t index = 0;
  for (const double estimate : adaptive.estimates) {
    std::ostringstream line;
    if (std::isnan(estimate)) {
      line << "i.i.d. failed";
    } else {
      line << "pWCET estimate " << estimate;
    }
    out << "    evaluation " << ++index << ": " << line.str() << '\n';
  }
}

Analysed analyse_execution(const Execution& execution,
                           const CampaignOptions& options) {
  Analysed analysed;
  mbpta::MbptaConfig analysis_config;
  if (options.adaptive) {
    // The reported fit must be the estimator whose stability the
    // convergence decision certified: reuse the controller's tail-fit
    // config rather than re-deriving a block size from the stop count.
    analysis_config = convergence_options(options).controller.mbpta;
  } else {
    analysis_config.block_size =
        mbpta::auto_block_size(execution.result.times.size());
  }
  try {
    analysed.analysis =
        mbpta::analyse(execution.result.times, analysis_config);
  } catch (const std::invalid_argument& error) {
    analysed.error = error.what(); // campaign too short for the fit
  }
  return analysed;
}

void write_analysis_json(JsonWriter& json, const Analysed& analysed,
                         int decades) {
  if (!analysed.analysis) {
    json.key("analysis").null();
    json.key("analysis_error").value(analysed.error);
    return;
  }
  const mbpta::MbptaAnalysis& analysis = *analysed.analysis;
  json.key("analysis").begin_object();
  json.key("iid").begin_object();
  json.key("independence_p").value(analysis.iid.independence.p_value);
  json.key("identical_distribution_p")
      .value(analysis.iid.identical_distribution.p_value);
  json.key("passes").value(analysis.applicable());
  json.end_object();
  json.key("gumbel").begin_object();
  json.key("location").value(analysis.model.info().gumbel.location);
  json.key("scale").value(analysis.model.info().gumbel.scale);
  json.end_object();
  json.key("curve").begin_array();
  for (const auto& [cycles, p] : analysis.model.curve(decades)) {
    json.begin_object();
    json.key("exceedance").value(p);
    json.key("pwcet_cycles").value(cycles);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

} // namespace detail

using namespace detail;

int cmd_list(const CampaignOptions& options, std::ostream& out) {
  const exec::ScenarioRegistry& registry = exec::ScenarioRegistry::global();
  const std::vector<std::string> names = registry.names();
  if (options.format == OutputFormat::kJson) {
    JsonWriter json(out);
    json.begin_object();
    json.key("command").value("list");
    json.key("scenarios").begin_array();
    for (const std::string& name : names) {
      json.begin_object();
      json.key("name").value(name);
      json.key("description").value(registry.at(name).description);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return 0;
  }
  for (const std::string& name : names) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %s\n", name.c_str(),
                  registry.at(name).description.c_str());
    out << line;
  }
  out << '(' << names.size() << " scenarios)\n";
  return 0;
}

int cmd_run(const CampaignOptions& options, std::ostream& out,
            std::ostream& err) {
  const std::vector<Execution> executions = execute_selected(options, err);
  std::vector<const Execution*> executed;
  for (const Execution& execution : executions) {
    executed.push_back(&execution);
  }
  validate_partition_filter(executed, options);

  if (options.format == OutputFormat::kJson) {
    JsonWriter json(out);
    json.begin_object();
    json.key("command").value("run");
    json.key("scenarios").begin_array();
    for (const Execution& execution : executions) {
      json.begin_object();
      write_execution_header_json(json, execution, options);
      write_adaptive_json(json, execution);
      write_times_json(json, execution);
      write_partitions_json(json, execution, options);
      write_throughput_json(json, execution);
      write_metrics_json(json, execution);
      json.key("verified_runs").value(execution.result.verified_runs);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return 0;
  }

  if (options.format == OutputFormat::kCsv) {
    out << "scenario,runs,min,mean,max,stddev,digest,converged,"
           "wall_seconds,minstr_per_second\n";
    for (const Execution& execution : executions) {
      const mbpta::Summary summary = mbpta::summarise(execution.result.times);
      out << execution.name << ',' << summary.count << ',' << summary.min
          << ',' << summary.mean << ',' << summary.max << ',' << summary.stddev
          << ',' << trace::times_digest_hex(execution.result.times) << ','
          << (execution.adaptive
                  ? (execution.adaptive->converged ? "true" : "false")
                  : "")
          << ',' << execution.seconds << ',' << execution.minstr_per_second()
          << '\n';
    }
    return 0;
  }

  for (const Execution& execution : executions) {
    const trace::TimingReport report =
        trace::TimingReport::from_times(execution.result.times);
    out << execution.name << " (" << vm_core_name(options.vm_core) << " core, "
        << execution.result.times.size() << " runs, measured "
        << casestudy::measured_target_name(execution.config.measured)
        << ")\n";
    out << "  " << report.to_string() << '\n';
    print_adaptive_text(out, execution);
    print_partitions_text(out, execution, options);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %.3f s wall, %.1f Minstr/s, digest %s\n",
                  execution.seconds, execution.minstr_per_second(),
                  trace::times_digest_hex(execution.result.times).c_str());
    out << line;
  }
  return 0;
}

int cmd_report(const CampaignOptions& options, std::ostream& out,
               std::ostream& err) {
  int exit_code = 0;

  // Execute and analyse everything before emitting (see cmd_run).
  struct Reported {
    Execution execution;
    Analysed analysed;
  };
  std::vector<Execution> executions = execute_selected(options, err);
  std::vector<Reported> reports;
  reports.reserve(executions.size());
  for (Execution& execution : executions) {
    Analysed analysed = analyse_execution(execution, options);
    if (!analysed.analysis) {
      exit_code = 1;
    }
    reports.push_back(Reported{std::move(execution), std::move(analysed)});
  }
  std::vector<const Execution*> executed;
  for (const Reported& reported : reports) {
    executed.push_back(&reported.execution);
  }
  validate_partition_filter(executed, options);

  std::optional<JsonWriter> json;
  if (options.format == OutputFormat::kJson) {
    json.emplace(out);
    json->begin_object();
    json->key("command").value("report");
    json->key("scenarios").begin_array();
  } else if (options.format == OutputFormat::kCsv) {
    out << "scenario,exceedance_probability,pwcet_cycles\n";
  }

  for (const Reported& reported : reports) {
    const Execution& execution = reported.execution;
    const std::size_t n = execution.result.times.size();
    const std::optional<mbpta::MbptaAnalysis>& analysis =
        reported.analysed.analysis;
    const std::string& analysis_error = reported.analysed.error;

    if (json) {
      json->begin_object();
      write_execution_header_json(*json, execution, options);
      write_adaptive_json(*json, execution);
      write_times_json(*json, execution);
      write_partitions_json(*json, execution, options);
      write_metrics_json(*json, execution);
      write_analysis_json(*json, reported.analysed, options.decades);
      json->end_object();
      continue;
    }

    if (options.format == OutputFormat::kCsv) {
      if (analysis) {
        for (const auto& [cycles, p] : analysis->model.curve(options.decades)) {
          out << execution.name << ',' << p << ',' << cycles << '\n';
        }
      }
      continue;
    }

    const trace::TimingReport report =
        trace::TimingReport::from_times(execution.result.times);
    out << "== " << execution.name << " (" << n << " runs, measured "
        << casestudy::measured_target_name(execution.config.measured)
        << ") ==\n";
    out << report.to_string() << '\n';
    print_adaptive_text(out, execution);
    print_partitions_text(out, execution, options);
    if (!analysis) {
      out << "MBPTA analysis not possible: " << analysis_error << '\n';
      continue;
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "i.i.d.: Ljung-Box p=%.3f, KS p=%.3f -> %s\n",
                  analysis->iid.independence.p_value,
                  analysis->iid.identical_distribution.p_value,
                  analysis->applicable() ? "EVT applicable"
                                         : "NOT applicable");
    out << line;
    std::snprintf(line, sizeof(line),
                  "Gumbel tail: location=%.1f scale=%.3f (block %u)\n",
                  analysis->model.info().gumbel.location,
                  analysis->model.info().gumbel.scale,
                  analysis->model.info().block_size);
    out << line;
    std::snprintf(line, sizeof(line),
                  "pWCET: %.0f @ 1e-12, %.0f @ 1e-15 (MOET %.0f, "
                  "MOET+20%% %.0f)\n",
                  analysis->pwcet(1e-12), analysis->pwcet(1e-15),
                  report.moet(), report.mbdta_bound());
    out << line;
    out << trace::ascii_exceedance_plot(analysis->model,
                                        execution.result.times);
  }

  if (json) {
    json->end_array();
    json->end_object();
  }
  return exit_code;
}

int cmd_profile(const CampaignOptions& options, std::ostream& out,
                std::ostream& err) {
  const std::vector<Execution> executions = execute_selected(options, err);

  if (options.format == OutputFormat::kJson) {
    JsonWriter json(out);
    json.begin_object();
    json.key("command").value("profile");
    json.key("scenarios").begin_array();
    for (const Execution& execution : executions) {
      json.begin_object();
      write_execution_header_json(json, execution, options);
      write_metrics_json(json, execution);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return 0;
  }

  if (options.format == OutputFormat::kCsv) {
    out << "scenario,class,metric,value\n";
    for (const Execution& execution : executions) {
      print_metrics_csv(out, execution);
    }
    return 0;
  }

  for (const Execution& execution : executions) {
    print_metrics_text(out, execution);
  }
  return 0;
}

} // namespace proxima::cli
