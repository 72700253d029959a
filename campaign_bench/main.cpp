// campaign_bench — one workload per invocation.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//   campaign_bench --freeze          print every workload's digests at
//                                    the default seed
//
// --trace 0 times identical passes of the workload's campaign and prints
// the end-to-end metrics; --trace 1 is the separate traced run that prints
// the per-layer metrics.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  README.md has
// the definitions.
#include "bench.hpp"

#include "casestudy/campaign_runner.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace campaign_bench;
using proxima::casestudy::CampaignConfig;
using proxima::casestudy::CampaignResult;

// Platform builds timed for setup_s / casestudy.build_us (fastest counts).
constexpr int kSetupBuilds = 64;
// Every timed series holds at least this many passes, however long they
// take, so its fastest pass is a minimum over several.
constexpr int kMinPasses = 3;
// Share of --seconds the engine passes get; the rest re-renders the cell.
constexpr double kEngineShare = 0.85;
// The traced run's four legs (engine passes at the workload's worker
// count, at the other count and with metrics off, then traced passes) each
// run at least kMinPasses passes and for this share of --seconds.
constexpr double kTraceLegShare = 0.125;
// The MBPTA analysis needs >= 10 block maxima of >= 10 runs each.
constexpr std::uint32_t kAnalysisRuns = 100;
// Reboots per round of the reseed probe.
constexpr std::uint32_t kProbeReseeds = 400;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool freeze = false;
  std::string work_dir = ".bench_build/work";
};

Options parse(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      const std::string trace = value(i);
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = trace == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value(i);
    } else if (arg == "--freeze") {
      options.freeze = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!options.freeze && options.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0; // only reachable when every pass failed (correct: false)
  }
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc{} ? std::string(buffer, end) : "0";
}

void print_result(const OutputCheck& check, const std::vector<Metric>& metrics) {
  for (const std::string& error : check.errors()) {
    std::fprintf(stderr, "campaign_bench: check failed: %s\n", error.c_str());
  }
  std::string line = "{\"correct\": ";
  line += check.failed() == 0 && check.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(check.attempted());
  line += ", \"failed\": " + std::to_string(check.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? std::numeric_limits<double>::infinity()
                         : *std::min_element(seconds.begin(), seconds.end());
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void print_series(const char* label, const std::vector<double>& seconds) {
  std::printf("%s: %zu passes, fastest %.6f s, median %.6f s\n", label,
              seconds.size(), fastest(seconds), median(seconds));
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics from identical timed passes.
// ---------------------------------------------------------------------------
int run_timed(const Workload& workload, const Options& options) {
  OutputCheck check(expected_digests(workload, options.seed));
  const CampaignConfig config =
      make_config(workload, options.seed, workload.runs);
  const proxima::store::CampaignStore store(options.work_dir + "/cells");
  const CpuRotation cpus;
  const double runs = workload.runs;
  const Clock::time_point start = Clock::now();

  check_frozen_outputs(workload, options.seed, check);
  const double setup_s = fastest_build_seconds(config, kSetupBuilds, cpus);
  std::vector<double> passes;
  std::vector<double> rerenders;
  Digests cold;
  std::size_t step = 0;
  const auto pin_next = [&] { cpus.pin(step++, workload.workers); };
  if (workload.through_store) {
    // Each pass writes a fresh cell (cold) and re-renders it (warm).
    for (int pass = 0;
         pass < kMinPasses || seconds_since(start) < options.seconds; ++pass) {
      pin_next();
      if (const auto seconds =
              store_cold_pass(store, workload, config, check, cold)) {
        passes.push_back(*seconds);
        if (const auto warm =
                store_warm_pass(store, workload, config, check, cold)) {
          rerenders.push_back(*warm);
        }
      }
    }
  } else {
    // An untimed cold store pass first: it warms the host, fixes the
    // reference digests at a non-default seed, and writes the cell the
    // re-render passes serve.
    if (store_cold_pass(store, workload, config, check, cold)) {
      for (int pass = 0; pass < kMinPasses ||
                         seconds_since(start) < kEngineShare * options.seconds;
           ++pass) {
        pin_next();
        if (const auto seconds = engine_pass(config, workload.workers, check)) {
          passes.push_back(*seconds);
        }
      }
      for (int pass = 0;
           pass < kMinPasses || seconds_since(start) < options.seconds;
           ++pass) {
        pin_next();
        if (const auto seconds =
                store_warm_pass(store, workload, config, check, cold)) {
          rerenders.push_back(*seconds);
        }
      }
    }
  }
  print_series(workload.through_store ? "cold store passes" : "engine passes",
               passes);
  print_series("warm store passes", rerenders);
  print_result(check, {{"runs_per_s", runs / fastest(passes), "1/s"},
                       {"setup_s", setup_s, "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"},
                       {"rerender_runs_per_s", runs / fastest(rerenders),
                        "1/s"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the traced run for the per-layer metrics.
// ---------------------------------------------------------------------------

double counter(const CampaignResult& result, const std::string& name) {
  const auto it = result.metrics.counters.find(name);
  return it == result.metrics.counters.end() ? 0.0
                                             : static_cast<double>(it->second);
}

double gauge(const CampaignResult& result, const std::string& name) {
  const auto it = result.metrics.gauges.find(name);
  return it == result.metrics.gauges.end() ? 0.0 : it->second;
}

/// The highest of the usual percentile levels (in tenths of a percent)
/// with at least ten samples beyond it: the tail a sample of this size
/// supports.
double tail_level(std::size_t samples) {
  for (const std::size_t permille : {999, 990, 950, 900, 750}) {
    if (samples * (1000 - permille) >= 10 * 1000) {
      return static_cast<double>(permille) / 10.0;
    }
  }
  return 50.0;
}

double percentile(std::vector<double> values, double level) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(level / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Fastest engine pass of one traced-run leg; `keep` receives the fastest
/// pass's result.
double fastest_engine_pass(SpanRecorder& spans, const CpuRotation& cpus,
                           double leg_seconds, const char* name,
                           const CampaignConfig& config, unsigned workers,
                           OutputCheck& check, CampaignResult* keep) {
  double best = std::numeric_limits<double>::infinity();
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kMinPasses || seconds_since(start) < leg_seconds;
       ++pass) {
    cpus.pin(static_cast<std::size_t>(pass), workers);
    CampaignResult result;
    std::optional<double> seconds;
    {
      const ScopedSpan span(spans, name);
      seconds = engine_pass(config, workers, check, &result);
    }
    if (seconds && *seconds < best) {
      best = *seconds;
      if (keep != nullptr) {
        *keep = std::move(result);
      }
    }
  }
  return best;
}

/// One traced pass: the workload's campaign driven stage by stage on one
/// runner, with a span around the platform build and each stage of each
/// run.  Totals come from the recorded spans.
struct TracedPass {
  int span = -1;
  double wall_us = 0.0;
  double build_us = 0.0;
  double setup_us = 0.0;
  double execute_us = 0.0;
  double collect_us = 0.0;
  std::vector<double> run_us;
  std::vector<double> times; // UoA cycles per run
};

TracedPass traced_pass(SpanRecorder& spans, const CampaignConfig& config,
                       OutputCheck& check) {
  TracedPass traced;
  {
    const ScopedSpan pass(spans, "casestudy.traced_pass");
    traced.span = pass.id();
    try {
      std::optional<proxima::casestudy::CampaignRunner> runner;
      {
        const ScopedSpan build(spans, "casestudy.build");
        runner.emplace(config);
      }
      for (std::uint64_t run = 0; run < config.runs; ++run) {
        const auto id = static_cast<std::int64_t>(run);
        const ScopedSpan whole(spans, "casestudy.run", id);
        {
          const ScopedSpan stage(spans, "casestudy.setup", id);
          runner->setup(run);
        }
        {
          const ScopedSpan stage(spans, "casestudy.execute", id);
          runner->execute();
        }
        const ScopedSpan stage(spans, "casestudy.collect", id);
        traced.times.push_back(runner->collect().uoa_cycles);
      }
      check.record(config.runs, config.runs - runner->verified_runs(),
                   "traced pass: runs not verified by the golden model");
    } catch (const std::exception& error) {
      check.threw(config.runs, std::string("traced pass: ") + error.what());
    }
  }
  const auto& all = spans.spans();
  traced.wall_us = all[static_cast<std::size_t>(traced.span)].duration_us();
  for (std::size_t i = static_cast<std::size_t>(traced.span) + 1;
       i < all.size(); ++i) {
    const std::string_view name = all[i].name;
    const double us = all[i].duration_us();
    if (name == "casestudy.build") {
      traced.build_us = us;
    } else if (name == "casestudy.run") {
      traced.run_us.push_back(us);
    } else if (name == "casestudy.setup") {
      traced.setup_us += us;
    } else if (name == "casestudy.execute") {
      traced.execute_us += us;
    } else if (name == "casestudy.collect") {
      traced.collect_us += us;
    }
  }
  return traced;
}

/// Print each layer's self time (span names are "<layer>.<what>") and
/// check that the self times of each listed span's subtree sum to its
/// wall time.
void report_self_times(const SpanRecorder& spans,
                       const std::vector<int>& checked, OutputCheck& check) {
  const std::vector<double> self = spans.self_us();
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const std::string name = spans.spans()[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  const double wall = spans.spans().front().duration_us();
  for (const auto& [layer, us] : layers) {
    std::printf("self time %-10s %14.1f us  %5.1f%%\n", layer.c_str(), us,
                100.0 * us / wall);
  }
  double worst = 0.0;
  for (const int id : checked) {
    const SpanRecorder::Span& span = spans.spans()[static_cast<std::size_t>(id)];
    const double gap = std::abs(spans.subtree_self_us(id) - span.duration_us());
    worst = std::max(worst, gap);
    check.record(1, gap > 1e-6 * wall ? 1 : 0,
                 std::string("span self times do not sum to the wall time of ") +
                     span.name);
  }
  std::printf("self times of the traced run (%.3f us wall) and of each of "
              "its %zu traced passes sum to their wall time within %.6f us\n",
              wall, checked.size() - 1, worst);
}

int run_traced(const Workload& workload, const Options& options) {
  const std::optional<Digests> expected =
      expected_digests(workload, options.seed);
  OutputCheck check(expected);
  OutputCheck metrics_off_check(expected, false);
  const CampaignConfig config =
      make_config(workload, options.seed, workload.runs);
  const double runs = workload.runs;
  const unsigned workers = workload.workers;
  const unsigned other_workers = workers == 1 ? 2 : 1;
  const std::filesystem::path cells =
      std::filesystem::path(options.work_dir) / "cells";
  const proxima::store::CampaignStore store(cells.string());
  check_frozen_outputs(workload, options.seed, check);
  SpanRecorder spans;
  const int root = spans.begin("bench.traced_run");

  const CpuRotation cpus;
  const double leg_seconds = kTraceLegShare * options.seconds;
  double build_s = 0.0;
  {
    const ScopedSpan span(spans, "casestudy.builds");
    build_s = fastest_build_seconds(config, kSetupBuilds, cpus);
  }

  CampaignResult on;
  const double on_s =
      fastest_engine_pass(spans, cpus, leg_seconds, "exec.engine_pass",
                          config, workers, check, &on);
  const double other_s = fastest_engine_pass(
      spans, cpus, leg_seconds, "exec.engine_pass", config, other_workers, check, nullptr);
  CampaignConfig off_config = config;
  off_config.collect_metrics = false;
  const double off_s = fastest_engine_pass(spans, cpus, leg_seconds,
                                           "obs.metrics_off_pass",
                                           off_config, workers,
                                           metrics_off_check, nullptr);

  Digests cold;
  {
    const ScopedSpan span(spans, "store.cold_pass");
    store_cold_pass(store, workload, config, check, cold);
  }
  {
    const ScopedSpan span(spans, "store.warm_pass");
    store_warm_pass(store, workload, config, check, cold);
  }
  StoreProbe store_probe{};
  try {
    const ScopedSpan span(spans, "store.probe");
    store_probe = probe_store(store.cell_path(workload.scenario, config),
                              (cells / "probe.pxs").string(), check);
  } catch (const std::exception& error) {
    check.record(1, 1, std::string("store probe: ") + error.what());
  }

  // Traced passes repeat the engine pass's runs, so their UoA times must
  // too; the fastest one gives the stage split, all of them the per-run
  // distribution.
  std::vector<int> checked_spans = {root};
  TracedPass traced;
  std::vector<double> run_us;
  int traced_passes = 0;
  const Clock::time_point traced_start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || seconds_since(traced_start) < leg_seconds; ++pass) {
    ++traced_passes;
    cpus.pin(static_cast<std::size_t>(pass), 1);
    TracedPass next = traced_pass(spans, config, check);
    checked_spans.push_back(next.span);
    if (next.times != on.times) {
      check.record(0, config.runs, "traced pass times differ from the "
                                   "engine pass");
    }
    run_us.insert(run_us.end(), next.run_us.begin(), next.run_us.end());
    if (traced.span < 0 || next.wall_us < traced.wall_us) {
      traced = std::move(next);
    }
  }

  // The MBPTA fit needs ten blocks of ten runs: a pass shorter than that
  // is lengthened for the analysis sample only.
  std::vector<double> analysis_times = traced.times;
  if (workload.runs < kAnalysisRuns) {
    CampaignResult sample;
    OutputCheck sample_check(std::nullopt);
    cpus.pin(0, 2);
    const ScopedSpan span(spans, "exec.analysis_sample_pass");
    engine_pass(make_config(workload, options.seed, kAnalysisRuns), 2,
                sample_check, &sample);
    check.absorb(sample_check);
    analysis_times = sample.times;
  }

  // Instructions the VM executes per run: the measured window
  // (mem.instructions) plus the unmeasured warm-up activation, which
  // replays the measured program under the run's own layout and inputs.
  // On the bare platform that is the measured activation again; under the
  // hypervisor the window is the whole schedule, so the warm-up is taken
  // from the same campaign on the bare platform.
  double warmup_instructions = counter(on, "mem.instructions");
  if (config.hypervisor) {
    CampaignConfig bare = config;
    bare.hypervisor.reset();
    OutputCheck twin_check(std::nullopt);
    CampaignResult twin;
    const ScopedSpan span(spans, "vm.warmup_twin_pass");
    engine_pass(bare, 1, twin_check, &twin);
    warmup_instructions = counter(twin, "mem.instructions");
    check.absorb(twin_check);
  }

  double reseed_us = 0.0;
  GuestMemoryProbe memory_probe{};
  double mbpta_ms = 0.0;
  try {
    {
      const ScopedSpan span(spans, "core.reseed_probe");
      reseed_us = probe_reseed_us(config, kProbeReseeds);
    }
    {
      const ScopedSpan span(spans, "mem.guest_memory_probe");
      memory_probe = probe_guest_memory(config, options.seed);
    }
    const ScopedSpan span(spans, "mbpta.analysis");
    mbpta_ms = probe_mbpta_ms(analysis_times, check);
  } catch (const std::exception& error) {
    check.record(1, 1, std::string("probe: ") + error.what());
  }
  spans.end(root);
  check.absorb(metrics_off_check);

  report_self_times(spans, checked_spans, check);
  const std::string trace_path =
      options.work_dir + "/trace-" + workload.name + ".json";
  std::ofstream trace_file(trace_path);
  spans.write_chrome_json(trace_file);
  std::printf("spans written to %s\n", trace_path.c_str());

  double busy = 0.0;
  for (unsigned worker = 0; worker < workers; ++worker) {
    busy += gauge(on, "engine.worker" + std::to_string(worker) +
                          ".busy_seconds");
  }
  const double wall = gauge(on, "engine.wall_seconds");
  const double instructions = counter(on, "mem.instructions");
  const double executed = instructions + warmup_instructions;
  const double execute_us_per_run = traced.execute_us / runs;
  double activations = 0.0;
  for (const auto& [name, value] : on.metrics.counters) {
    if (name.starts_with("hv.") && name.ends_with(".activations")) {
      activations += static_cast<double>(value);
    }
  }
  const double frames = config.hypervisor ? config.hypervisor->frames : 1.0;
  const double w1_s = workers == 1 ? on_s : other_s;
  const double w2_s = workers == 2 ? on_s : other_s;
  const double tail = tail_level(run_us.size());
  std::printf("casestudy.run_us.tail is p%g of %zu runs over %d traced "
              "passes\n",
              tail, run_us.size(), traced_passes);

  print_result(
      check,
      {
          {"exec.overhead_us_per_run", (workers * wall - busy) * 1e6 / runs,
           "us"},
          {"exec.worker_busy_frac", busy / (workers * wall), "frac"},
          {"exec.scaling_2w", w1_s / w2_s, "x"},
          {"casestudy.build_us", build_s * 1e6, "us"},
          {"casestudy.setup_us_per_run", traced.setup_us / runs, "us"},
          {"casestudy.execute_us_per_run", execute_us_per_run, "us"},
          {"casestudy.collect_us_per_run", traced.collect_us / runs, "us"},
          {"casestudy.run_us.p50", percentile(run_us, 50.0), "us"},
          {"casestudy.run_us.tail", percentile(run_us, tail), "us"},
          {"vm.guest_mips", executed / runs / execute_us_per_run, "Minstr/s"},
          {"vm.instr_per_run", instructions / runs, "count"},
          {"vm.decodes_per_run", gauge(on, "vm.decode.decodes") / runs,
           "count"},
          {"vm.superblock.coverage",
           gauge(on, "vm.superblock.ops_retired") / executed, "frac"},
          {"vm.superblock.formed_per_run",
           gauge(on, "vm.superblock.formed") / runs, "count"},
          {"mem.accesses_per_run",
           (counter(on, "mem.icache_access") + counter(on, "mem.dcache_access")) /
               runs,
           "count"},
          {"mem.l1_misses_per_run",
           (counter(on, "mem.icache_miss") + counter(on, "mem.dcache_miss")) /
               runs,
           "count"},
          {"mem.l2_misses_per_run", counter(on, "mem.l2_miss") / runs, "count"},
          {"mem.tlb_misses_per_run",
           (counter(on, "mem.itlb_miss") + counter(on, "mem.dtlb_miss")) / runs,
           "count"},
          {"mem.lines_invalidated_per_run",
           gauge(on, "dsr.lines_invalidated") / runs, "count"},
          {"mem.guest_read_ns", memory_probe.read_ns, "ns"},
          {"mem.span_write_ns_per_word", memory_probe.span_write_ns_per_word,
           "ns"},
          {"core.reseeds_per_run", counter(on, "dsr.reseeds") / runs, "count"},
          {"core.bytes_copied_per_run", counter(on, "dsr.bytes_copied") / runs,
           "B"},
          {"core.reseed_us", reseed_us, "us"},
          {"rtos.activations_per_run", activations / runs, "count"},
          {"rtos.frame_us", execute_us_per_run / frames, "us"},
          {"store.append_us_per_run", store_probe.append_us_per_run, "us"},
          {"store.load_us_per_run", store_probe.load_us_per_run, "us"},
          {"store.bytes_per_run", store_probe.bytes_per_run, "B"},
          {"mbpta.analysis_ms", mbpta_ms, "ms"},
          {"obs.metrics_overhead_pct", (on_s / off_s - 1.0) * 100.0, "%"},
          {"bench.tracing_overhead_pct",
           ((traced.wall_us - traced.build_us) / (w1_s * 1e6 - build_s * 1e6) -
            1.0) *
               100.0,
           "%"},
      });
  return 0;
}

// ---------------------------------------------------------------------------
// --freeze: the digests each workload's pass produces at the default seed.
// ---------------------------------------------------------------------------
int run_freeze() {
  for (const Workload& workload : workloads()) {
    OutputCheck check(std::nullopt);
    CampaignResult result;
    engine_pass(make_config(workload, 0, workload.runs), workload.workers,
                check, &result);
    if (check.failed() != 0) {
      std::fprintf(stderr, "%s: %s\n", workload.name,
                   check.errors().front().c_str());
      return 1;
    }
    const Digests digests = digests_of(result);
    std::printf("%-16s {\"%s\", \"%s\"}\n", workload.name,
                digests.times.c_str(), digests.metrics.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    if (options.freeze) {
      return run_freeze();
    }
    const Workload& workload = find_workload(options.workload);
    std::filesystem::create_directories(options.work_dir);
    return options.trace ? run_traced(workload, options)
                         : run_timed(workload, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_bench: %s\n", error.what());
    return 2;
  }
}
