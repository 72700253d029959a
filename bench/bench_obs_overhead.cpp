// Observability overhead gate: the metrics registry must be (near) free.
//
// Runs each of two campaigns sequentially three ways — metrics off,
// metrics on, metrics off again — interleaved round-robin, so machine
// drift (frequency scaling, a co-tenant waking up) lands on every leg
// instead of biasing whichever block ran last.  Each round yields a
// *paired* overhead sample (the on leg against the better of its two
// neighbouring off legs) and a paired off-vs-off noise sample.  The gate
// judges the lower of two estimators — the median paired round and the
// best-of ratio across rounds: timing noise only ever adds time, so the
// lower reading is the tighter upper bound on the true cost, and a real
// regression inflates both.  The two campaigns bound the two halves of
// the cost:
//
//   * control/operation-cots (PROXIMA_RUNS runs, default 200; about 157k
//     instructions per run) sees the per-instruction cost: one array
//     increment per retired instruction of the measured activation;
//   * leak/beacon-dsr (ten times as many runs; about 1,100 instructions
//     per run) sees the per-run cost: the runner writes its delta into a
//     fixed-layout record and sums it into its shard, and names are
//     attached once, when the campaign ends.
//
// Each is bounded at PROXIMA_OBS_GATE_PCT percent (default 2) of its
// metrics-off time.  Metrics OFF is the fast-VM hot path with a single
// hoisted never-taken null check, indistinguishable from a build without
// the registry.
//
// The gate cannot resolve below the measurement's own noise: when the
// median off-vs-off spread already exceeds the gate, the effective gate
// widens to that floor (printed, so a noisy pass is visible as such).
// Each campaign's user and system CPU time per pass is printed for both
// settings.  A one-worker pass builds and frees a whole platform, and the
// system time shows when the allocator handed the freed guest pages back
// to the kernel and the next pass had to fault them in again: that cost
// belongs to neither setting, and it is reported, not tuned away.
//
// The campaign results must also be bit-identical with metrics on and off
// (same times digest): telemetry must never perturb simulated time.
//
// Exit status: 0 iff, for both campaigns, the times match AND the
// metrics-on overhead is within the effective gate.
#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include <sys/resource.h>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

double gate_pct() {
  if (const char* env = std::getenv("PROXIMA_OBS_GATE_PCT")) {
    const double value = std::strtod(env, nullptr);
    if (value > 0.0) {
      return value;
    }
  }
  return 2.0;
}

/// CPU seconds this process has used, in user and in system mode.
struct CpuTime {
  double user = 0.0;
  double sys = 0.0;
};

CpuTime cpu_time() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return CpuTime{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

/// One timed sequential campaign; its CPU time is added to `cpu`.
double timed_run(const CampaignConfig& config, CampaignResult& out,
                 CpuTime& cpu) {
  const CpuTime cpu_start = cpu_time();
  const auto start = std::chrono::steady_clock::now();
  out = run_control_campaign(config);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const CpuTime cpu_end = cpu_time();
  cpu.user += cpu_end.user - cpu_start.user;
  cpu.sys += cpu_end.sys - cpu_start.sys;
  return seconds;
}

double median(std::vector<double> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

/// Gate one scenario's metrics-on cost; true iff it passes.
bool gate_scenario(const char* scenario, std::uint32_t runs, int rounds,
                   double gate) {
  print_header(std::string("Observability overhead: ") + scenario + " (" +
               std::to_string(runs) + " runs, " + std::to_string(rounds) +
               " interleaved rounds, sequential)");

  const CampaignConfig base =
      exec::ScenarioRegistry::global().at(scenario).make_config(runs);
  CampaignConfig with_metrics = base;
  with_metrics.collect_metrics = true;

  CampaignResult off_result, on_result;
  std::vector<double> overhead_samples, noise_samples;
  double best_off = 0.0, best_on = 0.0;
  CpuTime off_cpu, on_cpu;
  std::printf("%-8s %12s %12s %12s %12s %10s\n", "round", "off s", "on s",
              "off s", "overhead%", "noise%");
  for (int round = 0; round < rounds; ++round) {
    const double off_a = timed_run(base, off_result, off_cpu);
    const double on = timed_run(with_metrics, on_result, on_cpu);
    const double off_b = timed_run(base, off_result, off_cpu);
    const double off = std::min(off_a, off_b);
    const double overhead = 100.0 * (on / off - 1.0);
    const double noise =
        100.0 * (std::max(off_a, off_b) / std::min(off_a, off_b) - 1.0);
    overhead_samples.push_back(overhead);
    noise_samples.push_back(noise);
    if (best_off == 0.0 || off < best_off) {
      best_off = off;
    }
    if (best_on == 0.0 || on < best_on) {
      best_on = on;
    }
    std::printf("%-8d %12.3f %12.3f %12.3f %+12.2f %10.2f\n", round, off_a,
                on, off_b, overhead, noise);
  }

  const double instr = static_cast<double>(guest_instructions(off_result));
  std::printf("\nbest-of throughput: off %.1f / on %.1f Minstr/s, "
              "%.0f instructions per run\n",
              instr / best_off / 1e6, instr / best_on / 1e6, instr / runs);
  const double off_passes = 2.0 * rounds;
  std::printf("cpu time per pass: off user %.4f s sys %.4f s / on user "
              "%.4f s sys %.4f s\n",
              off_cpu.user / off_passes, off_cpu.sys / off_passes,
              on_cpu.user / rounds, on_cpu.sys / rounds);

  // Two estimators of the same cost: the median paired round, and the
  // best-of ratio across all rounds.  Timing noise is strictly additive,
  // so whichever reads lower is the tighter upper bound on the true
  // overhead — a real regression inflates both.
  const double median_pct = median(overhead_samples);
  const double best_pct = 100.0 * (best_on / best_off - 1.0);
  const double overhead_pct = std::min(median_pct, best_pct);
  const double noise_pct = median(noise_samples);
  const double effective_gate = std::max(gate, noise_pct);
  std::printf("median off-vs-off noise floor: %.2f%%\n", noise_pct);
  std::printf("metrics-on overhead: median %.2f%% / best-of %.2f%% -> "
              "%.2f%% (gate %.1f%%, effective %.2f%%)\n",
              median_pct, best_pct, overhead_pct, gate, effective_gate);

  // Telemetry must not change what was simulated.
  const bool identical = off_result.times == on_result.times &&
                         off_result.samples == on_result.samples;
  std::printf("times digest off/on: %s / %s -> %s\n",
              trace::times_digest_hex(off_result.times).c_str(),
              trace::times_digest_hex(on_result.times).c_str(),
              identical ? "bit-identical" : "DIVERGENCE");

  // The registry must actually have been collected in the "on" leg.
  const bool collected =
      on_result.metrics.counters.count("mem.instructions") != 0 &&
      off_result.metrics.empty();
  std::printf("registry collected on / empty off: %s\n",
              collected ? "yes" : "NO");
  std::printf("metrics digest: %s\n",
              obs::metrics_digest_hex(on_result.metrics).c_str());

  const bool within_gate = overhead_pct <= effective_gate;
  std::printf("\nshape check: %s metrics-on overhead within %.2f%%: %s "
              "(%.2f%%)\n",
              scenario, effective_gate, within_gate ? "yes" : "NO",
              overhead_pct);
  return identical && collected && within_gate;
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(200);
  const int rounds = 7;
  const double gate = gate_pct();
  const bool per_instruction =
      gate_scenario("control/operation-cots", runs, rounds, gate);
  const bool per_run =
      gate_scenario("leak/beacon-dsr", runs * 10, rounds, gate);
  return (per_instruction && per_run) ? 0 : 1;
}
