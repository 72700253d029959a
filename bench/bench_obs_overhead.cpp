// Observability overhead gate: the metrics registry must be (near) free.
//
// Runs the operation-like control-task campaign sequentially three ways —
// metrics off, metrics on, metrics off again — interleaved round-robin, so
// machine drift (frequency scaling, a co-tenant waking up) lands on every
// leg instead of biasing whichever block ran last.  Each round yields a
// *paired* overhead sample (the on leg against the better of its two
// neighbouring off legs) and a paired off-vs-off noise sample.  The gate
// judges the lower of two estimators — the median paired round and the
// best-of ratio across rounds: timing noise only ever adds time, so the
// lower reading is the tighter upper bound on the true cost, and a real
// regression inflates both.  The design claim under test:
//
//   * metrics OFF is the fast-VM hot path with a single hoisted
//     never-taken null check — indistinguishable from the pre-obs build;
//   * metrics ON costs one array increment per retired instruction plus a
//     per-run delta fold — bounded here at PROXIMA_OBS_GATE_PCT percent
//     (default 2) of instructions/second on control/operation-cots, whose
//     runs retire about 157k instructions each.
//
// The per-run fold is a fixed cost per run, so this campaign hides it and
// the gate does not bound it on short runs.  Metrics on against off, the
// fastest of 30-40 interleaved engine passes each, Release build on 4
// shared vCPUs: 1.35x on leak/beacon-ondemand (1,000 runs, 2 workers) and 1.31x
// on leak/beacon-dsr (500 runs, 1 worker), against 0.98-1.01x, inside the
// noise, on control/operation-cots (200 runs) and hv/control+image-dsr
// (8 runs).  DESIGN.md section 8 has the figures.
//
// The gate cannot resolve below the measurement's own noise: when the
// median off-vs-off spread already exceeds the gate, the effective gate
// widens to that floor (printed, so a noisy pass is visible as such).
//
// The campaign results must also be bit-identical with metrics on and off
// (same times digest): telemetry must never perturb simulated time.
//
// Exit status: 0 iff the times match AND the median metrics-on overhead
// is within the effective gate.
#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

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

/// One timed sequential campaign.
double timed_run(const CampaignConfig& config, CampaignResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = run_control_campaign(config);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(200);
  const int rounds = 7;
  const double gate = gate_pct();
  print_header("Observability overhead: metrics registry on vs off (" +
               std::to_string(runs) + " runs, " + std::to_string(rounds) +
               " interleaved rounds, sequential)");

  const CampaignConfig base = exec::ScenarioRegistry::global()
                                  .at("control/operation-cots")
                                  .make_config(runs);
  CampaignConfig with_metrics = base;
  with_metrics.collect_metrics = true;

  CampaignResult off_result, on_result;
  std::vector<double> overhead_samples, noise_samples;
  double best_off = 0.0, best_on = 0.0;
  std::printf("%-8s %12s %12s %12s %12s %10s\n", "round", "off s", "on s",
              "off s", "overhead%", "noise%");
  for (int round = 0; round < rounds; ++round) {
    const double off_a = timed_run(base, off_result);
    const double on = timed_run(with_metrics, on_result);
    const double off_b = timed_run(base, off_result);
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
  std::printf("\nbest-of throughput: off %.1f / on %.1f Minstr/s\n",
              instr / best_off / 1e6, instr / best_on / 1e6);

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
  std::printf("\nshape check: metrics-on overhead within %.2f%%: %s "
              "(%.2f%%)\n",
              effective_gate, within_gate ? "yes" : "NO", overhead_pct);
  return (identical && collected && within_gate) ? 0 : 1;
}
