// Shared plumbing for the reproduction benches: campaign sizing via the
// PROXIMA_RUNS environment variable, worker-count selection via
// PROXIMA_WORKERS, aligned table printing, and the standard campaign
// configurations — all drawn from the scenario registry so every bench
// enumerates the same catalogue (operation-like for Figure 2 / Table I,
// analysis-like for Figure 3 / the margin comparison).
#pragma once

#include "casestudy/campaign.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "mbpta/mbpta.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace proxima::bench {

/// Campaign size: PROXIMA_RUNS env var, or the given default.
inline std::uint32_t campaign_runs(std::uint32_t fallback) {
  if (const char* env = std::getenv("PROXIMA_RUNS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 10) {
      return static_cast<std::uint32_t>(value);
    }
  }
  return fallback;
}

/// Engine worker count: PROXIMA_WORKERS env var, or the hardware
/// concurrency (engine default).
inline unsigned campaign_workers() {
  if (const char* env = std::getenv("PROXIMA_WORKERS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) {
      return static_cast<unsigned>(value);
    }
  }
  return 0; // engine resolves to hardware concurrency
}

/// Execute a campaign through the parallel engine.  Bit-identical to
/// `run_control_campaign` at any worker count.
inline casestudy::CampaignResult
run_campaign(const casestudy::CampaignConfig& config) {
  exec::EngineOptions options;
  options.workers = campaign_workers();
  return exec::CampaignEngine(options).run(config);
}

/// Execute a registry scenario through the parallel engine.
inline casestudy::CampaignResult run_scenario(std::string_view name,
                                              std::uint32_t runs) {
  return run_campaign(
      exec::ScenarioRegistry::global().at(name).make_config(runs));
}

/// Execute a campaign adaptively (convergence-driven growth) through the
/// parallel engine.  Deterministic at any PROXIMA_WORKERS setting.
inline exec::AdaptiveCampaignResult
run_campaign_adaptive(const casestudy::CampaignConfig& config,
                      const exec::ConvergenceOptions& convergence) {
  exec::EngineOptions options;
  options.workers = campaign_workers();
  return exec::CampaignEngine(options).run_adaptive(config, convergence);
}

/// Guest instructions retired across all *measured* activations of a
/// campaign (the per-run counters are reset after the warm-up activation).
inline std::uint64_t
guest_instructions(const casestudy::CampaignResult& result) {
  std::uint64_t total = 0;
  for (const casestudy::RunSample& sample : result.samples) {
    total += sample.counters.instructions;
  }
  return total;
}

/// A campaign result with its wall time and guest-instruction throughput,
/// so dispatch-speed changes are visible in every bench, not just
/// bench_vm_dispatch.
struct TimedCampaign {
  casestudy::CampaignResult result;
  double seconds = 0.0;

  std::uint64_t instructions() const { return guest_instructions(result); }
  double mips() const {
    return seconds <= 0.0 ? 0.0
                          : static_cast<double>(instructions()) / seconds / 1e6;
  }
};

inline TimedCampaign run_campaign_timed(const casestudy::CampaignConfig& config) {
  TimedCampaign timed;
  const auto start = std::chrono::steady_clock::now();
  timed.result = run_campaign(config);
  timed.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return timed;
}

inline TimedCampaign run_scenario_timed(std::string_view name,
                                        std::uint32_t runs) {
  return run_campaign_timed(
      exec::ScenarioRegistry::global().at(name).make_config(runs));
}

/// One line of wall time + instructions/second for a campaign result
/// timed externally (no copy of the result involved).
inline void print_throughput(const char* label,
                             const casestudy::CampaignResult& result,
                             double seconds) {
  const std::uint64_t instructions = guest_instructions(result);
  const double mips =
      seconds <= 0.0 ? 0.0 : static_cast<double>(instructions) / seconds / 1e6;
  std::printf("%-22s %8.3f s wall   %8.1f Minstr/s   (%llu guest instr)\n",
              label, seconds, mips,
              static_cast<unsigned long long>(instructions));
}

inline void print_throughput(const char* label, const TimedCampaign& timed) {
  print_throughput(label, timed.result, timed.seconds);
}

/// Operation-like campaign: random inputs every activation (Figure 2,
/// Table I conditions).  Drawn from the scenario registry.
inline casestudy::CampaignConfig operation_config(
    casestudy::Randomisation randomisation, std::uint32_t runs) {
  return exec::ScenarioRegistry::global()
      .at(std::string("control/operation-") +
          casestudy::randomisation_name(randomisation))
      .make_config(runs);
}

/// Analysis-like campaign: pinned stress input (recovery path on), so the
/// measured variability is the platform's (MBPTA methodology, Figure 3).
/// Drawn from the scenario registry.
inline casestudy::CampaignConfig analysis_config(
    casestudy::Randomisation randomisation, std::uint32_t runs) {
  return exec::ScenarioRegistry::global()
      .at(std::string("control/analysis-") +
          casestudy::randomisation_name(randomisation))
      .make_config(runs);
}

/// EVT configuration scaled to the campaign size: ~40 block maxima.
inline mbpta::MbptaConfig analysis_mbpta(std::uint32_t runs) {
  mbpta::MbptaConfig config;
  config.block_size = mbpta::auto_block_size(runs);
  return config;
}

inline void print_header(const std::string& title) {
  std::printf("\n============================================================\n"
              "%s\n"
              "============================================================\n",
              title.c_str());
}

inline void print_summary_row(const char* label,
                              const mbpta::Summary& summary) {
  std::printf("%-22s %10.0f %12.1f %10.0f %10.1f\n", label, summary.min,
              summary.mean, summary.max, summary.stddev);
}

inline void print_summary_table_header() {
  std::printf("%-22s %10s %12s %10s %10s\n", "configuration", "min",
              "average", "MOET", "stddev");
}

/// Min-max of a per-run counter over a campaign.
template <typename Get>
std::pair<std::uint64_t, std::uint64_t>
counter_range(const casestudy::CampaignResult& result, Get get) {
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const casestudy::RunSample& sample : result.samples) {
    const std::uint64_t value = get(sample);
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  return {lo, hi};
}

inline std::string range_text(std::pair<std::uint64_t, std::uint64_t> range) {
  if (range.first == range.second) {
    return std::to_string(range.first);
  }
  return std::to_string(range.first) + "-" + std::to_string(range.second);
}

} // namespace proxima::bench
