#include "bench.hpp"

#include "casestudy/campaign_runner.hpp"
#include "exec/engine.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <limits>
#include <optional>

#include <sched.h>

namespace campaign_bench {

using proxima::casestudy::CampaignConfig;
using proxima::casestudy::CampaignResult;

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

void CpuRotation::pin(std::size_t step, unsigned count) const {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (unsigned i = 0; i < std::min<std::size_t>(count, cpus_.size()); ++i) {
    CPU_SET(cpus_[(step + i) % cpus_.size()], &mask);
  }
  sched_setaffinity(0, sizeof mask, &mask);
}

double fastest_build_seconds(const CampaignConfig& config, int builds,
                             const CpuRotation& cpus) {
  double fastest = std::numeric_limits<double>::infinity();
  for (int build = 0; build < builds; ++build) {
    cpus.pin(static_cast<std::size_t>(build), 1);
    std::optional<proxima::casestudy::CampaignRunner> runner;
    const Clock::time_point start = Clock::now();
    runner.emplace(config);
    fastest = std::min(fastest, seconds_since(start));
  }
  return fastest;
}

std::optional<double> engine_pass(const CampaignConfig& config,
                                  unsigned workers, OutputCheck& check,
                                  CampaignResult* keep) {
  proxima::exec::EngineOptions options;
  options.workers = workers;
  try {
    const proxima::exec::CampaignEngine engine(options);
    const Clock::time_point start = Clock::now();
    CampaignResult result = engine.run(config);
    const double seconds = seconds_since(start);
    const bool clean = check.pass(config.runs, result);
    if (keep != nullptr) {
      *keep = std::move(result);
    }
    return clean ? std::optional<double>(seconds) : std::nullopt;
  } catch (const std::exception& error) {
    check.threw(config.runs, error.what());
    return std::nullopt;
  }
}

void check_frozen_outputs(const Workload& workload, std::uint64_t seed,
                          OutputCheck& check) {
  if (seed == 0) {
    return; // every pass is already checked against the frozen digests
  }
  OutputCheck frozen(workload.frozen);
  engine_pass(make_config(workload, 0, workload.runs), workload.workers,
              frozen);
  check.absorb(frozen);
}

std::optional<double> store_cold_pass(const proxima::store::CampaignStore& store,
                                      const Workload& workload,
                                      const CampaignConfig& config,
                                      OutputCheck& check, Digests& digests) {
  proxima::exec::EngineOptions options;
  options.workers = workload.workers;
  try {
    std::filesystem::remove(store.cell_path(workload.scenario, config));
    proxima::store::StoreStats stats;
    const Clock::time_point start = Clock::now();
    const CampaignResult result =
        store.run(workload.scenario, config, options, &stats);
    const double seconds = seconds_since(start);
    digests = digests_of(result);
    if (!check.pass(config.runs, result)) {
      return std::nullopt;
    }
    if (stats.simulated_runs != config.runs) {
      check.record(0, config.runs, "cold store pass simulated " +
                                  std::to_string(stats.simulated_runs) +
                                  " of " + std::to_string(config.runs) +
                                  " runs");
      return std::nullopt;
    }
    return seconds;
  } catch (const std::exception& error) {
    check.threw(config.runs, error.what());
    return std::nullopt;
  }
}

std::optional<double> store_warm_pass(const proxima::store::CampaignStore& store,
                                      const Workload& workload,
                                      const CampaignConfig& config,
                                      OutputCheck& check, const Digests& cold) {
  proxima::exec::EngineOptions options;
  options.workers = workload.workers;
  try {
    proxima::store::StoreStats stats;
    const Clock::time_point start = Clock::now();
    const CampaignResult result =
        store.run(workload.scenario, config, options, &stats);
    const double seconds = seconds_since(start);
    return check.rerender(config.runs, result, stats.simulated_runs, cold)
               ? std::optional<double>(seconds)
               : std::nullopt;
  } catch (const std::exception& error) {
    check.threw(config.runs, error.what());
    return std::nullopt;
  }
}

} // namespace campaign_bench
