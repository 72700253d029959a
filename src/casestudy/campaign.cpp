#include "campaign.hpp"

#include "casestudy/campaign_runner.hpp"
#include "rtos/hypervisor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace proxima::casestudy {

CampaignResult run_control_campaign(const CampaignConfig& config) {
  // Thin sequential wrapper over the per-run protocol: one runner, runs
  // executed in order.  `exec::CampaignEngine` shards the same protocol
  // across workers and produces bit-identical results (see
  // campaign_runner.hpp for the determinism contract).
  CampaignRunner runner(config);
  CampaignResult result;
  result.times.reserve(config.runs);
  result.samples.reserve(config.runs);
  for (std::uint32_t run = 0; run < config.runs; ++run) {
    const RunSample sample = runner.run(run);
    result.times.push_back(sample.uoa_cycles);
    result.samples.push_back(sample);
  }
  result.pass_report = runner.pass_report();
  result.code_bytes = runner.code_bytes();
  result.verified_runs = runner.verified_runs();
  if (config.collect_metrics) {
    result.metrics =
        campaign_metrics(config, result.samples, runner.metrics());
  }
  return result;
}

obs::MetricsSnapshot campaign_metrics(const CampaignConfig& config,
                                      std::span<const RunSample> samples,
                                      const obs::MetricsShard& records) {
  obs::MetricsSnapshot metrics;
  if (samples.empty()) {
    return metrics;
  }
  // mem.*: each sample's hierarchy counters are already a per-run window
  // (execute() resets them after the warm-up activation; hv runs cover the
  // whole schedule), summed here in PerfCounters::for_each order.
  std::vector<std::uint64_t> mem_totals;
  mem::PerfCounters{}.for_each(
      [&](const char*, std::uint64_t) { mem_totals.push_back(0); });
  // hv.<partition>.*: every sample lists the partitions in registration
  // order, so they are summed by position.  Every activation's nominal
  // grant is its whole minor frame.
  struct PartitionTotals {
    std::uint64_t activations = 0;
    std::uint64_t consumed_cycles = 0;
    std::uint64_t overruns = 0;
    obs::Histogram occupancy_pct;
  };
  std::vector<PartitionTotals> partitions(samples.front().partitions.size());
  const rtos::HypervisorConfig clock;
  const std::uint64_t frame_cycles =
      std::uint64_t{clock.minor_frame_ms} * clock.cycles_per_ms;
  std::uint64_t corrupt_runs = 0;
  obs::Histogram& uoa_cycles = metrics.histograms["time.uoa_cycles"];
  for (const RunSample& sample : samples) {
    if (sample.partitions.size() != partitions.size()) {
      throw std::invalid_argument(
          "campaign_metrics: the samples list different numbers of "
          "partitions");
    }
    corrupt_runs += sample.corrupt_input ? 1 : 0;
    // UoA and partition cycle counts are integers carried in doubles:
    // exact as u64.
    uoa_cycles.record(static_cast<std::uint64_t>(sample.uoa_cycles));
    std::size_t field = 0;
    sample.counters.for_each([&](const char*, std::uint64_t value) {
      mem_totals[field++] += value;
    });
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const PartitionActivity& activity = sample.partitions[p];
      PartitionTotals& totals = partitions[p];
      totals.activations += activity.cycles.size();
      totals.overruns += activity.overruns;
      for (const double cycles : activity.cycles) {
        const auto used = static_cast<std::uint64_t>(cycles);
        totals.consumed_cycles += used;
        totals.occupancy_pct.record(used * 100 / frame_cycles);
      }
    }
  }
  metrics.add("runs", samples.size());
  if (corrupt_runs != 0) {
    metrics.add("runs.corrupt_input", corrupt_runs);
  }
  std::size_t field = 0;
  mem::PerfCounters{}.for_each([&](const char* name, std::uint64_t) {
    metrics.add(std::string("mem.") + name, mem_totals[field++]);
  });
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const PartitionTotals& totals = partitions[p];
    if (totals.activations == 0) {
      continue;
    }
    const std::string prefix =
        "hv." + samples.front().partitions[p].partition + ".";
    metrics.add(prefix + "activations", totals.activations);
    metrics.add(prefix + "consumed_cycles", totals.consumed_cycles);
    metrics.add(prefix + "granted_cycles", totals.activations * frame_cycles);
    if (totals.overruns != 0) {
      metrics.add(prefix + "overruns", totals.overruns);
    }
    metrics.histograms[prefix + "frame_occupancy_pct"] = totals.occupancy_pct;
  }
  obs::name_slots(records,
                  obs::MetricsLayout{.dsr = uses_dsr(config.randomisation),
                                     .taint = config.taint},
                  metrics);
  return metrics;
}

std::vector<trace::PartitionSeries>
partition_series(std::span<const RunSample> samples) {
  std::vector<trace::PartitionSeries> series;
  for (const RunSample& sample : samples) {
    for (const PartitionActivity& activity : sample.partitions) {
      auto it = std::find_if(series.begin(), series.end(),
                             [&](const trace::PartitionSeries& s) {
                               return s.partition == activity.partition;
                             });
      if (it == series.end()) {
        series.push_back(trace::PartitionSeries{activity.partition, {}, 0});
        it = series.end() - 1;
      }
      it->cycles.insert(it->cycles.end(), activity.cycles.begin(),
                        activity.cycles.end());
      it->overruns += activity.overruns;
    }
  }
  return series;
}

} // namespace proxima::casestudy

