#include "engine.hpp"

#include "casestudy/campaign_runner.hpp"
#include "obs/timeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace proxima::exec {

namespace {

unsigned hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

using RunnerSlots = std::vector<std::unique_ptr<casestudy::CampaignRunner>>;

/// Per-worker wall-clock telemetry (observability only — gauge class, not
/// in the metrics digest).  Each worker writes its own slot; the engine
/// reads after the pool joins.  Accumulates across batches.
struct WorkerTelemetry {
  std::uint64_t runs = 0;
  double busy_us = 0.0;
};

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Shared campaign state the workers cooperate on.  One `CampaignJob` is
/// one pass over a shard queue; the campaign loop creates a job per batch
/// but the runner slots (and their platform instances) persist across
/// jobs.
struct CampaignJob {
  CampaignJob(const casestudy::CampaignConfig& config_in,
              const std::vector<ShardRange>& shards_in,
              casestudy::CampaignResult& result_in, ProgressMeter& meter_in,
              const SampleSink& sample_sink_in, RunnerSlots& runners_in,
              std::vector<WorkerTelemetry>* telemetry_in)
      : config(config_in), shards(shards_in), result(result_in),
        meter(meter_in), sample_sink(sample_sink_in), runners(runners_in),
        telemetry(telemetry_in) {}

  const casestudy::CampaignConfig& config;
  const std::vector<ShardRange>& shards;
  casestudy::CampaignResult& result;   // times/samples pre-sized
  ProgressMeter& meter;
  const SampleSink& sample_sink;       // persistence; completed shards only
  RunnerSlots& runners;                // one slot per worker, caller-owned
  std::vector<WorkerTelemetry>* telemetry; // null unless metrics are on

  std::atomic<std::size_t> next_shard{0};
  std::atomic<bool> fault{false};      // a worker threw

  std::mutex mutex; // guards sample-sink calls and the error slot
  std::exception_ptr error;

  /// Checked before claiming a shard AND before every run: a fault must
  /// stop the pool promptly, not after the queue drains.
  bool cancelled() const { return fault.load(std::memory_order_relaxed); }
};

/// One worker: own platform instance (slot-persistent), chunk-claiming loop.
void worker_main(CampaignJob& job, unsigned slot) {
  try {
    // The platform is built lazily: a worker that finds the queue already
    // drained never pays the program-build/link cost.
    std::unique_ptr<casestudy::CampaignRunner>& runner = job.runners[slot];
    while (!job.cancelled()) {
      const std::size_t shard_index =
          job.next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard_index >= job.shards.size()) {
        break;
      }
      if (!runner) {
        runner = std::make_unique<casestudy::CampaignRunner>(job.config);
      }
      const ShardRange shard = job.shards[shard_index];
      // Observability is fully gated: when neither tracing nor metrics are
      // on, the run loop takes no clock readings at all.
      obs::Timeline* const timeline = job.config.timeline;
      WorkerTelemetry* const telemetry =
          job.telemetry ? &(*job.telemetry)[slot] : nullptr;
      const bool timed = timeline != nullptr || telemetry != nullptr;
      // Per-run metric records buffered shard-locally for the sample sink:
      // the runner's record is overwritten every run, so a persistence
      // sink needs its own copy until the shard completes.
      std::vector<obs::MetricsShard> shard_metrics;
      const bool capture_metrics =
          static_cast<bool>(job.sample_sink) && job.config.collect_metrics;
      if (capture_metrics) {
        shard_metrics.reserve(static_cast<std::size_t>(shard.size()));
      }
      for (std::uint64_t index = shard.begin; index < shard.end; ++index) {
        if (job.cancelled()) {
          return; // cooperative stop mid-shard
        }
        std::chrono::steady_clock::time_point t0;
        double ts_us = 0.0;
        if (timed) {
          t0 = std::chrono::steady_clock::now();
          if (timeline != nullptr) {
            ts_us = timeline->now_us();
          }
        }
        const casestudy::RunSample sample = runner->run(index);
        if (timed) {
          const double dur_us = elapsed_us(t0);
          if (telemetry != nullptr) {
            ++telemetry->runs;
            telemetry->busy_us += dur_us;
          }
          if (timeline != nullptr) {
            timeline->record("engine", "worker-" + std::to_string(slot),
                             "run " + std::to_string(index), ts_us, dur_us);
          }
        }
        // Disjoint slots: no lock needed for the result vectors.
        job.result.times[index] = sample.uoa_cycles;
        job.result.samples[index] = sample;
        if (capture_metrics) {
          shard_metrics.push_back(runner->last_run_metrics());
        }
        job.meter.add(1);
      }
      if (job.sample_sink) {
        std::lock_guard<std::mutex> lock(job.mutex);
        job.sample_sink(shard,
                        std::span<const casestudy::RunSample>(
                            job.result.samples.data() + shard.begin,
                            static_cast<std::size_t>(shard.size())),
                        std::span<const obs::MetricsShard>(shard_metrics));
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.mutex);
    if (!job.error) {
      job.error = std::current_exception();
    }
    job.fault.store(true, std::memory_order_relaxed);
  }
}

/// Run one shard queue to completion on `workers` threads.  Throws the
/// first worker fault.
void execute_shards(const casestudy::CampaignConfig& config,
                    const std::vector<ShardRange>& shards, unsigned workers,
                    casestudy::CampaignResult& result, ProgressMeter& meter,
                    const SampleSink& sample_sink, RunnerSlots& runners,
                    std::vector<WorkerTelemetry>* telemetry) {
  CampaignJob job{config,      shards,  result,   meter,
                  sample_sink, runners, telemetry};
  if (workers == 1) {
    worker_main(job, 0); // no thread spawn for the sequential case
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back(worker_main, std::ref(job), w);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

/// Sum of golden-model verifications across the pool's runners.
std::uint64_t total_verified(const RunnerSlots& runners) {
  std::uint64_t verified = 0;
  for (const auto& runner : runners) {
    if (runner) {
      verified += runner->verified_runs();
    }
  }
  return verified;
}

/// Pass report + code size from any built runner (identical on every
/// worker: the build/link pipeline is deterministic for a given config).
/// When nothing executed — an empty campaign, or every run served from a
/// stored prefix — no worker built a platform, so one is built here: the
/// metadata must match a live run.
void fill_metadata(const casestudy::CampaignConfig& config,
                   const RunnerSlots& runners,
                   casestudy::CampaignResult& result) {
  for (const auto& runner : runners) {
    if (runner) {
      result.pass_report = runner->pass_report();
      result.code_bytes = runner->code_bytes();
      return;
    }
  }
  const casestudy::CampaignRunner runner(config);
  result.pass_report = runner.pass_report();
  result.code_bytes = runner.code_bytes();
}

/// Collection barrier: sum the runners' records with the stored prefix's,
/// name the sum together with the samples (casestudy::campaign_metrics),
/// and attach the engine's own wall-clock telemetry as gauges.  Runs
/// strictly after the pool has joined, so no record is still being
/// written; every name is built here, once per campaign.
void merge_metrics(const casestudy::CampaignConfig& config,
                   const RunnerSlots& runners, obs::MetricsShard& records,
                   const std::vector<WorkerTelemetry>& telemetry,
                   unsigned workers, double wall_us,
                   casestudy::CampaignResult& result) {
  for (const auto& runner : runners) {
    if (runner) {
      records.merge_from(runner->metrics());
    }
  }
  result.metrics =
      casestudy::campaign_metrics(config, result.samples, records);
  result.metrics.set_gauge("engine.workers", static_cast<double>(workers));
  result.metrics.set_gauge("engine.wall_seconds", wall_us / 1e6);
  for (std::size_t slot = 0; slot < telemetry.size(); ++slot) {
    const std::string prefix = "engine.worker" + std::to_string(slot) + ".";
    result.metrics.set_gauge(prefix + "runs",
                             static_cast<double>(telemetry[slot].runs));
    result.metrics.set_gauge(prefix + "busy_seconds",
                             telemetry[slot].busy_us / 1e6);
    // Time a worker spent NOT running measurements (queue claims, runner
    // construction, join skew) — the utilisation gap at a glance.
    result.metrics.set_gauge(
        prefix + "queue_wait_seconds",
        std::max(0.0, (wall_us - telemetry[slot].busy_us) / 1e6));
  }
}

/// Shape-check a stored prefix against the config it will replay under.
void validate_prefix(const casestudy::CampaignConfig& config,
                     const StoredPrefix& prefix) {
  if (!prefix.run_metrics.empty() &&
      prefix.run_metrics.size() != prefix.samples.size()) {
    throw std::invalid_argument(
        "stored prefix: run_metrics must be empty or match samples");
  }
  if (!prefix.verified.empty() &&
      prefix.verified.size() != prefix.samples.size()) {
    throw std::invalid_argument(
        "stored prefix: verified flags must be empty or match samples");
  }
  if (config.collect_metrics && !prefix.samples.empty() &&
      prefix.run_metrics.empty()) {
    throw std::invalid_argument(
        "stored prefix: the campaign collects metrics but the prefix "
        "carries no per-run metric records (stored without "
        "collect_metrics?)");
  }
}

/// Copy prefix runs [begin, end) into the result's slots.  No execution:
/// a stored sample IS the run's output (pure function of the index).
void splice_prefix(const StoredPrefix& prefix, std::uint64_t begin,
                   std::uint64_t end, casestudy::CampaignResult& result) {
  for (std::uint64_t index = begin; index < end; ++index) {
    const auto slot = static_cast<std::size_t>(index);
    result.samples[slot] = prefix.samples[slot];
    result.times[slot] = prefix.samples[slot].uoa_cycles;
  }
}

/// Collection-barrier bookkeeping for the consumed part of the prefix:
/// sum its per-run metric records into `records` (slot-by-slot sums
/// commute — the same totals direct accumulation would have produced) and
/// credit its golden-model verifications.
void merge_prefix(const casestudy::CampaignConfig& config,
                  const StoredPrefix& prefix, std::uint64_t consumed,
                  obs::MetricsShard& records,
                  casestudy::CampaignResult& result) {
  for (std::uint64_t index = 0; index < consumed; ++index) {
    const auto slot = static_cast<std::size_t>(index);
    if (config.collect_metrics) {
      records.merge_from(prefix.run_metrics[slot]);
    }
    if (!prefix.verified.empty() && prefix.verified[slot] != 0) {
      ++result.verified_runs;
    }
  }
}

} // namespace

CampaignEngine::CampaignEngine(EngineOptions options)
    : options_(std::move(options)) {}

CampaignEngine::Plan CampaignEngine::plan(std::uint64_t runs) const {
  const unsigned requested =
      options_.workers == 0 ? hardware_workers() : options_.workers;
  Plan plan;
  plan.shards = plan_shards(runs, requested);
  plan.workers = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(requested, plan.shards.size())));
  return plan;
}

unsigned CampaignEngine::resolved_workers(std::uint64_t runs) const {
  return plan(runs).workers;
}

casestudy::CampaignResult
CampaignEngine::grow(const casestudy::CampaignConfig& config,
                     std::uint64_t budget, std::uint64_t batch_runs,
                     mbpta::ConvergenceController* controller,
                     const StoredPrefix& prefix) const {
  validate_prefix(config, prefix);
  // Every batch executes against the same config so an adaptive stop at N
  // runs is bit-identical to a fixed N-run campaign; `runs` is the budget
  // so the runners' range check admits every batch index.
  casestudy::CampaignConfig run_config = config;
  run_config.runs = static_cast<std::uint32_t>(budget);

  casestudy::CampaignResult result;
  ProgressMeter meter(budget, options_.progress);
  RunnerSlots runners; // persist across batches, grown to the widest batch
  std::vector<WorkerTelemetry> telemetry; // likewise, accumulated
  unsigned widest_workers = 1;
  const std::uint64_t stored =
      std::min<std::uint64_t>(prefix.samples.size(), budget);
  const auto wall_start = std::chrono::steady_clock::now();

  for (std::uint64_t begin = 0; begin < budget; begin += batch_runs) {
    const std::uint64_t end = std::min(budget, begin + batch_runs);
    result.times.resize(static_cast<std::size_t>(end));
    result.samples.resize(static_cast<std::size_t>(end));

    // Stored runs fill their slots directly; only the batch's uncovered
    // tail executes — the controller below cannot tell the difference.
    const std::uint64_t covered = std::min(stored, end);
    if (covered > begin) {
      splice_prefix(prefix, begin, covered, result);
      meter.add(covered - begin);
    }
    const std::uint64_t exec_begin = std::max(begin, covered);
    if (exec_begin < end) {
      // Shard the executed tail only; the plan is deterministic and the
      // offsets put it at [exec_begin, end) of the global run-index space.
      Plan batch_plan = plan(end - exec_begin);
      for (ShardRange& shard : batch_plan.shards) {
        shard.begin += exec_begin;
        shard.end += exec_begin;
      }
      if (runners.size() < batch_plan.workers) {
        runners.resize(batch_plan.workers);
      }
      widest_workers = std::max(widest_workers, batch_plan.workers);
      if (config.collect_metrics && telemetry.size() < batch_plan.workers) {
        telemetry.resize(batch_plan.workers);
      }
      obs::Timeline* const batch_timeline =
          controller != nullptr ? config.timeline : nullptr;
      const double batch_ts_us =
          batch_timeline != nullptr ? batch_timeline->now_us() : 0.0;
      const auto batch_start = std::chrono::steady_clock::now();
      execute_shards(run_config, batch_plan.shards, batch_plan.workers,
                     result, meter, options_.sample_sink, runners,
                     config.collect_metrics ? &telemetry : nullptr);
      if (batch_timeline != nullptr) {
        batch_timeline->record(
            "engine", "batches",
            "batch " + std::to_string(begin / batch_runs) + " [" +
                std::to_string(exec_begin) + ", " + std::to_string(end) + ")",
            batch_ts_us, elapsed_us(batch_start));
      }
    }

    // Deterministic batch boundary: the controller sees this batch in
    // run-index order, exactly once, regardless of which worker completed
    // which shard when — the stop decision cannot depend on scheduling.
    if (controller != nullptr &&
        controller->add_batch(std::span<const double>(
            result.times.data() + begin,
            static_cast<std::size_t>(end - begin)))) {
      break;
    }
  }

  result.verified_runs = total_verified(runners);
  fill_metadata(run_config, runners, result);
  obs::MetricsShard records;
  merge_prefix(config, prefix,
               std::min<std::uint64_t>(stored, result.times.size()), records,
               result);
  if (config.collect_metrics) {
    merge_metrics(config, runners, records, telemetry, widest_workers,
                  elapsed_us(wall_start), result);
  }
  return result;
}

casestudy::CampaignResult
CampaignEngine::run(const casestudy::CampaignConfig& config,
                    const StoredPrefix& prefix) const {
  return grow(config, config.runs, config.runs, nullptr, prefix);
}

AdaptiveCampaignResult
CampaignEngine::run_adaptive(const casestudy::CampaignConfig& config,
                             const ConvergenceOptions& options,
                             const StoredPrefix& prefix) const {
  if (options.batch_runs == 0) {
    throw std::invalid_argument("run_adaptive: batch_runs must be >= 1");
  }
  const std::uint64_t budget =
      options.max_runs == 0 ? config.runs : options.max_runs;
  if (budget == 0) {
    throw std::invalid_argument(
        "run_adaptive: the campaign budget (max_runs or config.runs) must "
        "be >= 1");
  }
  if (budget > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "run_adaptive: the campaign budget exceeds CampaignConfig::runs' "
        "32-bit range");
  }

  AdaptiveCampaignResult out;
  mbpta::ConvergenceController controller(options.controller);
  out.campaign = grow(config, budget, options.batch_runs, &controller, prefix);
  out.converged = controller.converged();
  out.capped = !out.converged; // controller cap or budget exhaustion
  out.estimates = controller.estimates();
  // The loop stops only at batch boundaries or the budget.
  out.batches = static_cast<std::size_t>(
      (out.runs() + options.batch_runs - 1) / options.batch_runs);
  if (config.collect_metrics) {
    // The convergence trajectory is computed at deterministic batch
    // boundaries from deterministic samples: series class, in the digest.
    out.campaign.metrics.set_series("engine.pwcet_estimates", out.estimates);
    out.campaign.metrics.set_gauge("engine.batches",
                                   static_cast<double>(out.batches));
  }
  return out;
}

} // namespace proxima::exec
