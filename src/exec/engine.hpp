// Parallel campaign execution engine.
//
// Shards a `CampaignConfig`'s measured runs across N workers.  Each worker
// owns a fully isolated platform instance (guest memory + cache hierarchy
// + VM + trace buffer + DSR runtime) wrapped in a
// `casestudy::CampaignRunner`, and claims contiguous chunks of run indices
// from a shared queue.  Because every run's randomness is derived from
// (seed, stream, activation index) — see exec/seed.hpp — the assembled
// `CampaignResult.times`/`samples` are bit-identical to the sequential
// `run_control_campaign` regardless of worker count or scheduling order.
//
// A fixed campaign and an adaptive one are the same loop: the campaign
// grows in batches, each batch sharded across the pool and reassembled in
// run-index order.  A fixed N-run campaign is that loop's single batch
// [0, N); an adaptive one feeds every batch to an
// `mbpta::ConvergenceController` and stops where it converges.  Completed
// shards can be persisted through a sample sink while the campaign is
// still running, and a progress callback reports the running
// completed/total counts.
//
// A worker fault cancels the campaign: workers re-check a fault flag
// before claiming a shard AND before every run inside a shard, so the pool
// stops promptly instead of letting healthy workers drain the remaining
// queue, and the fault is rethrown.
#pragma once

#include "casestudy/campaign.hpp"
#include "exec/adaptive.hpp"
#include "exec/progress.hpp"
#include "exec/shard.hpp"
#include "obs/metrics.hpp"

#include <cstdint>
#include <functional>
#include <span>

namespace proxima::exec {

/// Streaming per-shard persistence (the campaign store): invoked once per
/// COMPLETED shard with the shard's full `RunSample`s in run-index order,
/// plus — when the campaign collects metrics — the per-run metric records
/// the runner published beside each sample (`run_metrics[i]` belongs to
/// run `range.begin + i`; the span is empty otherwise).  Calls are serialised
/// by the engine.  A shard interrupted by a fault is never emitted, so
/// everything a sink persists is a valid contiguous record of the runs it
/// covers — the property that makes resume-from-prefix sound.
using SampleSink =
    std::function<void(const ShardRange& range,
                       std::span<const casestudy::RunSample> samples,
                       std::span<const obs::MetricsShard> run_metrics)>;

/// An already-materialised prefix of a campaign (from the on-disk store):
/// samples for run indices [0, samples.size()).  `run_metrics` is empty or
/// holds one per-run metric record per sample (required when the replayed
/// config collects metrics); `verified` is empty or holds one golden-model
/// verification flag per sample.  Because every run is a pure function of
/// its index, splicing a stored prefix in front of freshly executed
/// remainder runs reproduces the uninterrupted campaign bit-for-bit.
struct StoredPrefix {
  std::span<const casestudy::RunSample> samples;
  std::span<const obs::MetricsShard> run_metrics;
  std::span<const std::uint8_t> verified;
};

struct EngineOptions {
  /// Worker threads; 0 picks the hardware concurrency.  The effective
  /// count never exceeds the number of planned shards.
  unsigned workers = 0;
  ProgressFn progress;    // optional completed/total callback
  SampleSink sample_sink; // optional streaming persistence (campaign store)
};

class CampaignEngine {
public:
  explicit CampaignEngine(EngineOptions options = {});

  /// Execute the campaign across the configured workers.  Rethrows the
  /// first worker fault (functional mismatch, platform fault) after all
  /// workers have stopped — promptly: the fault cancels the pool, it does
  /// not wait for the queue to drain.
  ///
  /// Runs [0, n) of a stored `prefix` (n = min(prefix size, config.runs))
  /// are spliced in without executing, their per-run metric records and
  /// verification flags summed in at the collection barrier; only [n,
  /// runs) executes, and only it reaches the sample_sink.  The result is
  /// bit-identical to an uninterrupted campaign at any worker count.
  casestudy::CampaignResult run(const casestudy::CampaignConfig& config,
                                const StoredPrefix& prefix = {}) const;

  /// Execute the campaign adaptively: grow in `options.batch_runs`-sized
  /// batches, feed each completed batch (in run-index order) to an
  /// `mbpta::ConvergenceController`, and stop at the first batch boundary
  /// where the controller reports completion — convergence or its
  /// non-convergence cap — or at the `max_runs` budget.  `config.runs` is
  /// ignored except as the default budget (see ConvergenceOptions).
  /// Deterministic: for a given config + options the result is
  /// bit-identical at any worker count, and equal to a fixed campaign of
  /// the same length.  Per-worker platforms persist across batches, so
  /// growing costs no extra program builds.
  ///
  /// A batch a stored `prefix` covers is replayed into the controller
  /// without executing anything; a batch it covers in part executes only
  /// its tail.  The controller sees the same batches at the same
  /// boundaries, so the stop decision — and therefore the final length,
  /// estimates, and digests — matches the uninterrupted campaign.  Prefix
  /// samples beyond the stop are left unconsumed.
  AdaptiveCampaignResult run_adaptive(const casestudy::CampaignConfig& config,
                                      const ConvergenceOptions& options,
                                      const StoredPrefix& prefix = {}) const;

  /// The worker count `run` would use for a campaign of `runs` runs.
  unsigned resolved_workers(std::uint64_t runs) const;

  const EngineOptions& options() const noexcept { return options_; }

private:
  struct Plan {
    std::vector<ShardRange> shards;
    unsigned workers = 1;
  };
  Plan plan(std::uint64_t runs) const;

  /// The one campaign loop behind `run` and `run_adaptive`: grow [0,
  /// budget) in `batch_runs` extents, splicing what `prefix` covers and
  /// executing the rest across the pool.  With a controller, every extent
  /// is fed to it in run-index order, the loop stops where it reports
  /// completion, and each executed extent leaves an `engine`/`batches`
  /// timeline span.
  casestudy::CampaignResult grow(const casestudy::CampaignConfig& config,
                                 std::uint64_t budget,
                                 std::uint64_t batch_runs,
                                 mbpta::ConvergenceController* controller,
                                 const StoredPrefix& prefix) const;

  EngineOptions options_;
};

} // namespace proxima::exec
