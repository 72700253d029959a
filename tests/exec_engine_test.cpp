// Tests for the parallel campaign execution engine: seed derivation,
// deterministic sharding, and — the core property — bit-identical results
// between the sequential campaign and the N-worker engine for every
// randomisation technology.
#include "casestudy/campaign.hpp"
#include "casestudy/campaign_runner.hpp"
#include "exec/engine.hpp"
#include "exec/seed.hpp"
#include "exec/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <stop_token>
#include <vector>

namespace {

using namespace proxima;
using namespace proxima::casestudy;

// ---------------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------------

TEST(SeedDerivation, IsPureAndConstexpr) {
  static_assert(exec::derive_run_seed(2017, exec::SeedStream::kInput, 0) ==
                exec::derive_run_seed(2017, exec::SeedStream::kInput, 0));
  EXPECT_EQ(exec::derive_run_seed(611085, exec::SeedStream::kLayout, 42),
            exec::derive_run_seed(611085, exec::SeedStream::kLayout, 42));
}

TEST(SeedDerivation, SeparatesStreamsRunsAndBases) {
  const std::uint64_t base = 2017;
  std::set<std::uint64_t> seen;
  for (std::uint64_t run = 0; run < 1000; ++run) {
    seen.insert(exec::derive_run_seed(base, exec::SeedStream::kInput, run));
    seen.insert(exec::derive_run_seed(base, exec::SeedStream::kLayout, run));
    seen.insert(
        exec::derive_run_seed(base + 1, exec::SeedStream::kInput, run));
  }
  EXPECT_EQ(seen.size(), 3000u) << "derived seeds must not collide";
}

// ---------------------------------------------------------------------------
// Shard planning.
// ---------------------------------------------------------------------------

void expect_valid_plan(const std::vector<exec::ShardRange>& plan,
                       std::uint64_t runs) {
  std::uint64_t expected_begin = 0;
  for (const exec::ShardRange& shard : plan) {
    EXPECT_EQ(shard.begin, expected_begin) << "ascending and gap-free";
    EXPECT_LT(shard.begin, shard.end) << "no empty shards";
    expected_begin = shard.end;
  }
  EXPECT_EQ(expected_begin, runs) << "plan must cover [0, runs)";
}

TEST(PlanShards, CoversDisjointAscending) {
  for (std::uint64_t runs : {1u, 7u, 100u, 1000u, 1001u}) {
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      expect_valid_plan(exec::plan_shards(runs, workers), runs);
    }
  }
}

TEST(PlanShards, EmptyCampaign) {
  EXPECT_TRUE(exec::plan_shards(0, 4).empty());
}

TEST(PlanShards, FewerRunsThanWorkers) {
  const auto plan = exec::plan_shards(3, 8);
  expect_valid_plan(plan, 3);
  EXPECT_EQ(plan.size(), 3u) << "one run per shard when runs < workers";
}

TEST(PlanShards, OversubscribesForStealing) {
  const auto plan = exec::plan_shards(1000, 4);
  expect_valid_plan(plan, 1000);
  EXPECT_GT(plan.size(), 4u) << "several chunks per worker";
}

TEST(PlanShards, ZeroWorkersThrows) {
  EXPECT_THROW(exec::plan_shards(10, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine vs sequential: bit-identical campaigns.
// ---------------------------------------------------------------------------

CampaignConfig small_config(Randomisation randomisation, std::uint32_t runs) {
  CampaignConfig config;
  config.runs = runs;
  config.randomisation = randomisation;
  return config;
}

exec::EngineOptions worker_options(unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  return options;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    EXPECT_EQ(a.times[i], b.times[i]) << "run " << i;
  }
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_TRUE(a.samples[i] == b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.code_bytes, b.code_bytes);
  EXPECT_EQ(a.verified_runs, b.verified_runs);
}

class EngineDeterminism
    : public ::testing::TestWithParam<Randomisation> {};

TEST_P(EngineDeterminism, ParallelMatchesSequential) {
  const CampaignConfig config = small_config(GetParam(), 9);
  const CampaignResult sequential = run_control_campaign(config);
  ASSERT_EQ(sequential.times.size(), 9u);

  // 4 workers over single-run shards: every worker crosses shard
  // boundaries and replays the input stream across skips.
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(4)).run(config);
  expect_identical(sequential, parallel);

  // 1 worker through the engine path must match too.
  const CampaignResult single =
      exec::CampaignEngine(worker_options(1)).run(config);
  expect_identical(sequential, single);
}

INSTANTIATE_TEST_SUITE_P(AllRandomisations, EngineDeterminism,
                         ::testing::Values(Randomisation::kNone,
                                           Randomisation::kDsr,
                                           Randomisation::kStatic,
                                           Randomisation::kHardware),
                         [](const auto& info) {
                           switch (info.param) {
                           case Randomisation::kNone: return "cots";
                           case Randomisation::kDsr: return "dsr";
                           case Randomisation::kDsrOnDemand:
                             return "dsr_ondemand";
                           case Randomisation::kStatic: return "static";
                           case Randomisation::kHardware: return "hwrand";
                           }
                           return "unknown";
                         });

TEST(CampaignEngine, AnalysisProtocolDeterminism) {
  // Pinned stress input (MBPTA conditions): the fixed_inputs replay path.
  CampaignConfig config = small_config(Randomisation::kDsr, 8);
  config.fixed_inputs = true;
  config.control.corrupt_rate = 1.0;
  const CampaignResult sequential = run_control_campaign(config);
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(3)).run(config);
  expect_identical(sequential, parallel);
  for (const RunSample& sample : parallel.samples) {
    EXPECT_TRUE(sample.corrupt_input) << "stress input pins the recovery path";
  }
}

TEST(CampaignEngine, FewerRunsThanWorkers) {
  const CampaignConfig config = small_config(Randomisation::kNone, 3);
  const CampaignResult sequential = run_control_campaign(config);
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(8)).run(config);
  expect_identical(sequential, parallel);
}

TEST(CampaignEngine, EmptyCampaign) {
  const CampaignConfig config = small_config(Randomisation::kDsr, 0);
  const CampaignResult sequential = run_control_campaign(config);
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(4)).run(config);
  EXPECT_TRUE(parallel.times.empty());
  EXPECT_TRUE(parallel.samples.empty());
  EXPECT_EQ(parallel.code_bytes, sequential.code_bytes);
  EXPECT_GT(parallel.code_bytes, 0u) << "platform is still built";
  EXPECT_EQ(parallel.verified_runs, 0u);
}

TEST(CampaignEngine, ProgressAndSampleSink) {
  const CampaignConfig config = small_config(Randomisation::kNone, 7);
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
  std::vector<exec::ShardRange> sunk_ranges;
  std::size_t sunk_samples = 0;

  exec::EngineOptions options = worker_options(2);
  options.progress = [&](std::uint64_t done, std::uint64_t total) {
    std::lock_guard<std::mutex> lock(mutex);
    progress.emplace_back(done, total);
  };
  options.sample_sink = [&](const exec::ShardRange& range,
                            std::span<const RunSample> samples,
                            std::span<const obs::MetricsShard> run_metrics) {
    sunk_ranges.push_back(range); // sink calls are serialised by the engine
    sunk_samples += samples.size();
    EXPECT_TRUE(run_metrics.empty()) << "metrics are off";
  };
  const CampaignResult result = exec::CampaignEngine(options).run(config);
  ASSERT_EQ(result.times.size(), 7u);

  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress.back().first, 7u) << "final progress: all runs done";
  for (const auto& [done, total] : progress) {
    EXPECT_EQ(total, 7u);
    EXPECT_LE(done, total);
  }

  // The sunk shards partition [0, 7) and carry every sample exactly once.
  EXPECT_EQ(sunk_samples, 7u);
  std::sort(sunk_ranges.begin(), sunk_ranges.end(),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });
  expect_valid_plan(sunk_ranges, 7);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

TEST(CampaignEngine, FaultCancelsTheRestOfThePoolPromptly) {
  // A poisoned scenario: the runner throws while setting up run 0.  The
  // fault must cancel the whole pool — healthy workers stop at their next
  // per-run check instead of draining every remaining shard before the
  // rethrow.
  CampaignConfig config = small_config(Randomisation::kNone, 400);
  config.fault_at_run = 0;

  exec::EngineOptions options = worker_options(4);
  std::mutex mutex;
  std::uint64_t completed = 0;
  options.progress = [&](std::uint64_t done, std::uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    completed = std::max(completed, done);
  };
  EXPECT_THROW(exec::CampaignEngine(options).run(config), std::runtime_error);
  // Generous bound: each healthy worker may finish the run it is on plus
  // at most one claimed shard's worth before observing the fault, nowhere
  // near the 400-run campaign the old code would have drained.
  EXPECT_LT(completed, 200u)
      << "healthy workers drained the queue after the fault";
}

TEST(CampaignEngine, FaultInjectionAlsoFaultsSequentialCampaigns) {
  CampaignConfig config = small_config(Randomisation::kNone, 4);
  config.fault_at_run = 2;
  EXPECT_THROW(run_control_campaign(config), std::runtime_error);
  EXPECT_THROW(exec::CampaignEngine(worker_options(1)).run(config),
               std::runtime_error);
}

TEST(CampaignEngine, ExternalStopTokenCancelsBeforeAnyRun) {
  std::stop_source source;
  source.request_stop(); // fired before the campaign starts

  exec::EngineOptions options = worker_options(4);
  options.stop = source.get_token();
  std::mutex mutex;
  std::uint64_t completed = 0;
  options.progress = [&](std::uint64_t done, std::uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    completed = std::max(completed, done);
  };
  const CampaignConfig config = small_config(Randomisation::kNone, 50);
  EXPECT_THROW(exec::CampaignEngine(options).run(config),
               exec::CampaignCancelled);
  EXPECT_EQ(completed, 0u) << "workers must not claim work after the stop";
}

TEST(CampaignEngine, ExternalStopTokenCancelsMidCampaign) {
  std::stop_source source;
  exec::EngineOptions options = worker_options(2);
  options.stop = source.get_token();
  options.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 3) {
      source.request_stop();
    }
  };
  const CampaignConfig config = small_config(Randomisation::kNone, 60);
  EXPECT_THROW(exec::CampaignEngine(options).run(config),
               exec::CampaignCancelled);
}

TEST(CampaignEngine, UnfiredStopTokenLeavesResultsIdentical) {
  const CampaignConfig config = small_config(Randomisation::kDsr, 6);
  std::stop_source source; // never fired
  exec::EngineOptions options = worker_options(3);
  options.stop = source.get_token();
  const CampaignResult with_token = exec::CampaignEngine(options).run(config);
  const CampaignResult without =
      exec::CampaignEngine(worker_options(3)).run(config);
  expect_identical(with_token, without);
}

TEST(CampaignEngine, ResolvedWorkersClampsToShards) {
  exec::CampaignEngine engine(worker_options(8));
  EXPECT_EQ(engine.resolved_workers(3), 3u);
  EXPECT_EQ(engine.resolved_workers(0), 1u);
  EXPECT_EQ(engine.resolved_workers(1000), 8u);
}

// ---------------------------------------------------------------------------
// CampaignRunner stage API.
// ---------------------------------------------------------------------------

TEST(CampaignRunner, RejectsOutOfRangeAndNonAscendingIndices) {
  CampaignRunner runner(small_config(Randomisation::kNone, 4));
  EXPECT_THROW(runner.setup(4), std::invalid_argument);
  runner.setup(1);
  runner.execute();
  (void)runner.collect();
  EXPECT_THROW(runner.setup(1), std::invalid_argument);
  EXPECT_THROW(runner.setup(0), std::invalid_argument);
  EXPECT_NO_THROW(runner.setup(3)); // skipping forward is allowed
}

TEST(CampaignRunner, StagesMustFollowSetup) {
  CampaignRunner runner(small_config(Randomisation::kNone, 2));
  EXPECT_THROW(runner.execute(), std::logic_error);
  EXPECT_THROW(runner.collect(), std::logic_error);
  runner.setup(0);
  EXPECT_THROW(runner.collect(), std::logic_error) << "not yet executed";
  runner.execute();
  const RunSample sample = runner.collect();
  EXPECT_GT(sample.uoa_cycles, 0.0);
  EXPECT_EQ(runner.verified_runs(), 1u);
}

TEST(CampaignRunner, SparseIndicesMatchDenseExecution) {
  // A worker that owns a sparse ascending subset must reproduce exactly
  // the runs a dense execution produces at those indices.
  const CampaignConfig config = small_config(Randomisation::kDsr, 8);
  const CampaignResult dense = run_control_campaign(config);

  CampaignRunner sparse(config);
  for (std::uint64_t index : {1ull, 2ull, 5ull, 7ull}) {
    const RunSample sample = sparse.run(index);
    EXPECT_EQ(sample.uoa_cycles, dense.times[index]) << "run " << index;
    EXPECT_TRUE(sample == dense.samples[index]) << "run " << index;
  }
}

} // namespace
