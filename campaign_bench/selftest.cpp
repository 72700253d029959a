// Self-tests of the benchmark's output checks: a check that never fails
// would let a broken program post a fast number.
#include "bench.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace campaign_bench {
namespace {

constexpr std::uint32_t kRuns = 12;

proxima::casestudy::CampaignConfig small_config(std::uint64_t seed) {
  return make_config(find_workload("control-dsr"), seed, kRuns);
}

// Relative to the working directory, like the benchmark's own files
// (run.py runs from the checkout root).
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(".bench_build/work/selftest") / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(OutputCheck, CleanPassCountsEveryRunAttemptedNoneFailed) {
  OutputCheck check(std::nullopt);
  ASSERT_TRUE(engine_pass(small_config(0), 1, check).has_value());
  EXPECT_EQ(check.attempted(), kRuns);
  EXPECT_EQ(check.failed(), 0U);
}

TEST(OutputCheck, WrongFrozenDigestFailsEveryRunOfThePass) {
  OutputCheck check(Digests{"0x0123456789abcdef", "0x0123456789abcdef"});
  EXPECT_FALSE(engine_pass(small_config(0), 1, check).has_value());
  EXPECT_EQ(check.attempted(), kRuns);
  EXPECT_EQ(check.failed(), kRuns);
  ASSERT_FALSE(check.errors().empty());
  EXPECT_NE(check.errors().front().find("differ"), std::string::npos);
}

TEST(OutputCheck, ThrowingRunFailsItsPass) {
  proxima::casestudy::CampaignConfig config = small_config(0);
  config.fault_at_run = 5;
  OutputCheck check(std::nullopt);
  EXPECT_FALSE(engine_pass(config, 2, check).has_value());
  EXPECT_EQ(check.attempted(), kRuns);
  EXPECT_EQ(check.failed(), kRuns);
  // A later clean pass adds attempted runs but no failures.
  EXPECT_TRUE(engine_pass(small_config(0), 1, check).has_value());
  EXPECT_EQ(check.attempted(), 2 * kRuns);
  EXPECT_EQ(check.failed(), kRuns);
}

TEST(OutputCheck, NonDefaultSeedComparesPassesWithEachOther) {
  const Workload& workload = find_workload("control-dsr");
  EXPECT_EQ(expected_digests(workload, 0), workload.frozen);
  ASSERT_FALSE(expected_digests(workload, 7).has_value());

  OutputCheck check(expected_digests(workload, 7));
  EXPECT_TRUE(engine_pass(small_config(7), 1, check).has_value());
  EXPECT_TRUE(engine_pass(small_config(7), 2, check).has_value());
  EXPECT_EQ(check.failed(), 0U);
  // A pass with other outputs disagrees with the first pass.
  EXPECT_FALSE(engine_pass(small_config(8), 1, check).has_value());
  EXPECT_EQ(check.attempted(), 3 * kRuns);
  EXPECT_EQ(check.failed(), kRuns);
}

TEST(OutputCheck, DefaultSeedIsCheckedAgainstTheFrozenDigests) {
  const Workload& workload = find_workload("control-dsr");
  // Another seed's outputs fail against the frozen digests.
  OutputCheck check(expected_digests(workload, 0));
  EXPECT_FALSE(
      engine_pass(make_config(workload, 7, workload.runs), 1, check)
          .has_value());
  EXPECT_EQ(check.failed(), workload.runs);
}

TEST(OutputCheck, EverySeedChecksTheFrozenDigestsOnce) {
  Workload stale = find_workload("control-dsr");
  stale.frozen = Digests{"0x0123456789abcdef", "0x0123456789abcdef"};
  OutputCheck check(expected_digests(stale, 7));
  check_frozen_outputs(stale, 7, check);
  EXPECT_EQ(check.attempted(), stale.runs);
  EXPECT_EQ(check.failed(), stale.runs);
  // At the default seed the timed passes do it themselves.
  OutputCheck default_seed(expected_digests(stale, 0));
  check_frozen_outputs(stale, 0, default_seed);
  EXPECT_EQ(default_seed.attempted(), 0U);
  // With the real digests the extra pass is clean.
  OutputCheck clean(std::nullopt);
  check_frozen_outputs(find_workload("control-dsr"), 7, clean);
  EXPECT_EQ(clean.attempted(), stale.runs);
  EXPECT_EQ(clean.failed(), 0U);
}

TEST(OutputCheck, FrozenDigestsMatchEveryWorkload) {
  for (const Workload& workload : workloads()) {
    OutputCheck check(expected_digests(workload, 0));
    EXPECT_TRUE(engine_pass(make_config(workload, 0, workload.runs),
                            workload.workers, check)
                    .has_value())
        << workload.name << ": "
        << (check.errors().empty() ? "" : check.errors().front());
    EXPECT_EQ(check.failed(), 0U) << workload.name;
  }
}

TEST(StoreRoundTrip, WarmPassSimulatesNothingAndMatchesTheColdPass) {
  const Workload& workload = find_workload("store-roundtrip");
  const auto config = make_config(workload, 0, kRuns);
  const proxima::store::CampaignStore store(scratch_dir("warm"));
  OutputCheck check(std::nullopt);
  Digests cold;
  ASSERT_TRUE(store_cold_pass(store, workload, config, check, cold));
  EXPECT_TRUE(store_warm_pass(store, workload, config, check, cold));
  EXPECT_EQ(check.attempted(), 2 * kRuns);
  EXPECT_EQ(check.failed(), 0U);
  std::filesystem::remove_all(store.root());
}

TEST(StoreRoundTrip, WarmPassThatSimulatesFails) {
  const Workload& workload = find_workload("store-roundtrip");
  const auto config = make_config(workload, 0, kRuns);
  const proxima::store::CampaignStore store(scratch_dir("simulates"));
  OutputCheck check(std::nullopt);
  Digests cold;
  ASSERT_TRUE(store_cold_pass(store, workload, config, check, cold));
  // Without its cell the "warm" pass has to simulate every run.
  std::filesystem::remove(store.cell_path(workload.scenario, config));
  EXPECT_FALSE(store_warm_pass(store, workload, config, check, cold));
  EXPECT_EQ(check.failed(), kRuns);
  std::filesystem::remove_all(store.root());
}

TEST(StoreRoundTrip, WarmPassWithOtherDigestsFails) {
  const Workload& workload = find_workload("store-roundtrip");
  const auto config = make_config(workload, 0, kRuns);
  const proxima::store::CampaignStore store(scratch_dir("digest"));
  OutputCheck check(std::nullopt);
  Digests cold;
  ASSERT_TRUE(store_cold_pass(store, workload, config, check, cold));
  Digests other = cold;
  other.times = "0x0000000000000001";
  EXPECT_FALSE(store_warm_pass(store, workload, config, check, other));
  EXPECT_EQ(check.failed(), kRuns);
  // The check itself: zero simulated runs is required even when the
  // digests agree.
  OutputCheck direct(std::nullopt);
  proxima::casestudy::CampaignResult result;
  result.times.assign(kRuns, 1.0);
  result.verified_runs = kRuns;
  EXPECT_FALSE(direct.rerender(kRuns, result, 1, digests_of(result)));
  EXPECT_TRUE(direct.rerender(kRuns, result, 0, digests_of(result)));
  EXPECT_EQ(direct.failed(), kRuns);
  std::filesystem::remove_all(store.root());
}

TEST(SpanRecorder, SelfTimesSumToTheRootWallTime) {
  SpanRecorder spans;
  const int root = spans.begin("bench.root");
  for (int run = 0; run < 3; ++run) {
    const ScopedSpan outer(spans, "casestudy.run", run);
    const ScopedSpan inner(spans, "casestudy.setup", run);
  }
  {
    const ScopedSpan probe(spans, "core.probe");
  }
  spans.end(root);
  const double wall = spans.spans()[0].duration_us();
  EXPECT_NEAR(spans.subtree_self_us(root), wall, 1e-6 * wall + 1e-9);
  for (const double self : spans.self_us()) {
    EXPECT_GE(self, -1e-9);
  }
  EXPECT_THROW(spans.end(root), std::logic_error);
}

} // namespace
} // namespace campaign_bench
