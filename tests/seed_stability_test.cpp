// Seed-stream stability: every pre-existing registry scenario's times
// digest is LOCKED to the value the tree produced before the
// measured-target refactor (PR 5).
//
// The measured-target abstraction moved the control task's input mirror
// and staging out of the campaign runner and re-keyed the hypervisor
// layout stream by task kind.  The whole point of the frozen
// `exec::derive_run_seed` / `derive_partition_seed` indices (control = 0,
// image = 1, stressor = 2 — per KIND, never per registration order or
// measured role) is that such refactors cannot shift any existing
// scenario's random streams: these digests were captured from the
// pre-refactor seed tree and must never change.  A failure here means a
// change silently re-keyed the seed derivation or reordered an RNG draw —
// re-baselining requires the same deliberate review as golden_pwcet_test.
//
// Digests are worker-count-invariant by the engine's sharding contract
// (exec_engine_test/exec_hv_test lock that separately); this suite runs
// each campaign through the engine at 4 workers, crossing shard
// boundaries, plus one adaptive spot-check.  A last table locks the
// metrics digest and corrupt-input count of every measured input path
// (pinned, replayed, re-flashed, fresh), which a times digest alone does
// not cover.
#include "exec/adaptive.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;

struct LockedDigest {
  const char* scenario;
  const char* digest;
};

/// All 17 pre-refactor scenarios at the default seeds (input 2017, layout
/// 611085), 30 measured runs.  Captured from commit b4d5870 (PR 4).
constexpr LockedDigest kDefaultSeeds30[] = {
    {"control/analysis-cots", "0xd25daac419e36cc5"},
    {"control/analysis-dsr", "0x8ffd60a0f8564259"},
    {"control/analysis-hwrand", "0x12dee3666df02be2"},
    {"control/analysis-static", "0x645a3dc2a2ad808e"},
    {"control/dsr-lazy", "0xb997f932a8aa5ee3"},
    {"control/layout-neutral", "0x232a04381dcf86e6"},
    {"control/offset-l1", "0x2564d9c310a9fde1"},
    {"control/operation-cots", "0xb540cda7ec8af25a"},
    {"control/operation-dsr", "0x121cfec29f10efba"},
    {"control/operation-hwrand", "0x9bedf9da834c2f71"},
    {"control/operation-static", "0x747f05f3455be9f7"},
    {"control/prng-lfsr", "0x7a0f26d73ff8f9d6"},
    {"control/stress-corrupt", "0x6a8f4d53daa78dc0"},
    {"hv/control+image", "0x996733f50572639d"},
    {"hv/control+image-dsr", "0x38f0d4f14dc20df6"},
    {"hv/control+stress", "0xb78f23e9c4a4e991"},
    {"hv/control-solo", "0xd25daac419e36cc5"},
};

/// The hypervisor family again at a NON-default seed (the CLI's --seed 7
/// mapping: input 7, layout splitmix64(7)), 24 runs — locks the
/// per-partition seed derivation itself, not just the default streams.
constexpr LockedDigest kSeed7Hv24[] = {
    {"hv/control+image", "0xcc8f5de6913d8d04"},
    {"hv/control+image-dsr", "0x32ae0901ff02e5c1"},
    {"hv/control+stress", "0x1ee8b3f666d40f55"},
    {"hv/control-solo", "0x18f7db57e7a25025"},
};

/// The leak/ scenario family (ISSUE 8), locked at introduction.  The
/// taint shadow machinery is observational by design: these digests must
/// be identical whether `CampaignConfig::taint` is on or off
/// (vm_differential_test locks that equivalence), and the beacon
/// partition's frozen seed index (3, per kind) means new measured targets
/// cannot shift them.
constexpr LockedDigest kLeakDefaultSeeds30[] = {
    {"leak/beacon-cots", "0x642db0bd273adfc5"},
    {"leak/beacon-dsr", "0xade9ecaa3d3c4fb9"},
    {"leak/hardened-dsr", "0x1f9d82ae84734b4e"},
    {"leak/observer-hv", "0xa73dfd15f384d424"},
};

/// The remaining registry scenarios — the image/ family and the
/// image-measured hypervisor pair — locked later, completing digest
/// coverage of the whole catalogue.  The cores' bit-identity contract
/// (vm_differential_test) makes these equally the `fast` and `reference`
/// digests.
constexpr LockedDigest kImageFamilyDefaultSeeds30[] = {
    {"hv/image+control", "0xeae6d549b6108787"},
    {"hv/image+control-dsr", "0xb23d5f5923688e88"},
    {"image/analysis-cots", "0x9b2905c8484b2295"},
    {"image/analysis-dsr", "0x175aff333fdbf5d3"},
    {"image/analysis-hwrand", "0x435a5da5446f5217"},
    {"image/operation-cots", "0xf812944f94a29a24"},
    {"image/operation-dsr", "0xc52a219b5df60291"},
    {"image/operation-hwrand", "0xe8db53a24b9276c9"},
};

/// The on-demand reseed arm (ISSUE 10), locked at introduction.  Note
/// control/dsr-ondemand's digest equals control/operation-dsr's: the
/// control task never stores to an observable sink, so the armed trigger
/// never fires and the arm prices only the (timing-invisible) machinery.
/// The beacon and hv scenarios DO fire mid-run reseeds; their digests lock
/// the quarantine semantics and the reseed draw order.
constexpr LockedDigest kOnDemandDefaultSeeds30[] = {
    {"control/dsr-ondemand", "0x121cfec29f10efba"},
    {"hv/control+image-ondemand", "0xfc31a6cfe6c3f753"},
    {"leak/beacon-ondemand", "0x446dd61db53040a4"},
};

/// Every input path of the measured target, locked by what the times
/// digest cannot see: the metrics digest (which carries the corrupt-input
/// counter and, with taint on, the `leak.*` family) and the number of runs
/// labelled corrupt.  30 runs, 4 workers, metrics on, default seeds.
struct LockedInputPath {
  const char* scenario;
  bool taint;
  const char* metrics_digest;
  std::size_t corrupt_runs;
};

constexpr LockedInputPath kInputPathsDefaultSeeds30[] = {
    // streamed replay across shard skips
    {"control/operation-dsr", false, "0xb0e4f8d02f68b988", 4},
    // pinned inputs, stateful task
    {"control/analysis-dsr", false, "0x5f5a294c65eaa067", 30},
    // re-flash restart every run
    {"control/operation-static", false, "0x9ef62df46461eaea", 4},
    // re-flash restart with pinned inputs
    {"control/analysis-static", false, "0xf0c160aa95362a1e", 30},
    // stateless task, a fresh draw every run
    {"image/operation-cots", false, "0x10a0cb9b0cf1d470", 0},
    // pinned frame
    {"image/analysis-dsr", false, "0x1291ac53b7bc92c0", 0},
    // taint sinks from the task's observable symbols
    {"leak/beacon-dsr", true, "0x7925e64205c051b8", 0},
    // mid-run reseeds; the arm forces taint tracking on, yet publishes no
    // leak.* family because the campaign did not ask for it
    {"leak/beacon-ondemand", false, "0x1ca834ab1b00e085", 0},
    // lazy relocation: the only scenario with nonzero dsr.lazy_*
    {"control/dsr-lazy", false, "0xaf910bdd59de7ac4", 4},
};

CampaignConfig scenario(const std::string& name, std::uint32_t runs) {
  return exec::ScenarioRegistry::global().at(name).make_config(runs);
}

std::string engine_digest(const CampaignConfig& config) {
  exec::EngineOptions options;
  options.workers = 4;
  const CampaignResult result = exec::CampaignEngine(options).run(config);
  return trace::times_digest_hex(result.times);
}

TEST(SeedStreamStability, DefaultSeedDigestsAreLocked) {
  for (const LockedDigest& locked : kDefaultSeeds30) {
    EXPECT_EQ(engine_digest(scenario(locked.scenario, 30)), locked.digest)
        << locked.scenario;
  }
}

TEST(SeedStreamStability, ImageFamilyDigestsAreLocked) {
  for (const LockedDigest& locked : kImageFamilyDefaultSeeds30) {
    EXPECT_EQ(engine_digest(scenario(locked.scenario, 30)), locked.digest)
        << locked.scenario;
  }
}

TEST(SeedStreamStability, LeakFamilyDigestsAreLocked) {
  for (const LockedDigest& locked : kLeakDefaultSeeds30) {
    EXPECT_EQ(engine_digest(scenario(locked.scenario, 30)), locked.digest)
        << locked.scenario;
  }
}

TEST(SeedStreamStability, LeakDigestsUnchangedByTaintShadow) {
  // The whole secrecy argument rests on the taint machinery being
  // invisible to the measurement: same digest with the shadow on.
  for (const LockedDigest& locked : kLeakDefaultSeeds30) {
    CampaignConfig config = scenario(locked.scenario, 30);
    config.taint = true;
    EXPECT_EQ(engine_digest(config), locked.digest) << locked.scenario;
  }
}

TEST(SeedStreamStability, OnDemandFamilyDigestsAreLocked) {
  for (const LockedDigest& locked : kOnDemandDefaultSeeds30) {
    EXPECT_EQ(engine_digest(scenario(locked.scenario, 30)), locked.digest)
        << locked.scenario;
  }
  // The armed-but-silent arm must price exactly like plain eager DSR.
  EXPECT_EQ(engine_digest(scenario("control/dsr-ondemand", 30)),
            engine_digest(scenario("control/operation-dsr", 30)));
}

TEST(SeedStreamStability, MeasuredInputPathsAreLocked) {
  exec::EngineOptions options;
  options.workers = 4;
  for (const LockedInputPath& locked : kInputPathsDefaultSeeds30) {
    CampaignConfig config = scenario(locked.scenario, 30);
    config.collect_metrics = true;
    config.taint = locked.taint;
    const CampaignResult result = exec::CampaignEngine(options).run(config);
    std::size_t corrupt_runs = 0;
    for (const casestudy::RunSample& sample : result.samples) {
      corrupt_runs += sample.corrupt_input ? 1 : 0;
    }
    EXPECT_EQ(obs::metrics_digest_hex(result.metrics), locked.metrics_digest)
        << locked.scenario;
    EXPECT_EQ(corrupt_runs, locked.corrupt_runs) << locked.scenario;
  }
}

TEST(SeedStreamStability, HvPartitionStreamsAreLockedAtSeed7) {
  for (const LockedDigest& locked : kSeed7Hv24) {
    CampaignConfig config = scenario(locked.scenario, 24);
    config.input_seed = 7;
    config.layout_seed = exec::splitmix64_mix(7);
    EXPECT_EQ(engine_digest(config), locked.digest) << locked.scenario;
  }
}

TEST(SeedStreamStability, AdaptiveCampaignsShareTheLockedStreams) {
  // An adaptive campaign that exhausts its budget must walk exactly the
  // fixed campaign's run sequence — so the locked fixed digest covers the
  // adaptive path too.
  exec::ConvergenceOptions convergence;
  convergence.batch_runs = 10;
  convergence.max_runs = 30;
  convergence.controller.target_exceedance = 1e-12;
  convergence.controller.epsilon = 1e-9; // never converges in 30 runs
  convergence.controller.stable_rounds = 3;
  convergence.controller.min_samples = 30;
  convergence.controller.mbpta.block_size = 10;
  exec::EngineOptions options;
  options.workers = 4;
  const exec::AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(options).run_adaptive(
          scenario("hv/control+image", 30), convergence);
  EXPECT_EQ(adaptive.campaign.times.size(), 30u);
  EXPECT_EQ(trace::times_digest_hex(adaptive.campaign.times),
            "0x996733f50572639d");
}

} // namespace
