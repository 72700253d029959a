// Tests for hypervisor campaigns: the hv/ scenario family measures the
// control task on the partitioned platform (cyclic schedule, guest
// interference) through the same engine machinery as the bare scenarios —
// so the determinism contract (bit-identical results at any worker count,
// fixed and adaptive) must hold for them unchanged, and hv/control-solo
// must reproduce the bare analysis protocol exactly.
#include "casestudy/campaign.hpp"
#include "casestudy/campaign_runner.hpp"
#include "casestudy/measured_target.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "isa/linker.hpp"
#include "mem/guest_memory.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;
using casestudy::PartitionActivity;
using casestudy::RunSample;
using casestudy::run_control_campaign;

CampaignConfig scenario(const std::string& name, std::uint32_t runs) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  return registry.at(name).make_config(runs);
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
    // Covers the per-partition activity too (defaulted equality).
    EXPECT_TRUE(a.samples[i] == b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.verified_runs, b.verified_runs);
}

TEST(HvScenarios, FamilyIsRegistered) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  const std::vector<std::string> hv = registry.names("hv/");
  EXPECT_EQ(hv.size(), 7u);
  EXPECT_TRUE(registry.contains("hv/control-solo"));
  EXPECT_TRUE(registry.contains("hv/control+image"));
  EXPECT_TRUE(registry.contains("hv/control+image-dsr"));
  EXPECT_TRUE(registry.contains("hv/control+stress"));
  // The image-measured variants (measured-partition selection); their
  // behaviour is covered by measured_target_test.
  EXPECT_TRUE(registry.contains("hv/image+control"));
  EXPECT_TRUE(registry.contains("hv/image+control-dsr"));
  EXPECT_TRUE(registry.contains("hv/control+image-ondemand"));
}

TEST(HvScenarios, SoloReproducesTheBareAnalysisProtocol) {
  // The schedule's partition-start L1 flush plus the runner's warm-up is
  // exactly the bare protocol when no guest runs before the measured
  // activation: the solo scenario must be bit-identical to the bare
  // analysis campaign, making the solo-vs-guest delta pure interference.
  const CampaignResult solo =
      run_control_campaign(scenario("hv/control-solo", 5));
  const CampaignResult bare =
      run_control_campaign(scenario("control/analysis-cots", 5));
  ASSERT_EQ(solo.times.size(), bare.times.size());
  for (std::size_t i = 0; i < solo.times.size(); ++i) {
    EXPECT_EQ(solo.times[i], bare.times[i]) << "run " << i;
  }
}

TEST(HvScenarios, GuestInterferenceShiftsTheControlTask) {
  const CampaignResult solo =
      run_control_campaign(scenario("hv/control-solo", 4));
  const CampaignResult image =
      run_control_campaign(scenario("hv/control+image", 4));
  const CampaignResult stress =
      run_control_campaign(scenario("hv/control+stress", 4));
  const double solo_max =
      *std::max_element(solo.times.begin(), solo.times.end());
  const double image_min =
      *std::min_element(image.times.begin(), image.times.end());
  const double stress_min =
      *std::min_element(stress.times.begin(), stress.times.end());
  EXPECT_GT(image_min, solo_max)
      << "the image guest's L2 evictions must slow the control task";
  EXPECT_GT(stress_min, solo_max)
      << "the stressor guest's L2 evictions must slow the control task";
}

TEST(HvScenarios, PartitionActivityIsRecordedPerRun) {
  const CampaignConfig config = scenario("hv/control+image", 3);
  const CampaignResult result = run_control_campaign(config);
  ASSERT_EQ(result.samples.size(), 3u);
  for (const RunSample& sample : result.samples) {
    ASSERT_EQ(sample.partitions.size(), 2u);
    EXPECT_EQ(sample.partitions[0].partition, "control");
    EXPECT_EQ(sample.partitions[0].cycles.size(), 1u)
        << "the control partition activates once per run (last frame)";
    EXPECT_EQ(sample.partitions[1].partition, "processing");
    EXPECT_EQ(sample.partitions[1].cycles.size(),
              config.hypervisor->frames)
        << "the guest activates every minor frame";
    EXPECT_EQ(sample.partitions[0].overruns, 0u);
  }
  // The flattened series carry every activation exactly once.
  const std::vector<trace::PartitionSeries> series =
      casestudy::partition_series(result.samples);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].partition, "control");
  EXPECT_EQ(series[0].cycles.size(), 3u);
  EXPECT_EQ(series[1].cycles.size(), 3u * config.hypervisor->frames);
}

class HvEngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(HvEngineDeterminism, ParallelMatchesSequential) {
  const CampaignConfig config = scenario(GetParam(), 6);
  const CampaignResult sequential = run_control_campaign(config);
  ASSERT_EQ(sequential.times.size(), 6u);
  EXPECT_EQ(sequential.verified_runs, 6u);

  // 4 workers over single-run shards: workers cross shard boundaries and
  // replay the control input stream across skips, while every guest
  // stream is reseeded per run — both must land bit-identically.
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(4)).run(config);
  expect_identical(sequential, parallel);

  const CampaignResult single =
      exec::CampaignEngine(worker_options(1)).run(config);
  expect_identical(sequential, single);
}

INSTANTIATE_TEST_SUITE_P(HvFamily, HvEngineDeterminism,
                         ::testing::Values("hv/control-solo",
                                           "hv/control+image",
                                           "hv/control+image-dsr",
                                           "hv/control+stress"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '+' || c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(HvScenarios, AdaptiveCampaignsAreBitIdenticalAcrossWorkerCounts) {
  const CampaignConfig config = scenario("hv/control+image-dsr", 64);
  exec::ConvergenceOptions convergence;
  convergence.batch_runs = 16;
  convergence.max_runs = 64;
  convergence.controller.target_exceedance = 1e-12;
  convergence.controller.epsilon = 0.5; // generous: small test campaign
  convergence.controller.stable_rounds = 1;
  convergence.controller.min_samples = 32;
  convergence.controller.mbpta.block_size = 10;

  const exec::AdaptiveCampaignResult one =
      exec::CampaignEngine(worker_options(1)).run_adaptive(config, convergence);
  const exec::AdaptiveCampaignResult eight =
      exec::CampaignEngine(worker_options(8)).run_adaptive(config, convergence);
  EXPECT_EQ(one.batches, eight.batches);
  EXPECT_EQ(one.converged, eight.converged);
  expect_identical(one.campaign, eight.campaign);
}

// What the guests themselves do is invisible to the times digests: a guest
// only reaches the measured partition through the cache state it leaves
// behind.  Its own cycles and telemetry are locked here instead — the
// metrics digest (per-partition consumed cycles, occupancy histograms, the
// whole schedule's mem.* traffic) plus the schedule's total activations
// and cycles, for one scenario per guest kind.  Captured before the guest
// partitions were folded into one implementation; they must never change.
struct LockedGuests {
  const char* scenario;
  const char* metrics_digest;
  std::size_t activations;
  double cycles;
};

constexpr LockedGuests kLockedGuests[] = {
    {"hv/control+image", "0x1802bb41d217e9df", 132, 130074060.0},
    {"hv/control+stress", "0x202e9210e0051286", 132, 28639296.0},
    {"hv/image+control", "0x7f5d09ce88e2e216", 132, 44433547.0},
    {"leak/observer-hv", "0xaf0b30d33bbc453c", 132, 27836421.0},
    // DSR under the hypervisor with a reseed at every partition switch:
    // the dsr.* family beside the partition telemetry.
    {"hv/control+image-ondemand", "0xb5ce9b150aa25c31", 132, 129951287.0},
};

TEST(HvScenarios, GuestPartitionsAreLocked) {
  for (const LockedGuests& locked : kLockedGuests) {
    CampaignConfig config = scenario(locked.scenario, 12);
    config.collect_metrics = true;
    const CampaignResult result =
        exec::CampaignEngine(worker_options(3)).run(config);
    std::size_t activations = 0;
    double cycles = 0.0;
    for (const RunSample& sample : result.samples) {
      for (const PartitionActivity& activity : sample.partitions) {
        activations += activity.cycles.size();
        for (const double used : activity.cycles) {
          cycles += used;
        }
      }
    }
    EXPECT_EQ(obs::metrics_digest_hex(result.metrics), locked.metrics_digest)
        << locked.scenario;
    EXPECT_EQ(activations, locked.activations) << locked.scenario;
    EXPECT_EQ(cycles, locked.cycles) << locked.scenario;
  }
}

// A guest's outputs are checked before each activation restages it, not
// only after its last one: a corruption that lands between two frames must
// fault although the next activation recomputes the outputs.  The
// on-demand arm reseeds the measured partition before every partition
// activation, copying each function into a fresh pool chunk and keeping
// the old copies until the next reboot.  Here every chunk is one page, the
// copy starts at byte 0 or 64 of it, and the code pool is exactly the
// pages one run takes, beginning at the stressor guest's salt-and-status
// page, whose signature word sits at byte 64.  So every run copies
// measured code onto that page once, and a copy at byte 64 overwrites the
// signature the guest's next activation would recompute (the salt beside
// it is restaged every activation).  Over eight runs such a copy lands
// between two activations of the guest, which only the per-frame check
// can see.
TEST(HvScenarios, GuestOutputsCorruptedBetweenFramesFault) {
  CampaignConfig config = scenario("hv/control+stress", 8);
  config.randomisation = casestudy::Randomisation::kDsrOnDemand;
  config.hypervisor->frames = 4;
  // Copies start at offset 0 or 64 of their one-page chunk.
  config.dsr_options.alignment = 64;
  config.dsr_options.offset_range = 128;
  config.dsr_options.chunk_align = mem::GuestMemory::kPageBytes;

  // Pages one run takes: one per relocated copy.
  CampaignConfig probe = config;
  probe.runs = 1;
  probe.collect_metrics = true;
  const std::uint64_t pages =
      run_control_campaign(probe).metrics.counters.at("dsr.relocations");

  // The stressor's placement (hv_runner.cpp's kStressorGuest).
  isa::LinkOptions placement;
  placement.code_base = 0x4500'0000;
  placement.data_base = 0x4510'0000;
  const isa::LinkedImage guest =
      isa::link(casestudy::make_stressor_task()->program(), placement);
  const std::uint32_t status = guest.symbol("st_status").addr;
  const std::uint32_t page = status / mem::GuestMemory::kPageBytes *
                             mem::GuestMemory::kPageBytes;
  ASSERT_EQ(status - page, 64U) << "a copy at byte 64 must hit the signature";
  ASSERT_LE(guest.symbol("st_buffer").addr + guest.symbol("st_buffer").size,
            page)
      << "the swept buffer must stay out of the pool";
  config.dsr_options.code_pool = {
      page, static_cast<std::uint32_t>(pages * mem::GuestMemory::kPageBytes)};
  try {
    (void)run_control_campaign(config);
    FAIL() << "corrupted guest outputs went unnoticed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("stressor guest outputs diverge from the golden "
                        "model"),
              std::string::npos)
        << error.what();
  }
}

TEST(HvScenarios, StaticRandomisationIsRejected) {
  // A static re-link "re-flashes the board" (clears guest memory): under
  // the hypervisor that would wipe the guests' images.
  CampaignConfig config = scenario("hv/control-solo", 2);
  config.randomisation = casestudy::Randomisation::kStatic;
  EXPECT_THROW(casestudy::CampaignRunner runner(config),
               std::invalid_argument);
}

TEST(HvScenarios, HardwareRandomisationRunsOnTheHypervisor) {
  CampaignConfig config = scenario("hv/control+stress", 3);
  config.randomisation = casestudy::Randomisation::kHardware;
  const CampaignResult sequential = run_control_campaign(config);
  const CampaignResult parallel =
      exec::CampaignEngine(worker_options(3)).run(config);
  expect_identical(sequential, parallel);
  EXPECT_EQ(sequential.verified_runs, 3u);
}

} // namespace
