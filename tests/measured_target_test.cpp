// Tests for the measured-target abstraction: any registered task can be
// the campaign's unit of analysis — the image task on the bare platform
// (the input-dependent-duration workload the ROADMAP promotes to a
// measured scenario family) and the image PARTITION measured under
// control-task interference on the hypervisor (measured-partition
// selection) — plus the `casestudy::Task` contract both roles rely on:
// staging invalidates every cache line it writes.
#include "casestudy/campaign.hpp"
#include "casestudy/campaign_runner.hpp"
#include "casestudy/measured_target.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "isa/linker.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "mem/page_table.hpp"
#include "rng/mwc.hpp"
#include "vm/decode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;
using casestudy::MeasuredTargetKind;
using casestudy::RunSample;
using casestudy::run_control_campaign;

CampaignConfig scenario(const std::string& name, std::uint32_t runs) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  return registry.at(name).make_config(runs);
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
  EXPECT_EQ(a.verified_runs, b.verified_runs);
}

TEST(MeasuredTarget, FactorySelectsKindAndUoa) {
  CampaignConfig config;
  const auto control = casestudy::make_measured_target(config);
  EXPECT_STREQ(control->uoa_symbol(), "control_step");
  EXPECT_TRUE(control->stateful());

  config.measured = MeasuredTargetKind::kImage;
  const auto image = casestudy::make_measured_target(config);
  EXPECT_STREQ(image->uoa_symbol(), "image_step");
  EXPECT_FALSE(image->stateful());

  EXPECT_STREQ(casestudy::measured_partition_name(MeasuredTargetKind::kImage),
               "processing");
  EXPECT_STREQ(
      casestudy::measured_partition_name(MeasuredTargetKind::kControl),
      "control");
}

TEST(MeasuredTarget, ImageFamilyIsRegistered) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  EXPECT_EQ(registry.names("image/").size(), 6u);
  for (const char* name :
       {"image/operation-cots", "image/operation-dsr",
        "image/operation-hwrand", "image/analysis-cots", "image/analysis-dsr",
        "image/analysis-hwrand", "hv/image+control", "hv/image+control-dsr"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  const CampaignConfig operation = scenario("image/operation-dsr", 9);
  EXPECT_EQ(operation.measured, MeasuredTargetKind::kImage);
  EXPECT_EQ(operation.runs, 9u);
  EXPECT_FALSE(operation.fixed_inputs);
  const CampaignConfig analysis = scenario("image/analysis-cots", 3);
  EXPECT_TRUE(analysis.fixed_inputs);
  EXPECT_EQ(analysis.image.lit_fraction, 1.0)
      << "analysis mode pins the all-lenses-lit worst-case path";
}

TEST(MeasuredTarget, BareImageCampaignMeasuresAndVerifies) {
  const CampaignConfig config = scenario("image/operation-cots", 6);
  const CampaignResult result = run_control_campaign(config);
  ASSERT_EQ(result.times.size(), 6u);
  EXPECT_EQ(result.verified_runs, 6u);
  for (const RunSample& sample : result.samples) {
    EXPECT_GT(sample.uoa_cycles, 0.0);
    EXPECT_FALSE(sample.corrupt_input)
        << "the image task has no corruption concept";
    EXPECT_TRUE(sample.partitions.empty()) << "bare platform";
  }
}

TEST(MeasuredTarget, ImageDurationIsInputDependent) {
  // Operation mode (fresh frames): the lit-lens selection makes the work
  // itself vary run to run — times must spread far beyond the platform
  // jitter.  Analysis mode (one pinned frame) on the same COTS platform:
  // the variability collapses to zero (fixed layout, fixed input, fixed
  // protocol => bit-identical activations).
  const CampaignResult operation =
      run_control_campaign(scenario("image/operation-cots", 8));
  const std::set<double> distinct(operation.times.begin(),
                                  operation.times.end());
  EXPECT_GT(distinct.size(), 4u)
      << "fresh frames must yield distinct durations";

  const CampaignResult analysis =
      run_control_campaign(scenario("image/analysis-cots", 8));
  const auto [min_it, max_it] =
      std::minmax_element(analysis.times.begin(), analysis.times.end());
  EXPECT_EQ(*min_it, *max_it)
      << "pinned frame on the fixed COTS layout must be constant";
}

TEST(MeasuredTarget, ImageCampaignsRunUnderEveryBareRandomisation) {
  for (const char* name : {"image/operation-dsr", "image/analysis-dsr",
                           "image/analysis-hwrand"}) {
    const CampaignConfig config = scenario(name, 3);
    const CampaignResult result = run_control_campaign(config);
    EXPECT_EQ(result.verified_runs, 3u) << name;
  }
  // Static re-link also works for the image target on the bare platform
  // (there is no registry scenario for it; the config arm still must).
  CampaignConfig config = scenario("image/operation-cots", 3);
  config.randomisation = casestudy::Randomisation::kStatic;
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 3u);
}

TEST(MeasuredTarget, HvImageMeasuredUnderControlInterference) {
  const CampaignConfig config = scenario("hv/image+control", 3);
  ASSERT_TRUE(config.hypervisor.has_value());
  EXPECT_TRUE(config.hypervisor->control_guest);
  const CampaignResult result = run_control_campaign(config);
  ASSERT_EQ(result.samples.size(), 3u);
  for (const RunSample& sample : result.samples) {
    ASSERT_EQ(sample.partitions.size(), 2u);
    EXPECT_EQ(sample.partitions[0].partition, "processing")
        << "the measured image partition registers first";
    EXPECT_EQ(sample.partitions[0].cycles.size(), 1u)
        << "the measured partition activates once per run (last frame)";
    EXPECT_EQ(sample.partitions[1].partition, "control");
    EXPECT_EQ(sample.partitions[1].cycles.size(), config.hypervisor->frames)
        << "the control guest activates every minor frame";
    EXPECT_EQ(sample.partitions[0].overruns, 0u);
  }
  EXPECT_EQ(result.verified_runs, 3u)
      << "measured image AND control guest verify against golden models";
}

TEST(MeasuredTarget, ControlInterferenceShiftsTheMeasuredImage) {
  // The solo-vs-interference delta, mirrored from exec_hv_test: the bare
  // image analysis campaign is the interference-free baseline (same
  // pinned frame, same platform protocol).
  const CampaignResult solo =
      run_control_campaign(scenario("image/analysis-cots", 4));
  const CampaignResult interfered =
      run_control_campaign(scenario("hv/image+control", 4));
  const double solo_max =
      *std::max_element(solo.times.begin(), solo.times.end());
  const double interfered_min =
      *std::min_element(interfered.times.begin(), interfered.times.end());
  EXPECT_GT(interfered_min, solo_max)
      << "the control guest's cache traffic must slow the measured image";
}

class ImageEngineDeterminism : public ::testing::TestWithParam<const char*> {
};

TEST_P(ImageEngineDeterminism, ParallelMatchesSequential) {
  const CampaignConfig config = scenario(GetParam(), 6);
  const CampaignResult sequential = run_control_campaign(config);
  ASSERT_EQ(sequential.times.size(), 6u);
  EXPECT_EQ(sequential.verified_runs, 6u);

  exec::EngineOptions options;
  options.workers = 4; // single-run shards: workers cross every boundary
  const CampaignResult parallel = exec::CampaignEngine(options).run(config);
  expect_identical(sequential, parallel);
}

INSTANTIATE_TEST_SUITE_P(ImageFamily, ImageEngineDeterminism,
                         ::testing::Values("image/operation-cots",
                                           "image/operation-dsr",
                                           "image/analysis-hwrand",
                                           "hv/image+control",
                                           "hv/image+control-dsr"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '+' || c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(MeasuredTarget, MeasuredGuestCollisionIsRejected) {
  // A task kind occupies one partition: the guest matching the measured
  // target is a configuration error, not a silently duplicated program.
  CampaignConfig config = scenario("hv/image+control", 2);
  config.hypervisor->image_guest = true;
  EXPECT_THROW(casestudy::CampaignRunner{config}, std::invalid_argument);

  CampaignConfig control_config = scenario("hv/control-solo", 2);
  control_config.hypervisor->control_guest = true;
  EXPECT_THROW(casestudy::CampaignRunner{control_config},
               std::invalid_argument);
}

TEST(MeasuredTarget, HvImageRejectsStaticRandomisation) {
  CampaignConfig config = scenario("hv/image+control", 2);
  config.randomisation = casestudy::Randomisation::kStatic;
  EXPECT_THROW(casestudy::CampaignRunner{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Staging is a DMA transfer, and LEON3 DMA is not cache-coherent: a stage
// call must leave no cache line valid over anything it wrote.  Every
// campaign flushes all levels after staging, so neither a digest nor a
// golden check would see a missed invalidation; this test does.
// ---------------------------------------------------------------------------

using Range = std::pair<std::uint32_t, std::uint32_t>; // (addr, length)

/// The pages `image` occupies, code then data, cut into windows of at
/// most DecodeCache::kMaxPages pages: one window fits one decode cache.
std::vector<std::vector<std::uint32_t>> image_windows(
    const isa::LinkedImage& image) {
  std::vector<std::uint32_t> pages;
  for (const Range& extent :
       {Range{image.code_begin(), image.code_end() - image.code_begin()},
        Range{image.data_begin(), image.data_end() - image.data_begin()}}) {
    if (extent.second == 0) {
      continue;
    }
    for (std::uint32_t page = mem::page_of(extent.first);
         page <= mem::page_of(extent.first + extent.second - 1); ++page) {
      if (pages.empty() || pages.back() < page) {
        pages.push_back(page);
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> windows;
  for (std::size_t first = 0; first < pages.size();
       first += vm::DecodeCache::kMaxPages) {
    const std::size_t last =
        std::min(pages.size(), first + vm::DecodeCache::kMaxPages);
    windows.emplace_back(pages.begin() + static_cast<std::ptrdiff_t>(first),
                         pages.begin() + static_cast<std::ptrdiff_t>(last));
  }
  return windows;
}

/// The word ranges `write` stores into the `window` pages of `memory`, in
/// address order: a decode cache bound to the memory holds every word of
/// the window decoded, a write resets exactly the slots it covers, and
/// probing the slots afterwards finds the reset ones.
template <typename Write>
std::vector<Range> written_words(mem::GuestMemory& memory,
                                 const std::vector<std::uint32_t>& window,
                                 Write write) {
  vm::DecodeCache cache(memory);
  for (const std::uint32_t page : window) {
    cache.predecode_range(page * mem::kPageBytes, mem::kPageBytes);
  }
  write();
  std::vector<Range> ranges;
  for (const std::uint32_t page : window) {
    for (std::uint32_t pc = page * mem::kPageBytes;
         pc < (page + 1) * mem::kPageBytes; pc += 4) {
      const std::uint64_t decodes = cache.stats().decodes;
      cache.at(pc);
      if (cache.stats().decodes == decodes) {
        continue;
      }
      if (!ranges.empty() &&
          ranges.back().first + ranges.back().second == pc) {
        ranges.back().second += 4;
      } else {
        ranges.emplace_back(pc, 4);
      }
    }
  }
  return ranges;
}

/// The ranges `task` writes into `window` when it stages its current
/// inputs over a freshly loaded `image`, found on a platform of their own.
std::vector<Range> staged_ranges(const casestudy::Task& task,
                                 const isa::LinkedImage& image,
                                 const std::vector<std::uint32_t>& window,
                                 bool full) {
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  image.load_into(memory);
  return written_words(memory, window, [&] {
    task.stage(memory, hierarchy, image, full);
  });
}

/// Line addresses (`line_bytes` apart) covering `range`.
std::vector<std::uint32_t> lines_of(const Range& range,
                                    std::uint32_t line_bytes) {
  std::vector<std::uint32_t> lines;
  for (std::uint32_t line = range.first / line_bytes * line_bytes;
       line < range.first + range.second; line += line_bytes) {
    lines.push_back(line);
  }
  return lines;
}

TEST(Task, StagingInvalidatesEveryLineItWrites) {
  CampaignConfig config;
  config.image.grid = 6; // the image/ scenarios' CI-sized frame
  std::vector<std::pair<const char*, std::unique_ptr<casestudy::Task>>> tasks;
  tasks.emplace_back(
      "control", casestudy::make_task(MeasuredTargetKind::kControl, config));
  tasks.emplace_back(
      "image", casestudy::make_task(MeasuredTargetKind::kImage, config));
  tasks.emplace_back(
      "leak", casestudy::make_task(MeasuredTargetKind::kLeakyBeacon, config));
  tasks.emplace_back("stressor", casestudy::make_stressor_task());

  for (const auto& [name, task] : tasks) {
    const isa::LinkedImage image =
        isa::link(task->program(), task->layout_options());
    rng::Mwc rng(7);
    task->restart();
    task->draw(rng);
    for (const bool full : {false, true}) {
      SCOPED_TRACE(std::string(name) + (full ? " full" : " incremental"));
      // One platform per window of the image, each staged once.
      bool staged_any = false;
      for (const std::vector<std::uint32_t>& window : image_windows(image)) {
        const std::vector<Range> ranges =
            staged_ranges(*task, image, window, full);
        staged_any |= !ranges.empty();

        mem::GuestMemory memory;
        mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
        image.load_into(memory);
        const std::uint32_t line_bytes = hierarchy.l2().config().line_bytes;
        // Warm IL1, DL1 and the L2 over every line staging will write (a
        // fetch fills IL1, a load fills DL1, both fill the L2), and check
        // that each written range then has a valid line in every level, so
        // a missed invalidation cannot hide behind a cold cache.
        for (const Range& range : ranges) {
          for (const std::uint32_t line : lines_of(range, line_bytes)) {
            hierarchy.fetch(line);
            hierarchy.load(line);
          }
        }
        for (const Range& range : ranges) {
          const std::vector<std::uint32_t> lines =
              lines_of(range, line_bytes);
          for (mem::Cache* level :
               {&hierarchy.il1(), &hierarchy.dl1(), &hierarchy.l2()}) {
            EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                                    [level](std::uint32_t line) {
                                      return level->contains(line);
                                    }))
                << level->config().name << " is cold over 0x" << std::hex
                << range.first;
          }
        }

        const std::vector<Range> written =
            written_words(memory, window, [&] {
              task->stage(memory, hierarchy, image, full);
            });
        EXPECT_EQ(written, ranges);
        for (const Range& range : written) {
          for (const std::uint32_t line : lines_of(range, line_bytes)) {
            for (mem::Cache* level :
                 {&hierarchy.il1(), &hierarchy.dl1(), &hierarchy.l2()}) {
              EXPECT_FALSE(level->contains(line))
                  << level->config().name << " line 0x" << std::hex << line
                  << " is still valid after staging";
            }
          }
        }
      }
      ASSERT_TRUE(staged_any);
    }
  }
}

} // namespace
