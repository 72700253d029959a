// Tests for the space case study: functional correctness of both tasks
// against the host golden models, the engineered layout properties, and
// the measurement campaign protocol (Section IV).
#include "casestudy/campaign.hpp"
#include "casestudy/control_task.hpp"
#include "casestudy/image_task.hpp"
#include "isa/linker.hpp"
#include "mbpta/descriptive.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "trace/trace.hpp"
#include "vm/vm.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace {

using namespace proxima;
using namespace proxima::casestudy;

constexpr std::uint32_t kStackTop = 0x4080'0000;

// ---------------------------------------------------------------------------
// Control task: guest vs golden model.
// ---------------------------------------------------------------------------

struct ControlRun {
  ControlOutputs guest;
  ControlOutputs golden;
};

ControlRun run_control_once(const ControlParams& params, std::uint64_t seed,
                            Layout layout = Layout::kCotsBad) {
  isa::Program program = build_control_program(params);
  const isa::LinkedImage image =
      isa::link(program, control_layout(params, layout, kStackTop));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);

  rng::Mwc random(seed);
  ControlInputs inputs = initial_control_inputs(params);
  refresh_control_inputs(random, params, inputs);
  stage_control_inputs(memory, hierarchy, image, inputs);
  hierarchy.flush_all();
  cpu.reset(image.entry_addr(), kStackTop);
  const vm::RunResult result = cpu.run();
  EXPECT_EQ(result.stop, vm::RunResult::Stop::kHalt);

  return ControlRun{read_control_outputs(memory, image, params),
                    reference_control(params, inputs)};
}

TEST(ControlTask, GuestMatchesGoldenModel) {
  for (std::uint64_t seed : {1, 7, 42}) {
    const ControlRun run = run_control_once(ControlParams{}, seed);
    EXPECT_EQ(run.guest, run.golden) << "seed " << seed;
  }
}

TEST(ControlTask, CorruptInputTriggersRecovery) {
  ControlParams params;
  params.corrupt_rate = 1.0;
  const ControlRun run = run_control_once(params, 3);
  EXPECT_EQ(run.guest, run.golden);
  EXPECT_EQ(run.guest.recoveries, 1u);
  EXPECT_NE(run.guest.recovery_accumulator, 0u);
  EXPECT_EQ(run.guest.recovery_mirror, run.guest.recovery_accumulator);
  EXPECT_EQ(run.guest.packets_ok, params.packet_count() - 1);
}

TEST(ControlTask, CleanInputValidatesAllPackets) {
  ControlParams params;
  params.corrupt_rate = 0.0;
  const ControlRun run = run_control_once(params, 4);
  EXPECT_EQ(run.guest, run.golden);
  EXPECT_EQ(run.guest.recoveries, 0u);
  EXPECT_EQ(run.guest.packets_ok, params.packet_count());
  EXPECT_EQ(run.guest.recovery_mirror, 0u);
}

TEST(ControlTask, CommandsRespectSaturationLimit) {
  ControlParams params;
  const ControlRun run = run_control_once(params, 9);
  for (const double command : run.guest.commands) {
    EXPECT_LE(std::fabs(command), params.command_limit + 1e-12);
  }
}

TEST(ControlTask, NeutralLayoutIsFunctionallyIdentical) {
  const ControlRun bad = run_control_once(ControlParams{}, 5, Layout::kCotsBad);
  const ControlRun neutral =
      run_control_once(ControlParams{}, 5, Layout::kNeutral);
  EXPECT_EQ(bad.guest, neutral.guest); // layout never changes results
}

TEST(ControlTask, ParameterValidation) {
  ControlParams params;
  params.telemetry_bytes = 13; // not a word multiple
  EXPECT_THROW(build_control_program(params), std::invalid_argument);
  params = ControlParams{};
  params.packet_words = 100; // not whole blocks
  EXPECT_THROW(build_control_program(params), std::invalid_argument);
  params = ControlParams{};
  params.protocol_block = 99;
  EXPECT_THROW(build_control_program(params), std::invalid_argument);
  params = ControlParams{};
  params.telemetry_window = params.telemetry_bytes + 1024;
  EXPECT_THROW(build_control_program(params), std::invalid_argument);
}

TEST(ControlTask, LayoutRequiresAlignedStack) {
  EXPECT_THROW(control_layout(ControlParams{}, Layout::kCotsBad, 0x40800100),
               std::invalid_argument);
}

TEST(ControlTask, CotsBadLayoutPinsTheMirrorCongruence) {
  // The engineered "bad and rare" property: the telemetry mirror cell and
  // the recovery progress word share an L2 set under kCotsBad, and do not
  // under kNeutral.
  const ControlParams params;
  const ControlStackInfo stack;
  const auto set_of = [](std::uint32_t addr) { return (addr / 32) % 1024; };
  const std::uint32_t progress_set = set_of(stack.progress_addr(kStackTop));

  isa::Program program = build_control_program(params);
  const isa::LinkedImage bad =
      isa::link(program, control_layout(params, Layout::kCotsBad, kStackTop));
  EXPECT_EQ(set_of(bad.symbol("cs_mirror").addr), progress_set);

  const isa::LinkedImage neutral =
      isa::link(program, control_layout(params, Layout::kNeutral, kStackTop));
  EXPECT_NE(set_of(neutral.symbol("cs_mirror").addr), progress_set);
}

TEST(ControlTask, StagingWritesExactlyTheDirtyState) {
  const ControlParams params;
  isa::Program program = build_control_program(params);
  const isa::LinkedImage image =
      isa::link(program, control_layout(params, Layout::kCotsBad, kStackTop));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  image.load_into(memory);

  rng::Mwc random(11);
  ControlInputs inputs = initial_control_inputs(params);
  refresh_control_inputs(random, params, inputs);
  stage_control_inputs(memory, hierarchy, image, inputs);

  // Memory now mirrors the full effective state.
  const std::uint32_t telemetry = image.symbol("cs_telemetry").addr;
  for (std::uint32_t i = 0; i < params.telemetry_bytes; ++i) {
    ASSERT_EQ(memory.read_u8(telemetry + i), inputs.telemetry[i]) << i;
  }
  const std::uint32_t packets = image.symbol("cs_packets").addr;
  for (std::uint32_t w = 0; w < params.packet_words; ++w) {
    ASSERT_EQ(memory.read_u32(packets + 4 * w), inputs.packets[w]) << w;
  }
}

TEST(ControlTask, RefreshRotatesTheChunkCursor) {
  const ControlParams params;
  rng::Mwc random(13);
  ControlInputs inputs = initial_control_inputs(params);
  refresh_control_inputs(random, params, inputs);
  EXPECT_EQ(inputs.telemetry_dirty_offset, 0u);
  refresh_control_inputs(random, params, inputs);
  EXPECT_EQ(inputs.telemetry_dirty_offset, params.telemetry_chunk);
  // Full rotation wraps.
  for (std::uint32_t i = 2; i < params.telemetry_bytes / params.telemetry_chunk;
       ++i) {
    refresh_control_inputs(random, params, inputs);
  }
  refresh_control_inputs(random, params, inputs);
  EXPECT_EQ(inputs.telemetry_dirty_offset, 0u);
}

// ---------------------------------------------------------------------------
// Image processing task.
// ---------------------------------------------------------------------------

ImageParams small_image_params() {
  ImageParams params;
  params.grid = 4;
  params.lens_px = 8;
  params.modes = 8;
  params.window = 3;
  return params;
}

struct ImageRun {
  ImageOutputs guest;
  ImageOutputs golden;
};

ImageRun run_image_once(const ImageParams& params, std::uint64_t seed) {
  isa::Program program = build_image_program(params);
  const isa::LinkedImage image = isa::link(program);
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);

  rng::Mwc random(seed);
  const ImageInputs inputs = make_image_inputs(random, params);
  stage_image_inputs(memory, hierarchy, image, inputs);
  hierarchy.flush_all();
  cpu.reset(image.entry_addr(), kStackTop);
  const vm::RunResult result = cpu.run();
  EXPECT_EQ(result.stop, vm::RunResult::Stop::kHalt);
  return ImageRun{read_image_outputs(memory, image, params),
                  reference_image(params, inputs)};
}

TEST(ImageTask, GuestMatchesGoldenModel) {
  for (std::uint64_t seed : {1, 2, 3, 8}) {
    const ImageRun run = run_image_once(small_image_params(), seed);
    EXPECT_EQ(run.guest, run.golden) << "seed " << seed;
  }
}

TEST(ImageTask, ProcessesOnlyLitLenses) {
  ImageParams params = small_image_params();
  params.lit_fraction = 0.5;
  rng::Mwc random(21);
  const ImageInputs inputs = make_image_inputs(random, params);
  const ImageOutputs golden = reference_image(params, inputs);
  // The bright/dim construction separates cleanly at max/2.
  EXPECT_EQ(golden.processed_lenses, inputs.lit_lenses);
}

TEST(ImageTask, LitFractionRoughlyHonoured) {
  ImageParams params;
  params.grid = 12;
  rng::Mwc random(22);
  std::uint32_t lit = 0;
  constexpr int kFrames = 30;
  for (int f = 0; f < kFrames; ++f) {
    lit += make_image_inputs(random, params).lit_lenses;
  }
  const double fraction =
      static_cast<double>(lit) / (kFrames * params.lens_count());
  EXPECT_NEAR(fraction, 0.70, 0.05); // "around 70% of the total lenses"
}

TEST(ImageTask, InputDependentDuration) {
  // The paper: lens count variation creates "a variation in the duration
  // of the computation directly linked to the input data".
  ImageParams params = small_image_params();
  auto cycles_for = [&params](double lit_fraction, std::uint64_t seed) {
    ImageParams p = params;
    p.lit_fraction = lit_fraction;
    isa::Program program = build_image_program(p);
    const isa::LinkedImage image = isa::link(program);
    mem::GuestMemory memory;
    mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
    vm::Vm cpu(memory, hierarchy);
    image.load_into(memory);
    rng::Mwc random(seed);
    stage_image_inputs(memory, hierarchy, image, make_image_inputs(random, p));
    hierarchy.flush_all();
    cpu.reset(image.entry_addr(), kStackTop);
    cpu.run();
    return cpu.cycles();
  };
  EXPECT_GT(cycles_for(0.9, 5), cycles_for(0.2, 5));
}

TEST(ImageTask, ParameterValidation) {
  ImageParams params = small_image_params();
  params.window = 4; // even
  EXPECT_THROW(build_image_program(params), std::invalid_argument);
  params = small_image_params();
  params.window = 9; // >= lens_px
  EXPECT_THROW(build_image_program(params), std::invalid_argument);
  params = small_image_params();
  params.lens_px = 100; // lens bytes exceed immediate range
  EXPECT_THROW(build_image_program(params), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Measurement campaign protocol.
// ---------------------------------------------------------------------------

CampaignConfig quick_campaign(Randomisation randomisation) {
  CampaignConfig config;
  config.runs = 12;
  config.randomisation = randomisation;
  return config;
}

TEST(Campaign, CotsVerifiesEveryRun) {
  const CampaignResult result =
      run_control_campaign(quick_campaign(Randomisation::kNone));
  EXPECT_EQ(result.times.size(), 12u);
  EXPECT_EQ(result.verified_runs, 12u);
  for (const double t : result.times) {
    EXPECT_GT(t, 0.0);
  }
}

TEST(Campaign, DsrVerifiesEveryRunAndVaries) {
  CampaignConfig config = quick_campaign(Randomisation::kDsr);
  config.fixed_inputs = true; // isolate layout-induced variation
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 12u);
  const auto summary = mbpta::summarise(result.times);
  EXPECT_GT(summary.stddev, 0.0) << "DSR must expose layout jitter";
  EXPECT_GT(result.pass_report.calls_rewritten, 0u);
}

TEST(Campaign, CotsFixedInputsIsDeterministic) {
  CampaignConfig config = quick_campaign(Randomisation::kNone);
  config.fixed_inputs = true;
  const CampaignResult result = run_control_campaign(config);
  const auto summary = mbpta::summarise(result.times);
  // No randomisation + same input + independent initial state per run:
  // the platform is deterministic, so every run takes identical time.
  EXPECT_EQ(summary.min, summary.max);
}

TEST(Campaign, StaticRandomisationVerifiesAndVaries) {
  CampaignConfig config = quick_campaign(Randomisation::kStatic);
  config.fixed_inputs = true;
  config.runs = 8;
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 8u);
  const auto summary = mbpta::summarise(result.times);
  EXPECT_GT(summary.stddev, 0.0);
}

TEST(Campaign, HardwareRandomisationVerifiesAndVaries) {
  CampaignConfig config = quick_campaign(Randomisation::kHardware);
  config.fixed_inputs = true;
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 12u);
  const auto summary = mbpta::summarise(result.times);
  EXPECT_GT(summary.stddev, 0.0);
}

TEST(Campaign, DsrOverheadBelowTwoPercent) {
  // Table I: the DSR dynamic instruction overhead is < 2%.
  CampaignConfig cots = quick_campaign(Randomisation::kNone);
  cots.fixed_inputs = true;
  CampaignConfig dsr = quick_campaign(Randomisation::kDsr);
  dsr.fixed_inputs = true;
  const CampaignResult cots_result = run_control_campaign(cots);
  const CampaignResult dsr_result = run_control_campaign(dsr);
  const double cots_instr = static_cast<double>(
      cots_result.samples.front().counters.instructions);
  const double dsr_instr =
      static_cast<double>(dsr_result.samples.front().counters.instructions);
  EXPECT_GT(dsr_instr, cots_instr);
  EXPECT_LT(dsr_instr / cots_instr, 1.02);
}

TEST(Campaign, DsrRaisesIl1Misses) {
  // Table I: icmiss 126-127 -> 154 under DSR (code spread over the pool).
  CampaignConfig cots = quick_campaign(Randomisation::kNone);
  CampaignConfig dsr = quick_campaign(Randomisation::kDsr);
  const CampaignResult cots_result = run_control_campaign(cots);
  const CampaignResult dsr_result = run_control_campaign(dsr);
  EXPECT_GT(dsr_result.samples.front().counters.icache_miss,
            cots_result.samples.front().counters.icache_miss);
}

TEST(Campaign, LfsrPrngWorksToo) {
  CampaignConfig config = quick_campaign(Randomisation::kDsr);
  config.prng = PrngKind::kLfsr;
  config.runs = 6;
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 6u);
}

} // namespace
