// Full-pipeline integration tests: application -> DSR pass -> link ->
// RTOS/VM execution -> trace -> MBPTA, plus cross-cutting properties that
// only hold when every layer cooperates.
#include "casestudy/campaign.hpp"
#include "casestudy/control_task.hpp"
#include "casestudy/image_task.hpp"
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "core/static_rand.hpp"
#include "isa/linker.hpp"
#include "mbpta/mbpta.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "rtos/hypervisor.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace proxima;
using namespace proxima::casestudy;

constexpr std::uint32_t kStackTop = 0x4080'0000;

// ---------------------------------------------------------------------------
// The central cross-layer property: for ANY randomisation technology and
// ANY seed, the application's functional outputs are bit-identical.
// ---------------------------------------------------------------------------

class RandomisationSweep
    : public ::testing::TestWithParam<std::tuple<Randomisation, int>> {};

TEST_P(RandomisationSweep, FunctionalOutputsInvariant) {
  const auto [randomisation, seed] = GetParam();
  CampaignConfig config;
  config.runs = 5;
  config.randomisation = randomisation;
  config.layout_seed = static_cast<std::uint64_t>(seed) * 7919;
  // Every run is verified; a divergence throws.
  const CampaignResult result = run_control_campaign(config);
  EXPECT_EQ(result.verified_runs, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechnologies, RandomisationSweep,
    ::testing::Combine(::testing::Values(Randomisation::kNone,
                                         Randomisation::kDsr,
                                         Randomisation::kStatic,
                                         Randomisation::kHardware),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// DSR + image task: the pass/runtime must handle the second application of
// the case study too (the paper applied DSR to both partitions).
// ---------------------------------------------------------------------------

TEST(Integration, DsrOnImageTaskPreservesOutputs) {
  ImageParams params;
  params.grid = 4;
  params.lens_px = 8;
  params.modes = 8;
  params.window = 3;

  isa::Program program = build_image_program(params);
  dsr::apply_pass(program);
  const isa::LinkedImage image = isa::link(program);

  for (std::uint64_t seed : {11, 22, 33}) {
    mem::GuestMemory memory;
    mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
    hierarchy.set_strict_coherence(true);
    vm::Vm cpu(memory, hierarchy);
    image.load_into(memory);
    rng::Mwc layout_rng(seed);
    dsr::DsrRuntime runtime(memory, hierarchy, image, layout_rng, {});
    runtime.initialise();
    runtime.attach(cpu);

    rng::Mwc input_rng(seed + 100);
    const ImageInputs inputs = make_image_inputs(input_rng, params);
    stage_image_inputs(memory, hierarchy, image, inputs);
    hierarchy.flush_all();
    cpu.reset(runtime.entry_address(), kStackTop);
    ASSERT_EQ(cpu.run().stop, vm::RunResult::Stop::kHalt);
    EXPECT_EQ(read_image_outputs(memory, image, params),
              reference_image(params, inputs))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The whole measurement stack under the hypervisor: partitions, reboots,
// traces, MBPTA — one pass through everything.
// ---------------------------------------------------------------------------

class MeasuredControl final : public rtos::PartitionApp {
public:
  MeasuredControl(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy)
      : memory_(memory), hierarchy_(hierarchy), layout_rng_(611085),
        input_rng_(2017) {
    isa::Program program = build_control_program(params_);
    trace::instrument_function(program, "control_step");
    dsr::apply_pass(program);
    image_ = isa::link(program,
                       control_layout(params_, Layout::kCotsBad, kStackTop));
    image_.load_into(memory_);
    runtime_ = std::make_unique<dsr::DsrRuntime>(memory_, hierarchy_, image_,
                                                 layout_rng_,
                                                 dsr::RuntimeOptions{});
    runtime_->initialise();
    inputs_ = initial_control_inputs(params_);
  }

  std::uint32_t entry_address() override { return runtime_->entry_address(); }
  std::uint32_t stack_top() override { return kStackTop; }
  void before_activation(std::uint64_t) override {
    refresh_control_inputs(input_rng_, params_, inputs_);
    stage_control_inputs(memory_, hierarchy_, image_, inputs_);
  }
  void reboot() override { runtime_->rerandomise(); }

  dsr::DsrRuntime& runtime() { return *runtime_; }

private:
  mem::GuestMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  rng::Mwc layout_rng_;
  rng::Mwc input_rng_;
  ControlParams params_;
  isa::LinkedImage image_;
  std::unique_ptr<dsr::DsrRuntime> runtime_;
  ControlInputs inputs_;
};

TEST(Integration, HypervisorCampaignFeedsMbpta) {
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  trace::TraceBuffer buffer;
  buffer.attach(cpu);

  MeasuredControl app(memory, hierarchy);
  rtos::Hypervisor hypervisor(
      cpu, hierarchy,
      rtos::HypervisorConfig{.minor_frame_ms = 100, .cycles_per_ms = 50000});
  hypervisor.add_partition(
      rtos::PartitionConfig{.name = "control",
                            .period_ms = 100, // accelerated campaign
                            .criticality = rtos::Criticality::kHigh,
                            .reboot_after_each_activation = true},
      app);
  const auto records = hypervisor.run_frames(40);
  ASSERT_EQ(records.size(), 40u);
  for (const rtos::ActivationRecord& record : records) {
    EXPECT_TRUE(record.halted);
    EXPECT_FALSE(record.overran);
  }
  // The trace decodes into one UoA time per activation...
  const std::vector<double> times = trace::extract_execution_times(buffer);
  ASSERT_EQ(times.size(), 40u);
  // ...whose variability is real (layouts changed every reboot)...
  EXPECT_GT(mbpta::summarise(times).stddev, 0.0);
  EXPECT_GE(app.runtime().stats().relocations, 40u * 14u);
  // ...and the binary trace round-trips GRMON-style.
  const trace::TraceBuffer reloaded =
      trace::TraceBuffer::deserialise(buffer.serialise());
  EXPECT_EQ(trace::extract_execution_times(reloaded), times);
}

// ---------------------------------------------------------------------------
// Failure injection across the stack.
// ---------------------------------------------------------------------------

TEST(Integration, MissingInvalidationRoutineIsFatalUnderStrictChecking) {
  // A partition reboot that re-randomises WITHOUT the invalidation routine
  // leaves stale code/table lines in the warm caches; the strict checker
  // must catch the first stale fetch.  (The campaign driver's own protocol
  // never hits this because it wipes the caches before each warm-up — this
  // is exactly the hazard the routine exists to close in other flows.)
  const ControlParams params;
  isa::Program program = build_control_program(params);
  dsr::apply_pass(program);
  const isa::LinkedImage image =
      isa::link(program, control_layout(params, Layout::kCotsBad, kStackTop));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  hierarchy.set_strict_coherence(true);
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);
  rng::Mwc random(5);
  dsr::RuntimeOptions options;
  options.run_invalidation_routine = false; // inject the bug
  dsr::DsrRuntime runtime(memory, hierarchy, image, random, options);
  runtime.initialise();
  runtime.attach(cpu);

  rng::Mwc input_rng(6);
  ControlInputs inputs = initial_control_inputs(params);
  refresh_control_inputs(input_rng, params, inputs);
  stage_control_inputs(memory, hierarchy, image, inputs);
  hierarchy.flush_all();
  cpu.reset(runtime.entry_address(), kStackTop);
  ASSERT_EQ(cpu.run().stop, vm::RunResult::Stop::kHalt); // first run fine

  runtime.rerandomise(); // reboot without flushing: stale lines remain
  cpu.reset(runtime.entry_address(), kStackTop);
  EXPECT_THROW(cpu.run(), mem::CoherenceError);
}

TEST(Integration, CampaignDetectsFunctionalDivergence) {
  // Sabotage detection: corrupting a data table after link must be caught
  // by the golden-model comparison, never silently measured.
  CampaignConfig config;
  config.runs = 3;
  // Make the golden model disagree by tampering with params consistency:
  // reference_control uses params.command_limit but the image embeds the
  // build-time constant.  Build with one limit, verify with another.
  isa::Program program = build_control_program(config.control);
  // (direct API misuse is prevented by the campaign owning both sides, so
  // emulate the divergence at the lowest level instead)
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  const isa::LinkedImage image = isa::link(
      program, control_layout(config.control, Layout::kCotsBad, kStackTop));
  image.load_into(memory);
  rng::Mwc input_rng(1);
  ControlInputs inputs = initial_control_inputs(config.control);
  refresh_control_inputs(input_rng, config.control, inputs);
  stage_control_inputs(memory, hierarchy, image, inputs);
  // Tamper with the matrix AFTER staging.
  memory.write_u32(image.symbol("cs_matrix").addr, 0xdeadbeef);
  hierarchy.flush_all();
  cpu.reset(image.entry_addr(), kStackTop);
  cpu.run();
  EXPECT_NE(read_control_outputs(memory, image, config.control),
            reference_control(config.control, inputs));
}

// ---------------------------------------------------------------------------
// Static randomisation as a re-link generator (TASA-style).
// ---------------------------------------------------------------------------

TEST(Integration, StaticRandomLayoutsAreDistinctAndValid) {
  isa::Program program = build_control_program(ControlParams{});
  rng::Mwc random(99);
  std::set<std::uint32_t> entry_addresses;
  for (int i = 0; i < 10; ++i) {
    const isa::LinkOptions options = dsr::random_layout(program, random);
    const isa::LinkedImage image = isa::link(program, options);
    entry_addresses.insert(image.entry_addr());
    // Every function placed inside the static-randomisation code region.
    for (const isa::FunctionRecord& record : image.functions()) {
      EXPECT_GE(record.addr, 0x4100'0000u);
      EXPECT_LT(record.addr, 0x4300'0000u);
    }
  }
  EXPECT_GT(entry_addresses.size(), 5u) << "layouts must differ";
}

// ---------------------------------------------------------------------------
// MBPTA end-to-end sanity on a real (small) campaign.
// ---------------------------------------------------------------------------

TEST(Integration, SmallAnalysisCampaignYieldsUsablePwcet) {
  CampaignConfig config;
  config.runs = 250;
  config.randomisation = Randomisation::kDsr;
  config.fixed_inputs = true;
  config.control.corrupt_rate = 1.0;
  const CampaignResult result = run_control_campaign(config);

  mbpta::MbptaConfig mbpta_config;
  mbpta_config.block_size = 10;
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(result.times, mbpta_config);
  EXPECT_TRUE(analysis.applicable());
  const double pwcet = analysis.pwcet(1e-15);
  EXPECT_GT(pwcet, analysis.summary.max);
  // Far tighter than the +20% industrial margin.
  EXPECT_LT(pwcet, analysis.summary.max * 1.20);
  // And the report plumbing agrees.
  const trace::TimingReport report =
      trace::TimingReport::from_times(result.times);
  EXPECT_EQ(report.moet(), analysis.summary.max);
}

} // namespace
