// The full space case study on the partitioned RTOS (Section IV).
//
// Part 1 — three seconds of mission time: two partitions on one
// LEON3-class core under a PikeOS-style `rtos::Hypervisor`:
//   * "control"    — high criticality, every 1 s, DSR-randomised, rebooted
//                    after each activation (the measurement protocol);
//   * "processing" — low criticality, every 100 ms, the image task
//                    computing the wavefront error from sensor frames.
// Every activation is verified against the golden models and the schedule
// plus the control task's measured times are printed.
//
// Part 2 — the measurement campaign as the analyst runs it: the
// `hv/control+image-dsr` registry scenario on the parallel campaign
// engine.  Each measured run replays the cyclic schedule (guests first,
// the measured control activation in the last minor frame), so the
// collected pWCET is the control task's *under partition interference* —
// bit-identical at any worker count, with a per-partition report.
//
//   $ ./space_instrument
#include "casestudy/control_task.hpp"
#include "casestudy/image_task.hpp"
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "isa/linker.hpp"
#include "mbpta/descriptive.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "rtos/hypervisor.hpp"
#include "trace/partition_report.hpp"
#include "trace/trace.hpp"
#include "vm/vm.hpp"

#include <cstdio>
#include <memory>

using namespace proxima;
using namespace proxima::casestudy;

namespace {

constexpr std::uint32_t kControlStack = 0x4080'0000;
constexpr std::uint32_t kImageStack = 0x4480'0000;

/// The high-criticality partition: DSR-randomised control task.
class ControlPartition final : public rtos::PartitionApp {
public:
  ControlPartition(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy)
      : memory_(memory), hierarchy_(hierarchy), random_(611085),
        input_rng_(2017) {
    isa::Program program = build_control_program(params_);
    trace::instrument_function(program, "control_step");
    dsr::apply_pass(program);
    image_ = std::make_unique<isa::LinkedImage>(
        isa::link(program, control_layout(params_, Layout::kCotsBad,
                                          kControlStack)));
    image_->load_into(memory_);
    runtime_ = std::make_unique<dsr::DsrRuntime>(memory_, hierarchy_,
                                                 *image_, random_,
                                                 dsr::RuntimeOptions{});
    runtime_->initialise();
    inputs_ = initial_control_inputs(params_);
  }

  std::uint32_t entry_address() override { return runtime_->entry_address(); }
  std::uint32_t stack_top() override { return kControlStack; }

  void before_activation(std::uint64_t) override {
    refresh_control_inputs(input_rng_, params_, inputs_);
    stage_control_inputs(memory_, hierarchy_, *image_, inputs_);
  }

  void reboot() override {
    // Verify, then re-randomise for the next period.
    const ControlOutputs expected = reference_control(params_, inputs_);
    const ControlOutputs actual =
        read_control_outputs(memory_, *image_, params_);
    verified_ = verified_ && (expected == actual);
    runtime_->rerandomise();
  }

  bool verified() const { return verified_; }
  const dsr::DsrRuntime& runtime() const { return *runtime_; }

private:
  mem::GuestMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  rng::Mwc random_;
  rng::Mwc input_rng_;
  ControlParams params_;
  std::unique_ptr<isa::LinkedImage> image_;
  std::unique_ptr<dsr::DsrRuntime> runtime_;
  ControlInputs inputs_;
  bool verified_ = true;
};

/// The low-criticality partition: image processing (COTS, not analysed).
class ImagePartition final : public rtos::PartitionApp {
public:
  ImagePartition(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy)
      : memory_(memory), hierarchy_(hierarchy), input_rng_(42) {
    params_.grid = 10; // fits the 100 ms frame on the example clock
    isa::Program program = build_image_program(params_);
    isa::LinkOptions image_options;
    image_options.code_base = 0x4300'0000;
    image_options.data_base = 0x4310'0000;
    image_ = std::make_unique<isa::LinkedImage>(
        isa::link(program, image_options));
    image_->load_into(memory_);
  }

  std::uint32_t entry_address() override { return image_->entry_addr(); }
  std::uint32_t stack_top() override { return kImageStack; }

  void before_activation(std::uint64_t) override {
    inputs_ = make_image_inputs(input_rng_, params_);
    stage_image_inputs(memory_, hierarchy_, *image_, inputs_);
  }

  void reboot() override {
    const ImageOutputs expected = reference_image(params_, inputs_);
    const ImageOutputs actual = read_image_outputs(memory_, *image_, params_);
    verified_ = verified_ && (expected == actual);
    lit_total_ += actual.processed_lenses;
  }

  bool verified() const { return verified_; }
  std::uint32_t lit_total() const { return lit_total_; }
  const ImageParams& params() const { return params_; }

private:
  mem::GuestMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  rng::Mwc input_rng_;
  ImageParams params_;
  std::unique_ptr<isa::LinkedImage> image_;
  ImageInputs inputs_;
  bool verified_ = true;
  std::uint32_t lit_total_ = 0;
};

} // namespace

int main() {
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  trace::TraceBuffer trace_buffer;
  trace_buffer.attach(cpu);

  ControlPartition control(memory, hierarchy);
  ImagePartition processing(memory, hierarchy);

  rtos::Hypervisor hypervisor(
      cpu, hierarchy,
      rtos::HypervisorConfig{.minor_frame_ms = 100, .cycles_per_ms = 80000});
  hypervisor.add_partition(
      rtos::PartitionConfig{.name = "control",
                            .period_ms = 1000,
                            .criticality = rtos::Criticality::kHigh,
                            .reboot_after_each_activation = true},
      control);
  hypervisor.add_partition(
      rtos::PartitionConfig{.name = "processing",
                            .period_ms = 100,
                            .criticality = rtos::Criticality::kLow,
                            .reboot_after_each_activation = true},
      processing);

  std::printf("running 30 minor frames (3 s of mission time)...\n\n");
  const auto records = hypervisor.run_frames(30);

  std::printf("%-6s %-12s %-12s %-12s %-6s\n", "frame", "partition",
              "start (cyc)", "used (cyc)", "halt");
  for (std::size_t i = 0; i < records.size() && i < 14; ++i) {
    const rtos::ActivationRecord& r = records[i];
    std::printf("%-6llu %-12s %-12llu %-12llu %-6s\n",
                static_cast<unsigned long long>(r.frame_index),
                r.partition.c_str(),
                static_cast<unsigned long long>(r.start_cycle),
                static_cast<unsigned long long>(r.cycles_used),
                r.halted ? "yes" : "NO");
  }
  std::printf("... (%zu activations total)\n\n", records.size());

  const std::vector<double> uoa_times =
      trace::extract_execution_times(trace_buffer);
  const mbpta::Summary summary = mbpta::summarise(uoa_times);
  std::printf("control task (UoA): %zu activations, min=%.0f avg=%.1f "
              "MOET=%.0f cycles\n",
              summary.count, summary.min, summary.mean, summary.max);
  std::printf("processing task: %u lenses processed across %d frames "
              "(~70%% of %u per frame)\n",
              processing.lit_total(), 30,
              processing.params().lens_count());
  std::printf("relocations performed by the DSR runtime: %llu\n",
              static_cast<unsigned long long>(
                  control.runtime().stats().relocations));
  std::printf("temporal-isolation violations: %llu\n",
              static_cast<unsigned long long>(hypervisor.violations()));
  std::printf("\nfunctional verification: control %s, processing %s\n",
              control.verified() ? "OK" : "FAILED",
              processing.verified() ? "OK" : "FAILED");
  if (!(control.verified() && processing.verified())) {
    return 1;
  }

  // -------------------------------------------------------------------------
  // Part 2 — the measurement campaign, as the analyst runs it: the
  // hypervisor scenario (control task measured under the image guest's
  // interference, DSR-randomised per reboot) executed on the parallel
  // campaign engine.  Bit-identical to the sequential protocol at any
  // worker count, so the pWCET analysis is reproducible however many cores
  // the analysis host happens to have.
  // -------------------------------------------------------------------------
  const std::uint32_t campaign_runs = 80;
  const exec::Scenario& scenario =
      exec::ScenarioRegistry::global().at("hv/control+image-dsr");
  std::printf("\nmeasurement campaign: scenario '%s'\n  (%s)\n",
              scenario.name.c_str(), scenario.description.c_str());

  exec::EngineOptions engine_options; // workers = hardware concurrency
  engine_options.progress = [](std::uint64_t done, std::uint64_t total) {
    std::printf("\r  progress: %llu/%llu runs",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(total));
    std::fflush(stdout);
  };
  const exec::CampaignEngine engine(engine_options);
  const CampaignResult campaign =
      engine.run(scenario.make_config(campaign_runs));
  std::printf("\n");

  const mbpta::Summary campaign_summary = mbpta::summarise(campaign.times);
  std::printf("  %u workers, %zu measured runs, %llu verified against the "
              "golden models\n",
              engine.resolved_workers(campaign_runs), campaign.times.size(),
              static_cast<unsigned long long>(campaign.verified_runs));
  std::printf("  control UoA under interference: min=%.0f avg=%.1f "
              "MOET=%.0f\n",
              campaign_summary.min, campaign_summary.mean,
              campaign_summary.max);
  std::printf("\nper-partition report (cycles granted by the schedule):\n%s",
              trace::PartitionReport::build(
                  partition_series(campaign.samples))
                  .to_string()
                  .c_str());

  const bool campaign_ok =
      campaign.times.size() == campaign_runs &&
      campaign.verified_runs == campaign_runs;
  std::printf("\ncampaign verification: %s\n", campaign_ok ? "OK" : "FAILED");
  return campaign_ok ? 0 : 1;
}
