// Hypervisor-campaign mode of the CampaignRunner (Section IV's PikeOS
// setting): the measured target (CampaignConfig::measured) measured while
// guest partitions share the platform.
//
// Protocol per measured run (see HvCampaignConfig in campaign.hpp):
//   1. setup    — per-partition seed derivation: the measured partition's
//                 layout (DSR reboot / hardware cache reseed) and each
//                 guest's input stream draw from
//                 exec::derive_partition_seed of the run's global
//                 activation index, so the whole platform state is a pure
//                 function of the run index and the engine shards hv
//                 scenarios exactly like bare ones;
//   2. execute  — full platform wipe + the bare protocol's unmeasured
//                 same-layout warm-up of the measured program, then the
//                 cyclic schedule replayed from a fresh timeline: guests
//                 activate every minor frame, the measured partition once
//                 in the LAST frame (after the interference), with the
//                 hypervisor's partition-start L1 flushes;
//   3. collect  — the measured activation's UoA time from the trace is the
//                 run's sample; every partition's ActivationRecords become
//                 the run's PartitionActivity; measured and guest outputs
//                 are verified against their golden models.
//
// Seed-index freeze: exec::derive_partition_seed indices are fixed PER
// TASK KIND — control = 0, image = 1, stressor = 2 — never per
// registration order or measured role.  This is test-locked: it keeps
// every pre-existing scenario's random streams (and therefore its times
// digests) bit-identical across refactors, and it means promoting a guest
// to the measured slot (or vice versa) never shifts another partition's
// stream.
#include "casestudy/campaign_runner.hpp"

#include "exec/seed.hpp"
#include "obs/timeline.hpp"
#include "rng/mwc.hpp"
#include "rtos/hypervisor.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace proxima::casestudy {

namespace {

// Guest image bases: above the DSR code pool (0x4100'0000 + 32 MiB).
constexpr std::uint32_t kImageCodeBase = 0x4300'0000;
constexpr std::uint32_t kImageDataBase = 0x4310'0000;
constexpr std::uint32_t kImageStackTop = 0x4480'0000;
constexpr std::uint32_t kStressorCodeBase = 0x4500'0000;
constexpr std::uint32_t kStressorDataBase = 0x4510'0000;
constexpr std::uint32_t kStressorStackTop = 0x4580'0000;
constexpr std::uint32_t kControlGuestCodeBase = 0x4600'0000;
constexpr std::uint32_t kControlGuestDataBase = 0x4610'0000;
constexpr std::uint32_t kControlGuestStackTop = 0x4680'0000;

/// Stable per-partition indices for exec::derive_partition_seed: fixed per
/// partition kind (not registration order, not measured role), so enabling
/// one guest — or changing which partition is measured — never shifts
/// another's random stream.
constexpr std::uint32_t kControlSeedIndex = 0;
constexpr std::uint32_t kImageSeedIndex = 1;
constexpr std::uint32_t kStressorSeedIndex = 2;
constexpr std::uint32_t kBeaconSeedIndex = 3;

constexpr const char* kStressorPartition = "stressor";

std::uint32_t measured_seed_index(MeasuredTargetKind kind) {
  switch (kind) {
  case MeasuredTargetKind::kImage:
    return kImageSeedIndex;
  case MeasuredTargetKind::kLeakyBeacon:
  case MeasuredTargetKind::kHardenedBeacon:
    return kBeaconSeedIndex;
  case MeasuredTargetKind::kControl:
    break;
  }
  return kControlSeedIndex;
}

isa::LinkOptions guest_link_options(std::uint32_t code_base,
                                    std::uint32_t data_base) {
  isa::LinkOptions options;
  options.code_base = code_base;
  options.data_base = data_base;
  return options;
}

} // namespace

struct CampaignRunner::HvState {
  /// The measured partition: a thin app over the runner's measured image.
  /// Inputs are staged by setup() (the same advance/stage path as the bare
  /// protocol), so activation start needs nothing beyond the entry point —
  /// which follows the DSR layout of the current run.
  class MeasuredApp final : public rtos::PartitionApp {
  public:
    explicit MeasuredApp(CampaignRunner& runner) : runner_(runner) {}
    std::uint32_t entry_address() override {
      // Queried at activation time, so an on-demand reseed earlier in the
      // schedule is picked up here.
      return uses_dsr(runner_.config_.randomisation)
                 ? runner_.runtime_->entry_address()
                 : runner_.image_.entry_addr();
    }
    std::uint32_t stack_top() override { return runner_.target_->stack_top(); }

  private:
    CampaignRunner& runner_;
  };

  /// The control task as an interference guest (the measured target is
  /// another partition): a fresh input refresh every minor frame.  The
  /// persistent instrument state restarts from the image's load-time
  /// contents each run — the per-run reseed plus a full first-activation
  /// re-stage keeps the whole guest a pure function of the run index, so
  /// the engine's sharding contract holds without cross-run host-side
  /// replay (unlike the measured control path, whose stream survives
  /// across runs).
  class ControlGuestApp final : public rtos::PartitionApp {
  public:
    ControlGuestApp(CampaignRunner& runner, const ControlParams& params)
        : runner_(runner), params_(params), rng_(1),
          image_(isa::link(build_control_program(params_),
                           guest_link_options(kControlGuestCodeBase,
                                              kControlGuestDataBase))),
          inputs_(initial_control_inputs(params_)) {
      image_.load_into(runner_.memory_);
      runner_.cpu_.predecode(image_.code_begin(),
                             image_.code_end() - image_.code_begin());
    }

    std::uint32_t entry_address() override { return image_.entry_addr(); }
    std::uint32_t stack_top() override { return kControlGuestStackTop; }

    void begin_run(std::uint64_t activation) {
      rng_.seed(exec::derive_partition_seed(runner_.config_.input_seed,
                                            exec::SeedStream::kInput,
                                            activation, kControlSeedIndex));
      inputs_ = initial_control_inputs(params_);
      full_stage_ = true; // guest memory still holds the previous run's state
      staged_ = false;
    }

    void before_activation(std::uint64_t) override {
      refresh_control_inputs(rng_, params_, inputs_);
      ControlInputs to_stage = inputs_;
      if (full_stage_) {
        mark_control_inputs_fully_dirty(to_stage);
        full_stage_ = false;
      }
      for (const auto& [addr, length] :
           stage_control_inputs(runner_.memory_, image_, to_stage)) {
        runner_.note_staged_range(addr, length);
      }
      staged_ = true;
    }

    /// Golden-model check of the most recent activation (its outputs are
    /// still resident when the run's schedule completes).
    void verify_last() const {
      if (!staged_) {
        return;
      }
      const ControlOutputs expected = reference_control(params_, inputs_);
      const ControlOutputs actual =
          read_control_outputs(runner_.memory_, image_, params_);
      if (!(expected == actual)) {
        runner_.fault("control guest outputs diverge from the golden model");
      }
    }

  private:
    CampaignRunner& runner_;
    ControlParams params_;
    rng::Mwc rng_;
    isa::LinkedImage image_;
    ControlInputs inputs_;
    bool full_stage_ = true;
    bool staged_ = false;
  };

  /// The image-processing task as a low-criticality guest: a fresh sensor
  /// frame every activation, drawn from this run's partition stream.
  class ImageGuestApp final : public rtos::PartitionApp {
  public:
    ImageGuestApp(CampaignRunner& runner, const ImageParams& params)
        : runner_(runner), params_(params), rng_(1),
          image_(isa::link(build_image_program(params_),
                           guest_link_options(kImageCodeBase,
                                              kImageDataBase))) {
      image_.load_into(runner_.memory_);
      runner_.cpu_.predecode(image_.code_begin(),
                             image_.code_end() - image_.code_begin());
    }

    std::uint32_t entry_address() override { return image_.entry_addr(); }
    std::uint32_t stack_top() override { return kImageStackTop; }

    void begin_run(std::uint64_t activation) {
      rng_.seed(exec::derive_partition_seed(runner_.config_.input_seed,
                                            exec::SeedStream::kInput,
                                            activation, kImageSeedIndex));
      staged_ = false;
    }

    void before_activation(std::uint64_t) override {
      inputs_ = make_image_inputs(rng_, params_);
      stage_image_inputs(runner_.memory_, image_, inputs_);
      runner_.note_staged_range(image_.symbol("im_frame").addr,
                                params_.frame_bytes());
      runner_.note_staged_range(image_.symbol("im_status").addr, 16);
      staged_ = true;
    }

    /// Golden-model check of the most recent activation (its outputs are
    /// still resident when the run's schedule completes).
    void verify_last() const {
      if (!staged_) {
        return;
      }
      const ImageOutputs expected = reference_image(params_, inputs_);
      const ImageOutputs actual =
          read_image_outputs(runner_.memory_, image_, params_);
      if (!(expected == actual)) {
        runner_.fault("image guest outputs diverge from the golden model");
      }
    }

  private:
    CampaignRunner& runner_;
    ImageParams params_;
    rng::Mwc rng_;
    isa::LinkedImage image_;
    ImageInputs inputs_;
    bool staged_ = false;
  };

  /// The synthetic L2-evicting sweep as a low-criticality guest.
  class StressorGuestApp final : public rtos::PartitionApp {
  public:
    StressorGuestApp(CampaignRunner& runner, const StressorParams& params)
        : runner_(runner), params_(params), rng_(1),
          image_(isa::link(build_stressor_program(params_),
                           guest_link_options(kStressorCodeBase,
                                              kStressorDataBase))) {
      image_.load_into(runner_.memory_);
      runner_.cpu_.predecode(image_.code_begin(),
                             image_.code_end() - image_.code_begin());
    }

    std::uint32_t entry_address() override { return image_.entry_addr(); }
    std::uint32_t stack_top() override { return kStressorStackTop; }

    void begin_run(std::uint64_t activation) {
      rng_.seed(exec::derive_partition_seed(runner_.config_.input_seed,
                                            exec::SeedStream::kInput,
                                            activation, kStressorSeedIndex));
      staged_ = false;
    }

    void before_activation(std::uint64_t) override {
      salt_ = rng_.next_u32();
      for (const auto& [addr, length] :
           stage_stressor_inputs(runner_.memory_, image_, salt_)) {
        runner_.note_staged_range(addr, length);
      }
      staged_ = true;
    }

    void verify_last() const {
      if (!staged_) {
        return;
      }
      const StressorOutputs expected = reference_stressor(params_, salt_);
      const StressorOutputs actual =
          read_stressor_outputs(runner_.memory_, image_);
      if (!(expected == actual)) {
        runner_.fault("stressor guest output diverges from the golden model");
      }
    }

  private:
    CampaignRunner& runner_;
    StressorParams params_;
    rng::Mwc rng_;
    isa::LinkedImage image_;
    std::uint32_t salt_ = 0;
    bool staged_ = false;
  };

  HvState(CampaignRunner& runner, const HvCampaignConfig& hv)
      : measured(runner),
        measured_partition(
            measured_partition_name(runner.config_.measured)),
        hypervisor(runner.cpu_, runner.hierarchy_,
                   rtos::HypervisorConfig{hv.minor_frame_ms,
                                          hv.cycles_per_ms}) {
    if (hv.control_guest) {
      control.emplace(runner, runner.config_.control);
    }
    if (hv.image_guest) {
      image.emplace(runner, hv.image);
    }
    if (hv.stressor_guest) {
      stressor.emplace(runner, hv.stressor);
    }
    // The measured partition activates once per run, in the LAST minor
    // frame, so every guest activation of the run precedes the measured
    // one; high criticality still puts it first within that frame.
    const std::uint64_t period = std::uint64_t{hv.frames} * hv.minor_frame_ms;
    if (period > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "hypervisor campaign: frames * minor_frame_ms exceeds the 32-bit "
          "period range");
    }
    const auto period_ms = static_cast<std::uint32_t>(period);
    hypervisor.add_partition(
        rtos::PartitionConfig{.name = measured_partition,
                              .period_ms = period_ms,
                              .offset_ms = period_ms - hv.minor_frame_ms,
                              .budget_ms = hv.measured_budget_ms,
                              .criticality = rtos::Criticality::kHigh},
        measured);
    if (control) {
      hypervisor.add_partition(
          rtos::PartitionConfig{
              .name = measured_partition_name(MeasuredTargetKind::kControl),
              .period_ms = hv.minor_frame_ms,
              .budget_ms = hv.control_guest_budget_ms},
          *control);
    }
    if (image) {
      hypervisor.add_partition(
          rtos::PartitionConfig{
              .name = measured_partition_name(MeasuredTargetKind::kImage),
              .period_ms = hv.minor_frame_ms,
              .budget_ms = hv.image_budget_ms},
          *image);
    }
    if (stressor) {
      hypervisor.add_partition(
          rtos::PartitionConfig{.name = kStressorPartition,
                                .period_ms = hv.minor_frame_ms,
                                .budget_ms = hv.stressor_budget_ms},
          *stressor);
    }
  }

  MeasuredApp measured;
  std::string measured_partition;
  std::optional<ControlGuestApp> control;
  std::optional<ImageGuestApp> image;
  std::optional<StressorGuestApp> stressor;
  rtos::Hypervisor hypervisor;
  std::vector<rtos::ActivationRecord> records; // last executed schedule
};

void CampaignRunner::hv_build() {
  const HvCampaignConfig& hv = *config_.hypervisor;
  if (config_.randomisation == Randomisation::kStatic) {
    throw std::invalid_argument(
        "hypervisor campaigns do not support static re-link randomisation: "
        "a re-flash clears the guest partitions' images");
  }
  if (hv.frames == 0) {
    throw std::invalid_argument(
        "hypervisor campaigns need at least one minor frame per run");
  }
  // A task kind occupies one partition: the guest matching the measured
  // target would collide with it (same program, same partition name).
  if (config_.measured == MeasuredTargetKind::kControl && hv.control_guest) {
    throw std::invalid_argument(
        "hypervisor campaign: the control task is the measured partition; "
        "it cannot also run as an interference guest");
  }
  if (config_.measured == MeasuredTargetKind::kImage && hv.image_guest) {
    throw std::invalid_argument(
        "hypervisor campaign: the image task is the measured partition; "
        "it cannot also run as an interference guest");
  }
  hv_ = std::make_shared<HvState>(*this, hv);
  if (config_.randomisation == Randomisation::kDsrOnDemand) {
    // Hypervisor on-demand trigger: every granted partition activation
    // (every partition switch the schedule performs) reseeds the measured
    // partition's layout.  The reseed is the hypervisor's own work — host
    // side, charged to no partition budget; the measured partition picks
    // the fresh layout up through entry_address()/its function table.
    hv_->hypervisor.set_activation_hook(
        [this] { (void)runtime_->rerandomise_on_demand(); });
  }
}

void CampaignRunner::hv_setup(std::uint64_t activation) {
  // Per-partition layout stream: the measured partition's reboot draws its
  // layout from its kind's fixed partition index of this run's derived
  // seeds (kStatic, the only arm a bare campaign adds, is rejected in
  // hv_build).  The measured partition's INPUTS keep the bare protocol's
  // run-seed stream — that equivalence is what makes hv/control-solo
  // bit-identical to control/analysis-cots.
  apply_randomisation(exec::derive_partition_seed(
      config_.layout_seed, exec::SeedStream::kLayout, activation,
      measured_seed_index(config_.measured)));
  target_->advance_inputs(activation);
  stage_inputs(activation);
  if (hv_->control) {
    hv_->control->begin_run(activation);
  }
  if (hv_->image) {
    hv_->image->begin_run(activation);
  }
  if (hv_->stressor) {
    hv_->stressor->begin_run(activation);
  }
}

void CampaignRunner::hv_execute() {
  const bool use_dsr = uses_dsr(config_.randomisation);
  const std::uint32_t entry =
      use_dsr ? runtime_->entry_address() : image_.entry_addr();

  // The bare protocol's platform rebuild: wipe every level, then run the
  // unmeasured same-layout warm-up activation of the measured program so
  // the measured partition's L2 state entering the schedule is a pure
  // function of this run alone.  The guests then perturb exactly that
  // state — hv/control-solo reproduces the bare analysis protocol, and the
  // guest scenarios differ from it by interference only.
  hierarchy_.flush_all();
  cpu_.reset(entry, target_->stack_top());
  if (cpu_.run().stop != vm::RunResult::Stop::kHalt) {
    fault("hv warm-up activation did not halt");
  }
  hierarchy_.counters().reset();
  obs_rebase_mix(); // warm-up instructions stay out of vm.mix.*
  trace_buffer_.clear();

  // Replay the cyclic schedule from a fresh timeline.  Partition-start L1
  // flushes are the hypervisor's own (PikeOS semantics).
  hv_->hypervisor.reset_schedule();
  hv_->records = hv_->hypervisor.run_frames(config_.hypervisor->frames);
}

RunSample CampaignRunner::hv_collect() {
  // The schedule carries exactly one instrumented activation: the measured
  // partition's, in the last minor frame (guests are not instrumented).
  const std::vector<double> times =
      trace::extract_execution_times(trace_buffer_);
  if (times.size() != 1) {
    fault("expected exactly one measured activation per schedule");
  }
  RunSample sample;
  sample.uoa_cycles = times.front();
  sample.corrupt_input = target_->corrupt_input();
  sample.counters = hierarchy_.counters(); // the whole schedule's traffic

  for (const std::string& name : hv_->hypervisor.partition_names()) {
    sample.partitions.push_back(PartitionActivity{name, {}, 0});
  }
  bool measured_completed = false;
  for (const rtos::ActivationRecord& record : hv_->records) {
    const auto it =
        std::find_if(sample.partitions.begin(), sample.partitions.end(),
                     [&](const PartitionActivity& activity) {
                       return activity.partition == record.partition;
                     });
    it->cycles.push_back(static_cast<double>(record.cycles_used));
    if (record.overran) {
      ++it->overruns;
    }
    if (record.partition == hv_->measured_partition) {
      measured_completed = record.halted && !record.overran;
    }
  }
  if (!measured_completed) {
    fault("measured activation hit the budget fence");
  }

  if (config_.verify_outputs) {
    if (hv_->control) {
      hv_->control->verify_last();
    }
    if (hv_->image) {
      hv_->image->verify_last();
    }
    if (hv_->stressor) {
      hv_->stressor->verify_last();
    }
    verify_measured();
  }
  return sample;
}

void CampaignRunner::hv_publish_obs() {
  const HvCampaignConfig& hv = *config_.hypervisor;
  const std::uint64_t frame_cycles =
      std::uint64_t{hv.minor_frame_ms} * hv.cycles_per_ms;
  // Nominal budget fence of a partition, in ms (0 = the whole minor frame)
  // — partition names are unique per task kind (hv_build rejects the
  // measured kind doubling as a guest).
  const auto budget_ms_of = [&](const std::string& name) -> std::uint32_t {
    if (name == hv_->measured_partition) {
      return hv.measured_budget_ms;
    }
    if (name == measured_partition_name(MeasuredTargetKind::kControl)) {
      return hv.control_guest_budget_ms;
    }
    if (name == measured_partition_name(MeasuredTargetKind::kImage)) {
      return hv.image_budget_ms;
    }
    return hv.stressor_budget_ms; // kStressorPartition
  };
  // Timeline spans live on the SIMULATED clock: each measured run replays
  // `frames` minor frames from cycle 0, so consecutive runs are laid out
  // end to end at their schedule positions.
  const std::uint64_t run_base_ms =
      *current_run_ * std::uint64_t{hv.frames} * hv.minor_frame_ms;
  for (const rtos::ActivationRecord& record : hv_->records) {
    if (config_.collect_metrics) {
      const std::string prefix = "hv." + record.partition + ".";
      run_metrics_.add(prefix + "activations", 1);
      run_metrics_.add(prefix + "consumed_cycles", record.cycles_used);
      const std::uint32_t budget_ms = budget_ms_of(record.partition);
      run_metrics_.add(prefix + "granted_cycles",
                       std::uint64_t{budget_ms != 0 ? budget_ms
                                                    : hv.minor_frame_ms} *
                           hv.cycles_per_ms);
      if (record.overran) {
        run_metrics_.add(prefix + "overruns", 1);
      }
      run_metrics_.record(prefix + "frame_occupancy_pct",
                          record.cycles_used * 100 / frame_cycles);
    }
    if (config_.timeline != nullptr) {
      const double cycles_to_us = 1000.0 / static_cast<double>(hv.cycles_per_ms);
      config_.timeline->record(
          "partitions", record.partition,
          "run " + std::to_string(*current_run_) + " frame " +
              std::to_string(record.frame_index),
          static_cast<double>(run_base_ms) * 1000.0 +
              static_cast<double>(record.start_cycle) * cycles_to_us,
          static_cast<double>(record.cycles_used) * cycles_to_us);
    }
  }
}

} // namespace proxima::casestudy
