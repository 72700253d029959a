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
//                 are verified against their golden models (a guest's
//                 also before each activation that restages them).
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
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace proxima::casestudy {

namespace {

/// Stable per-partition indices for exec::derive_partition_seed: fixed per
/// partition kind (not registration order, not measured role), so enabling
/// one guest — or changing which partition is measured — never shifts
/// another's random stream.
constexpr std::uint32_t kControlSeedIndex = 0;
constexpr std::uint32_t kImageSeedIndex = 1;
constexpr std::uint32_t kStressorSeedIndex = 2;
constexpr std::uint32_t kBeaconSeedIndex = 3;

/// Where a guest kind's image is linked and which partition stream its
/// inputs draw from; all fixed per kind.  Guest images sit above the DSR
/// code pool (0x4100'0000 + 32 MiB).
struct GuestPlacement {
  std::uint32_t code_base;
  std::uint32_t data_base;
  std::uint32_t stack_top;
  std::uint32_t seed_index;
};

constexpr GuestPlacement kImageGuest{0x4300'0000, 0x4310'0000, 0x4480'0000,
                                     kImageSeedIndex};
constexpr GuestPlacement kStressorGuest{0x4500'0000, 0x4510'0000,
                                        0x4580'0000, kStressorSeedIndex};
constexpr GuestPlacement kControlGuest{0x4600'0000, 0x4610'0000,
                                       0x4680'0000, kControlSeedIndex};

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

isa::LinkOptions guest_link_options(const GuestPlacement& placement) {
  isa::LinkOptions options;
  options.code_base = placement.code_base;
  options.data_base = placement.data_base;
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
    // Queried at activation time, so an on-demand reseed earlier in the
    // schedule is picked up here.
    std::uint32_t entry_address() override { return runner_.measured_entry(); }
    std::uint32_t stack_top() override { return kControlStackTop; }

  private:
    CampaignRunner& runner_;
  };

  /// An interference guest partition: a task linked at its kind's
  /// placement.  Every activation draws fresh inputs from the kind's
  /// frozen partition stream, reseeded at each run's start, and stages
  /// them; the run's first activation stages in full, because guest memory
  /// still holds the previous run's state.  The task's state restarts from
  /// the image's load-time contents each run, so — unlike the measured
  /// control path, whose stream survives across runs — a guest is a pure
  /// function of the run index with no cross-run host-side replay.
  class GuestApp final : public rtos::PartitionApp {
  public:
    GuestApp(CampaignRunner& runner, std::string partition,
             const GuestPlacement& placement, std::unique_ptr<Task> task)
        : runner_(runner), partition_(std::move(partition)),
          placement_(placement), task_(std::move(task)), rng_(1),
          image_(isa::link(task_->program(), guest_link_options(placement))) {
      image_.load_into(runner_.memory_);
      runner_.cpu_.predecode(image_.code_begin(),
                             image_.code_end() - image_.code_begin());
    }
    // The hypervisor holds the guest's address.
    GuestApp(const GuestApp&) = delete;
    GuestApp& operator=(const GuestApp&) = delete;

    const std::string& partition() const noexcept { return partition_; }
    std::uint32_t entry_address() override { return image_.entry_addr(); }
    std::uint32_t stack_top() override { return placement_.stack_top; }

    void begin_run(std::uint64_t activation) {
      rng_.seed(exec::derive_partition_seed(runner_.config_.input_seed,
                                            exec::SeedStream::kInput,
                                            activation, placement_.seed_index));
      task_->restart();
      first_of_run_ = true;
    }

    void before_activation(std::uint64_t) override {
      verify_last();
      task_->draw(rng_);
      task_->stage(runner_.memory_, runner_.hierarchy_, image_, first_of_run_);
      first_of_run_ = false;
    }

    /// Golden-model check of the guest's latest activation this run (before
    /// the next one restages, and after the schedule); nothing to check
    /// before the run's first activation.
    void verify_last() const {
      if (!first_of_run_ && !task_->verify(runner_.memory_, image_)) {
        runner_.fault(partition_ +
                      " guest outputs diverge from the golden model");
      }
    }

  private:
    CampaignRunner& runner_;
    std::string partition_;
    GuestPlacement placement_;
    std::unique_ptr<Task> task_;
    rng::Mwc rng_;
    isa::LinkedImage image_;
    bool first_of_run_ = true;
  };

  HvState(CampaignRunner& runner, const HvCampaignConfig& hv)
      : measured(runner),
        measured_partition(
            measured_partition_name(runner.config_.measured)),
        hypervisor(runner.cpu_, runner.hierarchy_) {
    // A guest task takes its parameters from the config the measured
    // target reads too.
    const CampaignConfig& config = runner.config_;
    if (hv.control_guest) {
      guests.push_back(std::make_unique<GuestApp>(
          runner, measured_partition_name(MeasuredTargetKind::kControl),
          kControlGuest, make_task(MeasuredTargetKind::kControl, config)));
    }
    if (hv.image_guest) {
      guests.push_back(std::make_unique<GuestApp>(
          runner, measured_partition_name(MeasuredTargetKind::kImage),
          kImageGuest, make_task(MeasuredTargetKind::kImage, config)));
    }
    if (hv.stressor_guest) {
      guests.push_back(std::make_unique<GuestApp>(
          runner, "stressor", kStressorGuest, make_stressor_task()));
    }
    // The measured partition activates once per run, in the LAST minor
    // frame, so the guest activations of every earlier frame precede it.
    // High criticality puts it first within that frame, and that frame's
    // guests follow it: on `hv/control+image-dsr` the image guest evicts
    // the measured code before the next reboot, which is why that
    // scenario's `dsr.lines_invalidated` reads 0.  Each partition is
    // granted the rest of its minor frame.
    const std::uint32_t frame_ms = hypervisor.config().minor_frame_ms;
    const std::uint64_t period = std::uint64_t{hv.frames} * frame_ms;
    if (period > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "hypervisor campaign: frames * minor frame exceeds the 32-bit "
          "period range");
    }
    const auto period_ms = static_cast<std::uint32_t>(period);
    hypervisor.add_partition(
        rtos::PartitionConfig{.name = measured_partition,
                              .period_ms = period_ms,
                              .offset_ms = period_ms - frame_ms,
                              .criticality = rtos::Criticality::kHigh},
        measured);
    for (const std::unique_ptr<GuestApp>& guest : guests) {
      // A task kind occupies one partition: the guest matching the
      // measured target would collide with it (same program, same name).
      if (guest->partition() == measured_partition) {
        throw std::invalid_argument(
            "hypervisor campaign: the " + measured_partition +
            " partition is measured; its task cannot also run as an "
            "interference guest");
      }
      hypervisor.add_partition(
          rtos::PartitionConfig{.name = guest->partition(),
                                .period_ms = frame_ms},
          *guest);
    }
  }

  MeasuredApp measured;
  std::string measured_partition;
  std::vector<std::unique_ptr<GuestApp>> guests; // registration order
  rtos::Hypervisor hypervisor;
  std::vector<rtos::ActivationRecord> records; // last executed schedule
};

void CampaignRunner::hv_build() {
  if (config_.randomisation == Randomisation::kStatic) {
    throw std::invalid_argument(
        "hypervisor campaigns do not support static re-link randomisation: "
        "a re-flash clears the guest partitions' images");
  }
  if (config_.hypervisor->frames == 0) {
    throw std::invalid_argument(
        "hypervisor campaigns need at least one minor frame per run");
  }
  hv_ = std::make_shared<HvState>(*this, *config_.hypervisor);
  if (config_.randomisation == Randomisation::kDsrOnDemand) {
    // Hypervisor on-demand trigger: every granted partition activation
    // (every partition switch the schedule performs) reseeds the measured
    // partition's layout.  The reseed is the hypervisor's own work — host
    // side, charged to no partition; the measured partition picks
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
  advance_inputs(activation);
  stage_inputs(activation);
  for (const std::unique_ptr<HvState::GuestApp>& guest : hv_->guests) {
    guest->begin_run(activation);
  }
}

void CampaignRunner::hv_execute() {
  // The bare protocol's platform rebuild: wipe every level, then run the
  // unmeasured same-layout warm-up activation of the measured program so
  // the measured partition's L2 state entering the schedule is a pure
  // function of this run alone.  The guests then perturb exactly that
  // state — hv/control-solo reproduces the bare analysis protocol, and the
  // guest scenarios differ from it by interference only.
  hierarchy_.flush_all();
  cpu_.reset(measured_entry(), kControlStackTop);
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
    fault("measured activation hit the frame-end fence");
  }

  for (const std::unique_ptr<HvState::GuestApp>& guest : hv_->guests) {
    guest->verify_last();
  }
  verify_measured();
  return sample;
}

void CampaignRunner::hv_record_timeline() {
  // Spans live on the SIMULATED clock: each measured run replays `frames`
  // minor frames from cycle 0, so consecutive runs are laid out end to end
  // at their schedule positions.
  const rtos::HypervisorConfig& clock = hv_->hypervisor.config();
  const std::uint64_t run_base_ms = *current_run_ *
                                    std::uint64_t{config_.hypervisor->frames} *
                                    clock.minor_frame_ms;
  const double cycles_to_us =
      1000.0 / static_cast<double>(clock.cycles_per_ms);
  for (const rtos::ActivationRecord& record : hv_->records) {
    config_.timeline->record(
        "partitions", record.partition,
        "run " + std::to_string(*current_run_) + " frame " +
            std::to_string(record.frame_index),
        static_cast<double>(run_base_ms) * 1000.0 +
            static_cast<double>(record.start_cycle) * cycles_to_us,
        static_cast<double>(record.cycles_used) * cycles_to_us);
  }
}

} // namespace proxima::casestudy
