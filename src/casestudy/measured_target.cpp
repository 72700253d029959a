#include "measured_target.hpp"

#include "exec/seed.hpp"
#include "trace/trace.hpp"

namespace proxima::casestudy {

const char* measured_target_name(MeasuredTargetKind kind) noexcept {
  switch (kind) {
  case MeasuredTargetKind::kImage:
    return "image";
  case MeasuredTargetKind::kLeakyBeacon:
    return "leak-beacon";
  case MeasuredTargetKind::kHardenedBeacon:
    return "leak-hardened";
  case MeasuredTargetKind::kControl:
    break;
  }
  return "control";
}

const char* randomisation_name(Randomisation randomisation) noexcept {
  switch (randomisation) {
  case Randomisation::kDsr:
    return "dsr";
  case Randomisation::kDsrOnDemand:
    return "dsr-ondemand";
  case Randomisation::kStatic:
    return "static";
  case Randomisation::kHardware:
    return "hwrand";
  case Randomisation::kNone:
    break;
  }
  return "cots";
}

const char* measured_partition_name(MeasuredTargetKind kind) noexcept {
  switch (kind) {
  case MeasuredTargetKind::kImage:
    return "processing";
  case MeasuredTargetKind::kLeakyBeacon:
  case MeasuredTargetKind::kHardenedBeacon:
    return "beacon";
  case MeasuredTargetKind::kControl:
    break;
  }
  return "control";
}

namespace {

/// The paper's control task as the measured target — the logic previously
/// hard-coded in CampaignRunner, verbatim: the refactor is test-locked to
/// bit-identical times for every pre-existing scenario.
class ControlTarget final : public MeasuredTarget {
public:
  explicit ControlTarget(const CampaignConfig& config)
      : config_(config), rng_(config.input_seed),
        inputs_(initial_control_inputs(config.control)) {}

  MeasuredTargetKind kind() const noexcept override {
    return MeasuredTargetKind::kControl;
  }
  const char* uoa_symbol() const noexcept override { return "control_step"; }
  bool input_dependent_duration() const noexcept override { return false; }

  isa::Program build_program() const override {
    isa::Program program = build_control_program(config_.control);
    trace::instrument_function(program, uoa_symbol());
    return program;
  }

  isa::LinkOptions layout_options() const override {
    return control_layout(config_.control, config_.layout, kControlStackTop);
  }

  void advance_inputs(std::uint64_t activation) override {
    if (config_.randomisation == Randomisation::kStatic) {
      // A re-flashed board: the persistent instrument state restarts from
      // the image's load-time contents every run.
      if (config_.fixed_inputs) {
        if (!pinned_inputs_) {
          inputs_ = initial_control_inputs(config_.control);
          rng_.seed(exec::derive_run_seed(config_.input_seed,
                                          exec::SeedStream::kInput, 0));
          refresh_control_inputs(rng_, config_.control, inputs_);
          pinned_inputs_ = inputs_;
        } else {
          inputs_ = *pinned_inputs_;
        }
      } else {
        inputs_ = initial_control_inputs(config_.control);
        rng_.seed(exec::derive_run_seed(config_.input_seed,
                                        exec::SeedStream::kInput, activation));
        refresh_control_inputs(rng_, config_.control, inputs_);
      }
      return;
    }
    // Streamed persistent state: replay the per-activation refreshes across
    // any skipped indices so the host mirror (telemetry rotation, protocol
    // block) is exactly what the sequential protocol would hold.
    while (input_pos_ <= activation) {
      if (!config_.fixed_inputs || input_pos_ == 0) {
        rng_.seed(exec::derive_run_seed(config_.input_seed,
                                        exec::SeedStream::kInput, input_pos_));
        refresh_control_inputs(rng_, config_.control, inputs_);
      }
      ++input_pos_;
    }
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>>
  stage_inputs(mem::GuestMemory& memory, const isa::LinkedImage& image,
               bool full_resync) override {
    if (full_resync) {
      ControlInputs full = inputs_;
      mark_control_inputs_fully_dirty(full);
      return stage_control_inputs(memory, image, full);
    }
    return stage_control_inputs(memory, image, inputs_);
  }

  bool corrupt_input() const noexcept override { return inputs_.corrupt; }

  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    const ControlOutputs expected = reference_control(config_.control, inputs_);
    const ControlOutputs actual =
        read_control_outputs(memory, image, config_.control);
    return expected == actual;
  }

  std::vector<std::string> observable_symbols() const override {
    // Everything the golden model reads back: the actuator command block,
    // the status record and the recovery mirror word.
    return {"cs_commands", "cs_status", "cs_mirror"};
  }

private:
  const CampaignConfig& config_;
  rng::Mwc rng_;
  ControlInputs inputs_;
  std::optional<ControlInputs> pinned_inputs_; // fixed_inputs analysis vector
  std::uint64_t input_pos_ = 0; // activations consumed from the input stream
};

/// The image-processing task as the measured target.  No persistent guest
/// state: every activation stages a complete fresh sensor frame, so a
/// shard skip needs no replay and `full_resync` is moot.  The defining
/// property is input-dependent duration — operation-mode campaigns measure
/// a program whose work varies with the frame, analysis-mode campaigns pin
/// one frame (and typically `lit_fraction = 1.0`, the all-lenses
/// worst-case path) so the variability left is the platform's.
class ImageTarget final : public MeasuredTarget {
public:
  explicit ImageTarget(const CampaignConfig& config)
      : config_(config), rng_(config.input_seed) {}

  MeasuredTargetKind kind() const noexcept override {
    return MeasuredTargetKind::kImage;
  }
  const char* uoa_symbol() const noexcept override { return "image_step"; }
  bool input_dependent_duration() const noexcept override { return true; }

  isa::Program build_program() const override {
    isa::Program program = build_image_program(config_.image);
    trace::instrument_function(program, uoa_symbol());
    return program;
  }

  isa::LinkOptions layout_options() const override {
    // The image task has no engineered bad-and-rare placement: the study's
    // interest is its input-dependent duration, so the base layout is the
    // linker's plain sequential one (`Layout` is control-task-specific).
    return isa::LinkOptions{};
  }

  void advance_inputs(std::uint64_t activation) override {
    if (config_.fixed_inputs) {
      // Analysis protocol: one frame drawn at activation 0, replayed every
      // run — the duration's input dependence is pinned away.
      if (!pinned_inputs_) {
        rng_.seed(exec::derive_run_seed(config_.input_seed,
                                        exec::SeedStream::kInput, 0));
        pinned_inputs_ = make_image_inputs(rng_, config_.image);
      }
      inputs_ = *pinned_inputs_;
      return;
    }
    rng_.seed(exec::derive_run_seed(config_.input_seed,
                                    exec::SeedStream::kInput, activation));
    inputs_ = make_image_inputs(rng_, config_.image);
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>>
  stage_inputs(mem::GuestMemory& memory, const isa::LinkedImage& image,
               bool /*full_resync*/) override {
    return stage_image_inputs(memory, image, inputs_);
  }

  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    const ImageOutputs expected = reference_image(config_.image, inputs_);
    const ImageOutputs actual =
        read_image_outputs(memory, image, config_.image);
    return expected == actual;
  }

  std::vector<std::string> observable_symbols() const override {
    return {"im_status", "im_wavefront"};
  }

private:
  const CampaignConfig& config_;
  rng::Mwc rng_;
  ImageInputs inputs_;
  std::optional<ImageInputs> pinned_inputs_; // fixed_inputs analysis frame
};

/// The address-leak beacon as the measured target (leak_task.hpp): the
/// `leak/` family's subject.  Input handling mirrors the image task — no
/// persistent guest state, a fresh block per activation, so shard skips
/// need no replay.  The kind decides leaky vs hardened; everything else is
/// shared.
class LeakTarget final : public MeasuredTarget {
public:
  explicit LeakTarget(const CampaignConfig& config)
      : config_(config), rng_(config.input_seed) {
    params_ = config.leak;
    params_.hardened = config.measured == MeasuredTargetKind::kHardenedBeacon;
  }

  MeasuredTargetKind kind() const noexcept override {
    return config_.measured;
  }
  const char* uoa_symbol() const noexcept override { return "leak_step"; }
  bool input_dependent_duration() const noexcept override { return false; }

  isa::Program build_program() const override {
    isa::Program program = build_leak_program(params_);
    trace::instrument_function(program, uoa_symbol());
    return program;
  }

  isa::LinkOptions layout_options() const override {
    return isa::LinkOptions{}; // plain sequential layout, like the image task
  }

  void advance_inputs(std::uint64_t activation) override {
    if (config_.fixed_inputs) {
      if (!pinned_inputs_) {
        rng_.seed(exec::derive_run_seed(config_.input_seed,
                                        exec::SeedStream::kInput, 0));
        pinned_inputs_ = make_leak_inputs(rng_, params_);
      }
      inputs_ = *pinned_inputs_;
      return;
    }
    rng_.seed(exec::derive_run_seed(config_.input_seed,
                                    exec::SeedStream::kInput, activation));
    inputs_ = make_leak_inputs(rng_, params_);
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>>
  stage_inputs(mem::GuestMemory& memory, const isa::LinkedImage& image,
               bool /*full_resync*/) override {
    return stage_leak_inputs(memory, image, inputs_);
  }

  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    // The beacon word is deliberately outside the golden model: under
    // randomisation its value is the (unpredictable) layout.
    const LeakOutputs expected = reference_leak(params_, inputs_);
    const LeakOutputs actual = read_leak_outputs(memory, image);
    return expected == actual;
  }

  std::vector<std::string> observable_symbols() const override {
    return {"lk_status"};
  }

private:
  const CampaignConfig& config_;
  LeakParams params_;
  rng::Mwc rng_;
  LeakInputs inputs_;
  std::optional<LeakInputs> pinned_inputs_;
};

} // namespace

std::unique_ptr<MeasuredTarget> make_measured_target(
    const CampaignConfig& config) {
  switch (config.measured) {
  case MeasuredTargetKind::kImage:
    return std::make_unique<ImageTarget>(config);
  case MeasuredTargetKind::kLeakyBeacon:
  case MeasuredTargetKind::kHardenedBeacon:
    return std::make_unique<LeakTarget>(config);
  case MeasuredTargetKind::kControl:
    break;
  }
  return std::make_unique<ControlTarget>(config);
}

} // namespace proxima::casestudy
