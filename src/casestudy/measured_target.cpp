#include "measured_target.hpp"

#include "casestudy/stressor_task.hpp"
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

isa::Program Task::build_program() const {
  isa::Program built = program();
  trace::instrument_function(built, uoa_symbol());
  return built;
}

namespace {

/// The paper's high-criticality control task: constant work per
/// activation, persistent instrument state (telemetry rotation, protocol
/// block) refreshed a little every activation.
class ControlTask final : public Task {
public:
  ControlTask(const ControlParams& params, Layout layout)
      : params_(params), layout_(layout),
        inputs_(initial_control_inputs(params)) {}

  isa::Program program() const override {
    return build_control_program(params_);
  }
  const char* uoa_symbol() const noexcept override { return "control_step"; }
  isa::LinkOptions layout_options() const override {
    return control_layout(params_, layout_, kControlStackTop);
  }
  bool stateful() const noexcept override { return true; }

  void restart() override { inputs_ = initial_control_inputs(params_); }
  void draw(rng::Mwc& rng) override {
    refresh_control_inputs(rng, params_, inputs_);
  }
  void stage(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
             const isa::LinkedImage& image, bool full) const override {
    if (!full) {
      stage_control_inputs(memory, hierarchy, image, inputs_);
      return;
    }
    ControlInputs whole = inputs_;
    mark_control_inputs_fully_dirty(whole);
    stage_control_inputs(memory, hierarchy, image, whole);
  }
  bool corrupt_input() const noexcept override { return inputs_.corrupt; }
  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    return reference_control(params_, inputs_) ==
           read_control_outputs(memory, image, params_);
  }
  std::vector<std::string> observable_symbols() const override {
    // Everything the golden model reads back: the actuator command block,
    // the status record and the recovery mirror word.
    return {"cs_commands", "cs_status", "cs_mirror"};
  }

private:
  ControlParams params_;
  Layout layout_;
  ControlInputs inputs_;
};

/// The image-processing task: a complete fresh sensor frame every
/// activation, so no state persists.  Its duration is input-dependent —
/// only the lit ~70% of lenses are processed — so analysis-mode campaigns
/// pin one frame (`fixed_inputs`, and typically `lit_fraction = 1.0`, the
/// all-lenses worst-case path) and MBPTA sees the platform's variability
/// only.
class ImageTask final : public Task {
public:
  explicit ImageTask(const ImageParams& params) : params_(params) {}

  isa::Program program() const override {
    return build_image_program(params_);
  }
  const char* uoa_symbol() const noexcept override { return "image_step"; }

  void draw(rng::Mwc& rng) override {
    inputs_ = make_image_inputs(rng, params_);
  }
  void stage(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
             const isa::LinkedImage& image, bool /*full*/) const override {
    stage_image_inputs(memory, hierarchy, image, inputs_);
  }
  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    return reference_image(params_, inputs_) ==
           read_image_outputs(memory, image, params_);
  }
  std::vector<std::string> observable_symbols() const override {
    return {"im_status", "im_wavefront"};
  }

private:
  ImageParams params_;
  ImageInputs inputs_;
};

/// The address-leak beacon (leak_task.hpp), the `leak/` family's subject:
/// a fresh input block every activation, no persistent state.
class LeakTask final : public Task {
public:
  explicit LeakTask(const LeakParams& params) : params_(params) {}

  isa::Program program() const override { return build_leak_program(params_); }
  const char* uoa_symbol() const noexcept override { return "leak_step"; }

  void draw(rng::Mwc& rng) override {
    inputs_ = make_leak_inputs(rng, params_);
  }
  void stage(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
             const isa::LinkedImage& image, bool /*full*/) const override {
    stage_leak_inputs(memory, hierarchy, image, inputs_);
  }
  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    // The beacon word is deliberately outside the golden model: under
    // randomisation its value is the (unpredictable) layout.
    return reference_leak(params_, inputs_) == read_leak_outputs(memory, image);
  }
  std::vector<std::string> observable_symbols() const override {
    return {"lk_status"};
  }

private:
  LeakParams params_;
  LeakInputs inputs_;
};

/// The synthetic L2-evicting sweep (default `StressorParams`): a fresh
/// salt every activation.
class StressorTask final : public Task {
public:
  isa::Program program() const override { return build_stressor_program(); }
  const char* uoa_symbol() const noexcept override { return "stress_sweep"; }

  void draw(rng::Mwc& rng) override { salt_ = rng.next_u32(); }
  void stage(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
             const isa::LinkedImage& image, bool /*full*/) const override {
    stage_stressor_inputs(memory, hierarchy, image, salt_);
  }
  bool verify(const mem::GuestMemory& memory,
              const isa::LinkedImage& image) const override {
    return reference_stressor(StressorParams{}, salt_) ==
           read_stressor_outputs(memory, image);
  }
  std::vector<std::string> observable_symbols() const override {
    return {"st_status"};
  }

private:
  std::uint32_t salt_ = 0;
};

} // namespace

std::unique_ptr<Task> make_task(MeasuredTargetKind kind,
                                const CampaignConfig& config) {
  switch (kind) {
  case MeasuredTargetKind::kImage:
    return std::make_unique<ImageTask>(config.image);
  case MeasuredTargetKind::kLeakyBeacon:
  case MeasuredTargetKind::kHardenedBeacon: {
    LeakParams params = config.leak;
    params.hardened = kind == MeasuredTargetKind::kHardenedBeacon;
    return std::make_unique<LeakTask>(params);
  }
  case MeasuredTargetKind::kControl:
    break;
  }
  return std::make_unique<ControlTask>(config.control, config.layout);
}

std::unique_ptr<Task> make_stressor_task() {
  return std::make_unique<StressorTask>();
}

std::unique_ptr<Task> make_measured_target(const CampaignConfig& config) {
  return make_task(config.measured, config);
}

} // namespace proxima::casestudy
