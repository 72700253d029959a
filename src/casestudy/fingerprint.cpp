#include "fingerprint.hpp"

#include <bit>
#include <cstdio>
#include <string_view>

namespace proxima::casestudy {

namespace {

/// Tagged FNV-1a fold: every field contributes its name and its value
/// bytes, so transposed values of adjacent fields can never collide and a
/// field's meaning is pinned by its tag, not its struct position.
class Fold {
public:
  void bytes(std::string_view data) {
    for (const char c : data) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void tag(std::string_view name) {
    bytes(name);
    hash_ ^= 0x3a; // ':' separator byte, outside the value alphabet below
    hash_ *= 0x100000001b3ULL;
  }
  void u64(std::string_view name, std::uint64_t value) {
    tag(name);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<unsigned char>(value >> (8 * i));
      hash_ *= 0x100000001b3ULL;
    }
  }
  void f64(std::string_view name, double value) {
    u64(name, std::bit_cast<std::uint64_t>(value));
  }
  void boolean(std::string_view name, bool value) {
    u64(name, value ? 1 : 0);
  }
  void str(std::string_view name, std::string_view value) {
    u64(name, value.size());
    bytes(value);
  }

  std::uint64_t hash() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL; // FNV-1a offset basis
};

void fold_control(Fold& fold, const ControlParams& p) {
  fold.u64("control.actuators", p.actuators);
  fold.u64("control.modes", p.modes);
  fold.u64("control.telemetry_bytes", p.telemetry_bytes);
  fold.u64("control.telemetry_window", p.telemetry_window);
  fold.u64("control.telemetry_chunk", p.telemetry_chunk);
  fold.u64("control.packet_words", p.packet_words);
  fold.f64("control.corrupt_rate", p.corrupt_rate);
  fold.u64("control.protocol_block", p.protocol_block);
  fold.u64("control.recovery_passes", p.recovery_passes);
  fold.f64("control.command_limit", p.command_limit);
}

void fold_image(Fold& fold, const ImageParams& p) {
  fold.u64("image.grid", p.grid);
  fold.u64("image.lens_px", p.lens_px);
  fold.u64("image.modes", p.modes);
  fold.u64("image.window", p.window);
  fold.f64("image.lit_fraction", p.lit_fraction);
}

void fold_leak(Fold& fold, const LeakParams& p) {
  fold.u64("leak.words", p.words);
  fold.u64("leak.rounds", p.rounds); // `hardened`: see fingerprint.hpp
}

void fold_hypervisor(Fold& fold, const HvCampaignConfig& hv) {
  fold.u64("hv.frames", hv.frames);
  fold.boolean("hv.control_guest", hv.control_guest);
  fold.boolean("hv.image_guest", hv.image_guest);
  fold.boolean("hv.stressor_guest", hv.stressor_guest);
}

} // namespace

std::uint64_t config_fingerprint(const CampaignConfig& config) {
  Fold fold;
  fold.u64("format", 1); // bump to invalidate every stored cell at once
  fold.u64("measured", static_cast<std::uint64_t>(config.measured));
  fold_control(fold, config.control);
  fold_image(fold, config.image);
  fold_leak(fold, config.leak);
  fold.u64("layout", static_cast<std::uint64_t>(config.layout));
  fold.u64("randomisation",
           static_cast<std::uint64_t>(config.randomisation));
  fold.u64("input_seed", config.input_seed);
  fold.u64("layout_seed", config.layout_seed);
  fold.u64("prng", static_cast<std::uint64_t>(config.prng));
  fold.boolean("pass.indirect_calls", config.pass_options.indirect_calls);
  fold.boolean("pass.stack_offsets", config.pass_options.stack_offsets);
  fold.boolean("pass.lazy_stubs", config.pass_options.lazy_stubs);
  fold.u64("dsr.offset_range", config.dsr_options.offset_range);
  fold.u64("dsr.alignment", config.dsr_options.alignment);
  fold.u64("dsr.chunk_align", config.dsr_options.chunk_align);
  fold.boolean("dsr.eager", config.dsr_options.eager);
  fold.boolean("dsr.randomise_code", config.dsr_options.randomise_code);
  fold.boolean("dsr.randomise_stack", config.dsr_options.randomise_stack);
  fold.boolean("dsr.run_invalidation_routine",
               config.dsr_options.run_invalidation_routine);
  fold.u64("dsr.code_pool.base", config.dsr_options.code_pool.base);
  fold.u64("dsr.code_pool.size", config.dsr_options.code_pool.size);
  fold.u64("dsr.lazy_copy_cycles_per_word",
           config.dsr_options.lazy_copy_cycles_per_word);
  fold.u64("function_order.size", config.function_order.size());
  for (const std::string& name : config.function_order) {
    fold.str("function_order.entry", name);
  }
  fold.boolean("fixed_inputs", config.fixed_inputs);
  // Dynamic taint never changes times, but it adds the leak.* metrics a
  // stored cell replays.
  fold.boolean("taint", config.taint);
  fold.boolean("hypervisor", config.hypervisor.has_value());
  if (config.hypervisor) {
    fold_hypervisor(fold, *config.hypervisor);
  }
  return fold.hash();
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

} // namespace proxima::casestudy
