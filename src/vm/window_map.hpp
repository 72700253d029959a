// Register-window map: visible integer register index -> physical slot.
//
// Vm and TaintState lay their integer register files out identically, as
// [8 globals | nwindows x 16 windowed], where window w owns slots
// 8 + 16w .. 8 + 16w + 15 (its outs, then its locals) and its ins are the
// outs of window w + 1 (mod nwindows).  The fast core and the taint
// shadow index that layout through a WindowMap rebuilt whenever the
// current window pointer changes, so a register access is one table load
// instead of the modular window arithmetic.  The reference core keeps
// computing the slot with Vm::visible's modular formula, which makes it
// the oracle the differential suite checks this map against.
#pragma once

#include "isa/registers.hpp"

#include <array>
#include <cstdint>

namespace proxima::vm {

/// Slots [0, kGlobalSlots) of the register file hold %g0-%g7.
inline constexpr std::uint32_t kGlobalSlots = 8;

using WindowMap = std::array<std::uint32_t, isa::kRegisterCount>;

/// The window SAVE rotates to: cwp - 1 (mod nwindows).
constexpr std::uint32_t save_target(std::uint32_t cwp,
                                    std::uint32_t nwindows) noexcept {
  return cwp == 0 ? nwindows - 1 : cwp - 1;
}

/// The window RESTORE returns to: cwp + 1 (mod nwindows).
constexpr std::uint32_t restore_target(std::uint32_t cwp,
                                       std::uint32_t nwindows) noexcept {
  return cwp + 1 == nwindows ? 0 : cwp + 1;
}

/// Physical slot of visible register `index` (< 32) in window `cwp`
/// (< nwindows).
constexpr std::uint32_t window_slot(std::uint32_t index, std::uint32_t cwp,
                                    std::uint32_t nwindows) noexcept {
  if (index < kGlobalSlots) {
    return index;
  }
  if (index < 24) { // outs and locals of cwp
    return kGlobalSlots + cwp * 16 + (index - 8);
  }
  // ins of cwp == outs of cwp + 1
  return kGlobalSlots + restore_target(cwp, nwindows) * 16 + (index - 24);
}

constexpr void build_window_map(WindowMap& map, std::uint32_t cwp,
                                std::uint32_t nwindows) noexcept {
  for (std::uint32_t index = 0; index < map.size(); ++index) {
    map[index] = window_slot(index, cwp, nwindows);
  }
}

} // namespace proxima::vm
