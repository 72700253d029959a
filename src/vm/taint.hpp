// Dynamic taint-tracking state for the address-leak analyzer.
//
// One shadow bit per visible integer register, per FP register, and per
// guest-memory *word* tracks whether a value is layout-derived: produced
// from the program counter (kCall/kJmpl return addresses) or loaded from a
// declared source range (the DSR function/stack-offset tables, whose
// contents are exactly the randomised layout).  Both execution cores drive
// the same transfer function (Vm::taint_execute in taint_vm.cpp), so the
// reference core doubles as the differential oracle for the fast core's
// taint propagation.  Sinks are scenario-declared "observable" output
// ranges; a store of a tainted value into a sink is a confirmed leak.
//
// The lattice is the two-point chain {clean, layout-derived}: joins are
// boolean OR, so propagation is monotone and the shadow state is a pure
// function of the executed instruction stream.  Tracking is purely
// observational — no cycle, counter or architectural effect — and costs
// nothing when off (the fast core hoists the TaintState pointer exactly
// like the instruction-mix hook).
//
// The memory shadow is a mem::PageTable of 1 KiB pages, one byte per guest
// word, mapped by the first tainting store into a page and kept: each run's
// clear_memory() zeroes them in place instead of reallocating.
#pragma once

#include "mem/page_table.hpp"
#include "vm/window_map.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace proxima::vm {

/// Half-open guest address range [base, base + length).
struct TaintRange {
  std::uint32_t base = 0;
  std::uint32_t length = 0;
};

/// Cumulative event counters; the campaign runner snapshots them around
/// the measured window to publish per-run `leak.*` deltas.
struct TaintStats {
  std::uint64_t pc_taints = 0;      // kCall/kJmpl return-address writes
  std::uint64_t source_loads = 0;   // loads that hit a declared source range
  std::uint64_t tainted_stores = 0; // stores of a tainted value, anywhere
  std::uint64_t sink_stores = 0;    // ... into a declared observable range
};

class TaintState {
public:
  /// `window_map` is the owning Vm's map, read on every register access;
  /// it must outlive this object.
  TaintState(std::uint32_t nwindows, const WindowMap& window_map)
      : window_map_(window_map),
        regs_(kGlobalSlots + static_cast<std::size_t>(nwindows) * 16, 0) {}

  void add_source_range(std::uint32_t base, std::uint32_t length) {
    if (length != 0) {
      sources_.push_back(TaintRange{base, length});
    }
  }
  void add_sink_range(std::uint32_t base, std::uint32_t length) {
    if (length != 0) {
      sinks_.push_back(TaintRange{base, length});
    }
  }
  void clear_ranges() {
    sources_.clear();
    sinks_.clear();
  }

  bool in_source(std::uint32_t addr) const { return in(sources_, addr); }
  bool in_sink(std::uint32_t addr) const { return in(sinks_, addr); }

  /// Drop register shadows (matches Vm::reset zeroing the register file).
  void clear_registers() {
    std::fill(regs_.begin(), regs_.end(), 0);
    fregs_.fill(0);
  }
  /// Drop the guest-memory shadow; the runner calls this at the start of
  /// every run so per-run leak metrics are a pure function of that run.
  void clear_memory() {
    for (const std::uint32_t number : mapped_) {
      pages_.find(number)->fill(0);
    }
  }

  // Visible-register shadow access through the Vm's window map (%g0 reads
  // clean, writes are discarded).  An index past %i7 — the odd partner of
  // an ldd/std whose alignment fault comes after the transfer function —
  // is treated the same way.
  bool reg(std::uint8_t index) const {
    return tracked(index) && regs_[window_map_[index]] != 0;
  }
  void set_reg(std::uint8_t index, bool tainted) {
    if (tracked(index)) {
      regs_[window_map_[index]] = tainted ? 1 : 0;
    }
  }
  bool freg(std::uint8_t index) const {
    return index < fregs_.size() && fregs_[index] != 0;
  }
  void set_freg(std::uint8_t index, bool tainted) {
    if (index < fregs_.size()) { // out-of-range faults in execute()
      fregs_[index] = tainted ? 1 : 0;
    }
  }

  // Physical-slot access (window_slot) for registers outside the current
  // window: SAVE/RESTORE destinations and the spill/fill mirror.
  bool slot_tainted(std::uint32_t slot) const { return regs_[slot] != 0; }
  void set_slot(std::uint32_t slot, bool tainted) {
    regs_[slot] = tainted ? 1 : 0;
  }

  /// Shadow of the aligned word containing `addr`.
  bool mem_word(std::uint32_t addr) const {
    const ShadowPage* page = pages_.find(mem::page_of(addr));
    return page != nullptr && (*page)[word_index(addr)] != 0;
  }
  void set_mem_word(std::uint32_t addr, bool tainted) {
    const std::uint32_t number = mem::page_of(addr);
    ShadowPage* page = pages_.find(number);
    if (page == nullptr) {
      if (!tainted) {
        return; // an absent page reads clean already
      }
      std::unique_ptr<ShadowPage>& slot = pages_.slot(number);
      slot = std::make_unique<ShadowPage>(); // value-initialised: clean
      page = slot.get();
      mapped_.push_back(number);
    }
    (*page)[word_index(addr)] = tainted ? 1 : 0;
  }

  TaintStats& stats() { return stats_; }
  const TaintStats& stats() const { return stats_; }

  /// Layout information currently exposed in the observable ranges:
  /// 32 bits per distinct tainted sink word.
  std::uint64_t sink_tainted_bits() const {
    std::uint64_t bits = 0;
    for (const TaintRange& range : sinks_) {
      const std::uint32_t first = range.base & ~3U;
      for (std::uint32_t addr = first; addr < range.base + range.length;
           addr += 4) {
        if (mem_word(addr)) {
          bits += 32;
        }
      }
    }
    return bits;
  }

private:
  using ShadowPage = std::array<std::uint8_t, mem::kPageBytes / 4>;

  static std::size_t word_index(std::uint32_t addr) {
    return (addr % mem::kPageBytes) >> 2;
  }
  static bool in(const std::vector<TaintRange>& ranges, std::uint32_t addr) {
    for (const TaintRange& r : ranges) {
      if (addr - r.base < r.length) {
        return true;
      }
    }
    return false;
  }

  static bool tracked(std::uint8_t index) {
    return index != 0 && index < isa::kRegisterCount;
  }

  const WindowMap& window_map_;
  std::vector<std::uint8_t> regs_; // same layout as Vm's register file
  std::array<std::uint8_t, 16> fregs_{};
  std::vector<TaintRange> sources_;
  std::vector<TaintRange> sinks_;
  mem::PageTable<ShadowPage> pages_;
  std::vector<std::uint32_t> mapped_; // numbers of mapped pages
  TaintStats stats_;
};

} // namespace proxima::vm
