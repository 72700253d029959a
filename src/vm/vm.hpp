// Execution engine for the mini-SPARC ISA: the stand-in for the LEON3 core.
//
// Timing model: in-order single-issue, approximating the LEON3 7-stage
// pipeline (F D R E M X W) with a base cost of one cycle per instruction
// plus explicit stalls:
//   * instruction fetch stalls from the memory hierarchy (IL1/L2/DRAM/ITLB)
//   * load-use stalls (DL1/L2/DRAM/DTLB) and write-buffer stalls
//   * multi-cycle integer multiply/divide
//   * floating point with *value-dependent* latency — the paper notes the
//     LEON3 FPU "takes a variable latency depending on the particular
//     values operated, with a jitter of up to 3 cycles" (Section III.A)
//   * taken-branch redirect penalty
//   * register-window overflow/underflow: handled as microcoded traps that
//     perform the real 16-word spill/fill memory traffic at the (possibly
//     DSR-randomised) stack addresses, plus a fixed trap overhead
//
// Simplifications vs real SPARC v8 (documented in DESIGN.md): no branch
// delay slots, microcoded window traps instead of software handlers, and
// int<->fp conversions that move between register files directly.
#pragma once

#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "vm/decode.hpp"
#include "vm/window_map.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace proxima::vm {

class TaintState; // vm/taint.hpp
struct TaintStats;

class VmError : public std::runtime_error {
public:
  explicit VmError(const std::string& what) : std::runtime_error(what) {}
};

/// Execution-core selection.  Both cores implement the identical
/// architecture and timing model and are kept bit-identical — cycles,
/// instruction counts and memory-event counters — by the differential
/// test suite (tests/vm_differential_test.cpp).
enum class VmCore : std::uint8_t {
  /// Predecoded fast-dispatch core (src/vm/fast_vm.cpp): a one-time
  /// decode pass into a flat DecodedOp cache, executed by a computed-goto
  /// loop with inlined L1/TLB hit paths.  The default everywhere.
  kFast,
  /// The original fetch-decode-execute switch interpreter
  /// (src/vm/reference_vm.cpp): the oracle the fast core is
  /// differentially tested against.
  kReference,
};

struct VmConfig {
  VmCore core = VmCore::kFast;
  std::uint32_t nwindows = 8; // LEON3: 8 register windows
  std::uint32_t branch_taken_penalty = 1;
  std::uint32_t load_use_cycles = 1; // extra M-stage occupancy for loads
  std::uint32_t mul_cycles = 4;
  std::uint32_t div_cycles = 16;
  std::uint32_t fp_add_cycles = 4;
  std::uint32_t fp_mul_cycles = 4;
  std::uint32_t fp_div_cycles = 16;
  std::uint32_t fp_sqrt_cycles = 24;
  std::uint32_t fp_jitter_max = 3; // paper: up to 3 cycles, value-dependent
  std::uint32_t trap_cycles = 8;   // window spill/fill entry/exit overhead
  std::uint32_t ipoint_cycles = 2; // timestamp store to the uncached bank
  std::uint32_t flush_cycles = 2;
  std::uint64_t max_instructions = 2'000'000'000ULL;
  /// Dynamic taint tracking (vm/taint.hpp): shadow bit per register and
  /// per guest-memory word, maintained identically by both cores.  Purely
  /// observational — cycles, counters and architectural state are
  /// untouched, so times digests are identical with taint on or off.
  bool taint = false;
};

struct RunResult {
  enum class Stop : std::uint8_t { kHalt, kInstructionLimit, kCycleBudget };
  Stop stop = Stop::kHalt;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
};

/// Integer condition codes (set by addcc/subcc/orcc).
struct ConditionCodes {
  bool n = false, z = false, v = false, c = false;
};

/// FP comparison outcome (set by fcmpd).
enum class FpCondition : std::uint8_t { kEqual, kLess, kGreater, kUnordered };

class Vm {
public:
  using IpointSink = std::function<void(std::uint32_t id, std::uint64_t cycles)>;
  /// Handler for kTrapReloc: receives the function id and returns the cycle
  /// cost of the (lazy) relocation work, charged to the running program.
  using RelocTrapSink = std::function<std::uint64_t(std::uint32_t id)>;
  /// Handler fired when taint tracking detects a sink store (a tainted
  /// value written into an observable range): receives the store address
  /// and returns a cycle cost charged to the running program — the
  /// kDsrOnDemand arm's reseed trigger.  Fired from the shared taint
  /// transfer function, at most once per retired instruction (the first
  /// sink word of a double/FP store), identically on every core.  Requires
  /// VmConfig::taint.
  using SinkStoreSink = std::function<std::uint64_t(std::uint32_t addr)>;

  Vm(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
     VmConfig config = {});
  ~Vm();

  // The fast core's decode cache is bound to the guest memory, which
  // calls it on writes into decoded pages; a copy would bind a second one.
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  /// Reset architectural state and start executing at `entry_pc` with the
  /// stack top at `stack_top` (16-byte aligned recommended).  Cycle and
  /// instruction counters restart; the memory hierarchy is left untouched
  /// (flush it separately, as the RTOS does at partition start).
  void reset(std::uint32_t entry_pc, std::uint32_t stack_top);

  /// Run until HALT, the instruction limit, or (when non-zero) the given
  /// absolute cycle budget — the hypervisor's temporal-isolation fence.
  RunResult run(std::uint64_t cycle_budget = 0);

  /// Execute a single instruction (test hook; always the reference path —
  /// both cores share the same architectural state, so stepping and
  /// running interleave freely).
  void step();

  /// Warm the fast core's decode cache over [addr, addr+length) — the
  /// one-time predecode pass over a loaded image.  No-op on the reference
  /// core; purely a warm-up, never required for correctness (the cache
  /// decodes on demand and self-invalidates on memory writes).
  void predecode(std::uint32_t addr, std::uint32_t length);

  bool halted() const noexcept { return halted_; }
  std::uint32_t pc() const noexcept { return pc_; }
  std::uint64_t cycles() const noexcept { return cycles_; }
  std::uint64_t instructions() const noexcept { return instructions_; }

  /// Visible integer register (through the current window).  Throws
  /// VmError for an index outside %g0-%i7.
  std::uint32_t reg(std::uint8_t index) const;
  void set_reg(std::uint8_t index, std::uint32_t value);
  double freg(std::uint8_t index) const {
    if (index >= fregs_.size()) [[unlikely]] {
      fault("fp register index out of range");
    }
    return fregs_[index];
  }
  void set_freg(std::uint8_t index, double value) {
    if (index >= fregs_.size()) [[unlikely]] {
      fault("fp register index out of range");
    }
    fregs_[index] = value;
  }
  const ConditionCodes& icc() const noexcept { return icc_; }
  FpCondition fcc() const noexcept { return fcc_; }

  /// Nesting depth of register-window frames currently resident.
  std::uint32_t resident_windows() const noexcept { return resident_; }

  void set_ipoint_sink(IpointSink sink) { ipoint_sink_ = std::move(sink); }
  void set_reloc_trap_sink(RelocTrapSink sink) {
    reloc_trap_sink_ = std::move(sink);
  }
  void set_sink_store_sink(SinkStoreSink sink) {
    sink_store_sink_ = std::move(sink);
  }

  /// Instruction-mix telemetry hook: when non-null, both cores increment
  /// `counters[opcode]` once per retired instruction.  The caller owns the
  /// array, which must have at least isa::Opcode::kOpcodeCount slots and
  /// outlive the Vm (or a later set_mix_counters(nullptr)).  Null (the
  /// default) disables the mix entirely — the fast dispatch loop hoists
  /// the pointer into a local, so when metrics are off the hot path pays
  /// one never-taken branch on a register.  Purely observational: no
  /// cycle, instruction-count or architectural effect.
  void set_mix_counters(std::uint64_t* counters) noexcept { mix_ = counters; }

  /// Decode-cache activity counters; all-zero on the reference core.
  DecodeCache::Stats decode_stats() const {
    return decode_ ? decode_->stats() : DecodeCache::Stats{};
  }

  // ---- dynamic taint tracking (allocated when VmConfig::taint is set;
  // every call below is a cheap no-op when it is off) ----

  /// Declare a source range: loads from it produce layout-derived values
  /// (the DSR function-table and stack-offset tables).
  void taint_add_source_range(std::uint32_t base, std::uint32_t length);
  /// Declare an observable sink range: storing a tainted value into it is
  /// a confirmed address leak.
  void taint_add_sink_range(std::uint32_t base, std::uint32_t length);
  /// Drop declared ranges (static re-randomisation moves the image).
  void taint_clear_ranges();
  /// Clear register and memory shadows at the start of a measured run so
  /// per-run leak metrics are a pure function of that run.
  void taint_new_run();
  /// Cumulative taint event counters (zeroes when taint is off).
  TaintStats taint_stats() const;
  /// Layout bits currently exposed in sink ranges (32 per tainted word).
  std::uint64_t taint_sink_bits() const;
  TaintState* taint_state() noexcept { return taint_.get(); }
  const TaintState* taint_state() const noexcept { return taint_.get(); }

  const VmConfig& config() const noexcept { return config_; }

private:
  std::uint32_t& visible(std::uint8_t index);
  std::uint32_t visible_value(std::uint8_t index) const;

  RunResult run_reference(std::uint64_t cycle_budget);
  RunResult run_fast(std::uint64_t cycle_budget);

  void execute(const isa::Instruction& instr);
  void taint_execute(const isa::Instruction& instr);
  void taint_spill_oldest_window();
  void taint_fill_window(std::uint32_t window);
  /// The window rotation of SAVE / RESTORE, including the overflow /
  /// underflow trap and the window-map rebuild; the operand read before
  /// and the rd write after it are left to the calling core.
  void save_window();
  void restore_window();
  void spill_oldest_window();
  void fill_window(std::uint32_t window);
  std::uint32_t fp_extra_cycles(isa::Opcode op, double a, double b) const;
  void take_branch(std::int32_t disp_words);

  [[noreturn]] void fault(const std::string& what) const;

  mem::GuestMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  VmConfig config_;

  std::vector<std::uint32_t> regs_; // [8 globals | nwindows * 16 windowed]
  WindowMap window_map_{};          // visible index -> regs_ slot at cwp_
  std::array<double, isa::kFpRegisterCount> fregs_{};
  std::uint32_t cwp_ = 0;
  std::uint32_t resident_ = 1;
  ConditionCodes icc_;
  FpCondition fcc_ = FpCondition::kEqual;

  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;
  bool halted_ = true;
  IpointSink ipoint_sink_;
  RelocTrapSink reloc_trap_sink_;
  SinkStoreSink sink_store_sink_;
  std::uint64_t* mix_ = nullptr;        // per-opcode counters, off by default
  std::unique_ptr<DecodeCache> decode_; // fast core only
  std::unique_ptr<TaintState> taint_;   // only when config.taint is set
};

} // namespace proxima::vm
