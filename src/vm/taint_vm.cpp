// Per-instruction taint transfer function, shared by BOTH execution cores.
//
// Each core calls Vm::taint_execute exactly once per retired instruction,
// *before* the architectural update (register values still hold the
// operands, so effective addresses compute identically to execution).
// Because the function is shared, the reference core is a true oracle for
// the fast core's taint behaviour: any divergence in shadow state is a
// dispatch-loop bug, not a rules mismatch.
//
// Transfer rules (DESIGN.md §10):
//   * ALU: destination taint = OR of source-operand taint (kSethi is a
//     constant and clears; kOrlo copies its rs1, so a %hi/%lo pair is
//     clean unless the static pass says the *fixup* targets a relocated
//     symbol — that case is static-only by design).
//   * Loads: destination taint = shadow of the addressed word, OR'd with
//     membership in a declared source range (the DSR tables).
//   * Stores: word-granularity shadow update; byte stores can taint but
//     never clear a word (a partial overwrite may leave tainted bytes).
//   * kCall/kJmpl: the saved return address is the code layout itself.
//   * SAVE/RESTORE: window rotation is free (shadows are physically
//     indexed); spill/fill traps move taint through the stack shadow at
//     the same addresses the microcode uses, without touching the store
//     counters (trap traffic is not a program store).
//   * Condition codes are not tracked: branches on tainted comparisons are
//     implicit flows, out of scope for a data-flow leak detector.
#include "isa/registers.hpp"
#include "vm/taint.hpp"
#include "vm/vm.hpp"

namespace proxima::vm {

using isa::Instruction;
using isa::Opcode;

void Vm::taint_execute(const Instruction& instr) {
  TaintState& t = *taint_;
  const auto tr = [&](std::uint8_t i) { return t.reg(i); };
  const auto wr = [&](std::uint8_t i, bool v) { t.set_reg(i, v); };
  // Operand values through the window map, like the fast core (%g0's
  // slot always holds zero).
  const auto rs1v = [&] { return regs_[window_map_[instr.rs1]]; };
  const auto rs2v = [&] { return regs_[window_map_[instr.rs2]]; };
  const auto simm = [&] { return static_cast<std::uint32_t>(instr.imm); };

  // Load taint: shadow word, or a hit in a declared source range.
  const auto load_word = [&](std::uint32_t addr) {
    if (t.in_source(addr)) {
      ++t.stats().source_loads;
      return true;
    }
    return t.mem_word(addr);
  };
  // Program store: shadow update plus leak accounting.  A detected sink
  // store latches the address so the on-demand reseed hook fires at most
  // once per instruction, after the whole transfer function ran.
  std::uint32_t sink_store_addr = 0;
  bool sink_store_hit = false;
  const auto store_word = [&](std::uint32_t addr, bool tainted) {
    t.set_mem_word(addr, tainted);
    if (tainted) {
      ++t.stats().tainted_stores;
      if (t.in_sink(addr)) {
        ++t.stats().sink_stores;
        if (!sink_store_hit) {
          sink_store_hit = true;
          sink_store_addr = addr;
        }
      }
    }
  };

  switch (instr.op) {
  // ---- integer ALU, register form: union of operand taint ----
  case Opcode::kAdd:
  case Opcode::kSub:
  case Opcode::kAnd:
  case Opcode::kOr:
  case Opcode::kXor:
  case Opcode::kSll:
  case Opcode::kSrl:
  case Opcode::kSra:
  case Opcode::kMul:
  case Opcode::kDiv:
  case Opcode::kAddcc:
  case Opcode::kSubcc:
  case Opcode::kOrcc:
    wr(instr.rd, tr(instr.rs1) || tr(instr.rs2));
    break;

  // ---- integer ALU, immediate form: copy rs1 taint ----
  case Opcode::kAddi:
  case Opcode::kSubi:
  case Opcode::kAndi:
  case Opcode::kOri:
  case Opcode::kXori:
  case Opcode::kSlli:
  case Opcode::kSrli:
  case Opcode::kSrai:
  case Opcode::kMuli:
  case Opcode::kDivi:
  case Opcode::kAddcci:
  case Opcode::kSubcci:
  case Opcode::kOrlo:
    wr(instr.rd, tr(instr.rs1));
    break;

  case Opcode::kSethi:
    wr(instr.rd, false); // immediate constant
    break;

  // ---- memory ----
  case Opcode::kLd:
  case Opcode::kLdx:
    wr(instr.rd, load_word(instr.op == Opcode::kLd ? rs1v() + simm()
                                                   : rs1v() + rs2v()));
    break;
  case Opcode::kLdb:
  case Opcode::kLdbx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdb ? rs1v() + simm() : rs1v() + rs2v();
    wr(instr.rd, load_word(addr & ~3U)); // word-granularity shadow
    break;
  }
  case Opcode::kLdd:
  case Opcode::kLddx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdd ? rs1v() + simm() : rs1v() + rs2v();
    wr(instr.rd, load_word(addr));
    wr(static_cast<std::uint8_t>(instr.rd + 1), load_word(addr + 4));
    break;
  }
  case Opcode::kSt:
  case Opcode::kStx:
    store_word(instr.op == Opcode::kSt ? rs1v() + simm() : rs1v() + rs2v(),
               tr(instr.rd));
    break;
  case Opcode::kStb:
  case Opcode::kStbx: {
    // A tainted byte taints the containing word; a clean byte store leaves
    // the word's shadow alone (the other bytes may still be tainted).
    const std::uint32_t addr =
        instr.op == Opcode::kStb ? rs1v() + simm() : rs1v() + rs2v();
    if (tr(instr.rd)) {
      store_word(addr & ~3U, true);
    }
    break;
  }
  case Opcode::kStd:
  case Opcode::kStdx: {
    const std::uint32_t addr =
        instr.op == Opcode::kStd ? rs1v() + simm() : rs1v() + rs2v();
    store_word(addr, tr(instr.rd));
    store_word(addr + 4, tr(static_cast<std::uint8_t>(instr.rd + 1)));
    break;
  }
  case Opcode::kLdf:
  case Opcode::kLdfx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdf ? rs1v() + simm() : rs1v() + rs2v();
    t.set_freg(instr.rd, load_word(addr) || load_word(addr + 4));
    break;
  }
  case Opcode::kStf:
  case Opcode::kStfx: {
    const std::uint32_t addr =
        instr.op == Opcode::kStf ? rs1v() + simm() : rs1v() + rs2v();
    const bool tainted = t.freg(instr.rd);
    store_word(addr, tainted);
    store_word(addr + 4, tainted);
    break;
  }

  // ---- control transfer: the return address IS the code layout ----
  case Opcode::kCall:
    wr(isa::kO7, true);
    ++t.stats().pc_taints;
    break;
  case Opcode::kJmpl:
    if (instr.rd != isa::kG0) {
      wr(instr.rd, true);
      ++t.stats().pc_taints;
    }
    break;

  // ---- register windows ----
  case Opcode::kSave:
  case Opcode::kSavex: {
    const bool tainted = instr.op == Opcode::kSave
                             ? tr(instr.rs1)
                             : (tr(instr.rs1) || tr(instr.rs2));
    const std::uint32_t n = config_.nwindows;
    if (resident_ == n - 1) {
      taint_spill_oldest_window(); // mirrors the overflow trap
    }
    if (instr.rd != isa::kG0) { // rd in the NEW window
      t.set_slot(window_slot(instr.rd, save_target(cwp_, n), n), tainted);
    }
    break;
  }
  case Opcode::kRestore: {
    const bool tainted = tr(instr.rs1) || tr(instr.rs2);
    const std::uint32_t n = config_.nwindows;
    const std::uint32_t target = restore_target(cwp_, n);
    if (resident_ == 1) {
      taint_fill_window(target); // mirrors the underflow trap
    }
    if (instr.rd != isa::kG0) { // rd in the OLD (caller) window
      t.set_slot(window_slot(instr.rd, target, n), tainted);
    }
    break;
  }

  // ---- floating point ----
  case Opcode::kFaddd:
  case Opcode::kFsubd:
  case Opcode::kFmuld:
  case Opcode::kFdivd:
    t.set_freg(instr.rd, t.freg(instr.rs1) || t.freg(instr.rs2));
    break;
  case Opcode::kFsqrtd:
  case Opcode::kFmovd:
  case Opcode::kFnegd:
  case Opcode::kFabsd:
    t.set_freg(instr.rd, t.freg(instr.rs1));
    break;
  case Opcode::kFitod:
    t.set_freg(instr.rd, tr(instr.rs1));
    break;
  case Opcode::kFdtoi:
    wr(instr.rd, t.freg(instr.rs1));
    break;

  case Opcode::kRdtick:
    wr(instr.rd, false); // a cycle count, not an address
    break;

  // Branches, kNop, kFcmpd, kIpoint, kFlush, kHalt, kTrapReloc: no
  // register or memory data flow to track.
  default:
    break;
  }

  if (sink_store_hit && sink_store_sink_) {
    // The reseed (or whatever the hook does) touches only the DSR tables
    // and pool memory — never the registers this instruction read — and
    // both cores call taint_execute at the same point of the retire
    // sequence with `cycles_` live, so the charge lands identically.
    cycles_ += sink_store_sink_(sink_store_addr);
  }
}

void Vm::taint_spill_oldest_window() {
  // Address computation mirrors Vm::spill_oldest_window exactly; taint of
  // %l0-%l7 and %i0-%i7 of the oldest frame moves into the stack shadow.
  TaintState& t = *taint_;
  const std::uint32_t n = config_.nwindows;
  const std::uint32_t w = (cwp_ + resident_ - 1) % n;
  const std::uint32_t sp = regs_[window_slot(isa::kSp, w, n)];
  for (std::uint32_t word = 0; word < 16; ++word) {
    t.set_mem_word(sp + word * 4,
                   t.slot_tainted(window_slot(isa::kL0 + word, w, n)));
  }
}

void Vm::taint_fill_window(std::uint32_t w) {
  // Mirror of Vm::fill_window: taint flows back from the stack shadow.
  TaintState& t = *taint_;
  const std::uint32_t n = config_.nwindows;
  const std::uint32_t sp = visible_value(isa::kFp);
  for (std::uint32_t word = 0; word < 16; ++word) {
    t.set_slot(window_slot(isa::kL0 + word, w, n), t.mem_word(sp + word * 4));
  }
}

void Vm::taint_add_source_range(std::uint32_t base, std::uint32_t length) {
  if (taint_) {
    taint_->add_source_range(base, length);
  }
}

void Vm::taint_add_sink_range(std::uint32_t base, std::uint32_t length) {
  if (taint_) {
    taint_->add_sink_range(base, length);
  }
}

void Vm::taint_clear_ranges() {
  if (taint_) {
    taint_->clear_ranges();
  }
}

void Vm::taint_new_run() {
  if (taint_) {
    taint_->clear_registers();
    taint_->clear_memory();
  }
}

TaintStats Vm::taint_stats() const {
  return taint_ ? taint_->stats() : TaintStats{};
}

std::uint64_t Vm::taint_sink_bits() const {
  return taint_ ? taint_->sink_tainted_bits() : 0;
}

} // namespace proxima::vm
