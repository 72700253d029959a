// The fast execution engine: predecoded fast-dispatch core.
//
// Instead of fetching a word from guest memory and decoding it on every
// step, this core executes DecodedOps out of a DecodeCache (decode.hpp):
// opcode collapsed to a dense handler index, operands pre-extracted,
// immediates pre-sign-extended.  Dispatch is a computed-goto loop on GCC
// and Clang (a dense switch elsewhere), and the memory-hierarchy timing
// probes use the inlined L1/TLB hit fast paths (mem::MemoryHierarchy::
// fetch_fast/load_fast/store_fast), so the common case — TLB memo hit,
// clean L1 hit, ALU or branch op — never leaves the dispatch loop, and a
// fetch or load in the same L1 line as the one before costs one compare.
// The cycle and instruction counts stay in registers between sync points.
//
// CORRECTNESS CONTRACT: this core must be *bit-identical* to the reference
// interpreter in reference_vm.cpp — same cycles, same instruction counts,
// same mem::PerfCounters, same architectural state, same faults — under
// every randomisation mode, including DSR relocation rewriting code mid-
// campaign (a write into a decoded page resets the DecodeCache's covered
// slots).  Every handler below is a transliteration of the matching
// case in the reference `execute`; the differential suite
// (tests/vm_differential_test.cpp) enforces the equivalence.
#include "decode.hpp"
#include "taint.hpp"
#include "vm.hpp"

#include <cmath>
#include <iterator>

namespace proxima::vm {

using isa::Instruction;
using isa::Opcode;

#if defined(__GNUC__) || defined(__clang__)
#define PROXIMA_VM_COMPUTED_GOTO 1
#else
#define PROXIMA_VM_COMPUTED_GOTO 0
#endif

namespace {

// The X-macro must list every opcode exactly once, in enum order: the
// computed-goto table is indexed by the raw handler byte.
constexpr Opcode kHandlerOrder[] = {
#define PROXIMA_X(name) Opcode::name,
    PROXIMA_VM_FOREACH_OPCODE(PROXIMA_X)
#undef PROXIMA_X
};

constexpr bool handler_order_matches_enum() {
  if (std::size(kHandlerOrder) !=
      static_cast<std::size_t>(Opcode::kOpcodeCount)) {
    return false;
  }
  for (std::size_t i = 0; i < std::size(kHandlerOrder); ++i) {
    if (kHandlerOrder[i] != static_cast<Opcode>(i)) {
      return false;
    }
  }
  return true;
}
static_assert(handler_order_matches_enum(),
              "PROXIMA_VM_FOREACH_OPCODE must list every opcode in enum "
              "order — the dispatch tables are indexed by opcode value");

} // namespace

RunResult Vm::run_fast(std::uint64_t cycle_budget) {
  DecodeCache& decode = *decode_;
  mem::MemoryHierarchy& hier = hierarchy_;
  mem::PerfCounters& ctr = hier.counters();
  const VmConfig& cfg = config_;
  // Instruction-mix telemetry: hoisted so the off case is one never-taken
  // branch on a register, invisible next to the fetch/dispatch work.
  std::uint64_t* const mix = mix_;
  // Dynamic taint tracking, gated the same way: null when VmConfig::taint
  // is off, so the hot path pays one never-taken branch.
  TaintState* const taint = taint_.get();

  // The cycle and retired-instruction counts live in locals.  `cycles_`,
  // `instructions_` and `ctr.instructions` are written back by `sync`
  // before every return and every call that reads or charges them (the
  // taint hook, the ipoint and reloc sinks, window traps), and `resume`
  // re-reads what the call charged.  A throw leaves the members exact: the
  // catch at the end syncs unless the throw came from inside such a call,
  // where the members were already live.
  std::uint64_t cycles = cycles_;
  std::uint64_t instructions = instructions_;
  bool members_live = false;
  auto sync = [&] {
    cycles_ = cycles;
    ctr.instructions += instructions - instructions_;
    instructions_ = instructions;
    members_live = true;
  };
  auto resume = [&] {
    cycles = cycles_;
    members_live = false;
  };

  // Inline register-file access through the window map (rebuilt by
  // save_window/restore_window), mirroring visible/visible_value/set_reg.
  // Decoded register fields are 5 bits wide, so every index is < 32.
  std::uint32_t* const regs = regs_.data();
  const std::uint32_t* const window_map = window_map_.data();
  auto vis = [&](std::uint8_t index) -> std::uint32_t& {
    return regs[window_map[index]];
  };
  // %g0's slot is never written (wr and set_reg discard it), so it reads
  // zero through the map without a test.
  auto rv = [&](std::uint8_t index) -> std::uint32_t { return vis(index); };
  auto wr = [&](std::uint8_t index, std::uint32_t value) {
    if (index != isa::kG0) {
      vis(index) = value;
    }
  };

  auto set_icc_add = [&](std::uint32_t a, std::uint32_t b, std::uint32_t r) {
    icc_.n = (r >> 31) != 0;
    icc_.z = r == 0;
    icc_.v = ((~(a ^ b) & (a ^ r)) >> 31) != 0;
    icc_.c = r < a;
  };
  auto set_icc_sub = [&](std::uint32_t a, std::uint32_t b, std::uint32_t r) {
    icc_.n = (r >> 31) != 0;
    icc_.z = r == 0;
    icc_.v = (((a ^ b) & (a ^ r)) >> 31) != 0;
    icc_.c = a < b; // borrow
  };
  auto set_icc_logic = [&](std::uint32_t r) {
    icc_.n = (r >> 31) != 0;
    icc_.z = r == 0;
    icc_.v = false;
    icc_.c = false;
  };
  auto branch = [&](bool condition, std::int32_t disp_words) {
    if (condition) {
      pc_ = static_cast<std::uint32_t>(static_cast<std::int64_t>(pc_) +
                                       std::int64_t{4} * disp_words);
      cycles += cfg.branch_taken_penalty;
    } else {
      pc_ += 4;
    }
  };

  const DecodedOp* op = nullptr;

#if PROXIMA_VM_COMPUTED_GOTO
  static const void* const kLabels[] = {
#define PROXIMA_X(name) &&L_##name,
      PROXIMA_VM_FOREACH_OPCODE(PROXIMA_X)
#undef PROXIMA_X
  };
  static_assert(std::size(kLabels) ==
                static_cast<std::size_t>(Opcode::kOpcodeCount));
#define VM_CASE(name) L_##name:
#define VM_DISPATCH() goto* kLabels[op->handler]
#define VM_END_DISPATCH()
#else
#define VM_CASE(name) case static_cast<std::uint8_t>(Opcode::name):
#define VM_DISPATCH()                                                         \
  switch (op->handler) {                                                      \
  default:                                                                    \
    fault("invalid opcode");
#define VM_END_DISPATCH() }
#endif
#define VM_NEXT() goto next_instruction

  // The dispatch loop below stays at function indentation; it all sits in
  // this try, whose catch only writes the counts back and rethrows.
  try {
next_instruction:
  if (halted_) {
    sync();
    return RunResult{RunResult::Stop::kHalt, instructions_, cycles_};
  }
  if (instructions >= cfg.max_instructions) [[unlikely]] {
    sync();
    return RunResult{RunResult::Stop::kInstructionLimit, instructions_,
                     cycles_};
  }
  if (cycle_budget != 0 && cycles >= cycle_budget) [[unlikely]] {
    sync();
    return RunResult{RunResult::Stop::kCycleBudget, instructions_, cycles_};
  }
  // Fetch: timing through the inline hit path, the op out of the decode
  // cache (no guest-memory read, no format switch on the hot path).
  cycles += 1 + hier.fetch_fast(pc_);
  op = &decode.at(pc_);
  if (op->handler >= static_cast<std::uint8_t>(Opcode::kOpcodeCount))
      [[unlikely]] {
    // Reproduce the reference fault (message included) by re-decoding the
    // offending word; write coherence guarantees it is still the word that
    // failed to decode.
    try {
      (void)isa::decode(memory_.read_u32(pc_));
      fault("invalid opcode");
    } catch (const isa::DecodeError& e) {
      fault(e.what());
    }
  }
  ++instructions;
  if (op->handler >= static_cast<std::uint8_t>(Opcode::kFaddd) &&
      op->handler <= static_cast<std::uint8_t>(Opcode::kFabsd)) {
    ++ctr.fpu_ops;
  }
  if (mix != nullptr) {
    ++mix[op->handler];
  }
  if (taint != nullptr) {
    // Same shared transfer function the reference core runs, before the
    // handler mutates the operands (taint_vm.cpp).
    sync();
    taint_execute(Instruction{static_cast<Opcode>(op->handler), op->rd,
                              op->rs1, op->rs2, op->imm});
    resume();
  }
  VM_DISPATCH();

  VM_CASE(kNop) {
    pc_ += 4;
    VM_NEXT();
  }

  // ---- integer ALU, register form ----
  VM_CASE(kAdd) {
    wr(op->rd, rv(op->rs1) + rv(op->rs2));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSub) {
    wr(op->rd, rv(op->rs1) - rv(op->rs2));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kAnd) {
    wr(op->rd, rv(op->rs1) & rv(op->rs2));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kOr) {
    wr(op->rd, rv(op->rs1) | rv(op->rs2));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kXor) {
    wr(op->rd, rv(op->rs1) ^ rv(op->rs2));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSll) {
    wr(op->rd, rv(op->rs1) << (rv(op->rs2) & 31));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSrl) {
    wr(op->rd, rv(op->rs1) >> (rv(op->rs2) & 31));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSra) {
    wr(op->rd,
       static_cast<std::uint32_t>(static_cast<std::int32_t>(rv(op->rs1)) >>
                                  (rv(op->rs2) & 31)));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kMul) {
    // SPARC smul keeps the low 32 bits of the 64-bit product: widen so an
    // overflowing guest multiply wraps instead of being host-side UB.
    wr(op->rd,
       static_cast<std::uint32_t>(
           static_cast<std::int64_t>(static_cast<std::int32_t>(rv(op->rs1))) *
           static_cast<std::int32_t>(rv(op->rs2))));
    cycles += cfg.mul_cycles - 1;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kDiv) {
    const auto divisor = static_cast<std::int32_t>(rv(op->rs2));
    if (divisor == 0) {
      fault("integer division by zero");
    }
    const auto dividend = static_cast<std::int32_t>(rv(op->rs1));
    const std::int64_t q = static_cast<std::int64_t>(dividend) / divisor;
    wr(op->rd, static_cast<std::uint32_t>(q));
    cycles += cfg.div_cycles - 1;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kAddcc) {
    const std::uint32_t a = rv(op->rs1);
    const std::uint32_t b = rv(op->rs2);
    const std::uint32_t r = a + b;
    wr(op->rd, r);
    set_icc_add(a, b, r);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSubcc) {
    const std::uint32_t a = rv(op->rs1);
    const std::uint32_t b = rv(op->rs2);
    const std::uint32_t r = a - b;
    wr(op->rd, r);
    set_icc_sub(a, b, r);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kOrcc) {
    const std::uint32_t r = rv(op->rs1) | rv(op->rs2);
    wr(op->rd, r);
    set_icc_logic(r);
    pc_ += 4;
    VM_NEXT();
  }

  // ---- integer ALU, immediate form ----
  VM_CASE(kAddi) {
    wr(op->rd, rv(op->rs1) + static_cast<std::uint32_t>(op->imm));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSubi) {
    wr(op->rd, rv(op->rs1) - static_cast<std::uint32_t>(op->imm));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kAndi) {
    wr(op->rd, rv(op->rs1) & static_cast<std::uint32_t>(op->imm));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kOri) {
    wr(op->rd, rv(op->rs1) | static_cast<std::uint32_t>(op->imm));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kXori) {
    wr(op->rd, rv(op->rs1) ^ static_cast<std::uint32_t>(op->imm));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSlli) {
    wr(op->rd, rv(op->rs1) << (static_cast<std::uint32_t>(op->imm) & 31));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSrli) {
    wr(op->rd, rv(op->rs1) >> (static_cast<std::uint32_t>(op->imm) & 31));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSrai) {
    wr(op->rd,
       static_cast<std::uint32_t>(static_cast<std::int32_t>(rv(op->rs1)) >>
                                  (static_cast<std::uint32_t>(op->imm) & 31)));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kMuli) {
    wr(op->rd,
       static_cast<std::uint32_t>(
           static_cast<std::int64_t>(static_cast<std::int32_t>(rv(op->rs1))) *
           op->imm));
    cycles += cfg.mul_cycles - 1;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kDivi) {
    if (op->imm == 0) {
      fault("integer division by zero");
    }
    const std::int64_t q =
        static_cast<std::int64_t>(static_cast<std::int32_t>(rv(op->rs1))) /
        op->imm;
    wr(op->rd, static_cast<std::uint32_t>(q));
    cycles += cfg.div_cycles - 1;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kAddcci) {
    const std::uint32_t a = rv(op->rs1);
    const std::uint32_t b = static_cast<std::uint32_t>(op->imm);
    const std::uint32_t r = a + b;
    wr(op->rd, r);
    set_icc_add(a, b, r);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSubcci) {
    const std::uint32_t a = rv(op->rs1);
    const std::uint32_t b = static_cast<std::uint32_t>(op->imm);
    const std::uint32_t r = a - b;
    wr(op->rd, r);
    set_icc_sub(a, b, r);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kOrlo) {
    // Zero-extended 13-bit OR: the %lo companion of SETHI.
    wr(op->rd, rv(op->rs1) | (static_cast<std::uint32_t>(op->imm) & 0x1fffU));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSethi) {
    wr(op->rd, static_cast<std::uint32_t>(op->imm) << 13);
    pc_ += 4;
    VM_NEXT();
  }

  // ---- memory ----
  VM_CASE(kLd) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 4 != 0) {
      fault("misaligned word load");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u32(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 4 != 0) {
      fault("misaligned word load");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u32(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSt) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 4 != 0) {
      fault("misaligned word store");
    }
    memory_.write_u32(addr, rv(op->rd));
    cycles += hier.store_fast(addr, cycles, 4);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 4 != 0) {
      fault("misaligned word store");
    }
    memory_.write_u32(addr, rv(op->rd));
    cycles += hier.store_fast(addr, cycles, 4);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdb) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u8(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdbx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u8(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStb) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    memory_.write_u8(addr, static_cast<std::uint8_t>(rv(op->rd)));
    cycles += hier.store_fast(addr, cycles, 1);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStbx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    memory_.write_u8(addr, static_cast<std::uint8_t>(rv(op->rd)));
    cycles += hier.store_fast(addr, cycles, 1);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdd) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 8 != 0) {
      fault("misaligned doubleword load");
    }
    if (op->rd % 2 != 0) {
      fault("ldd destination must be an even register");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u32(addr));
    wr(static_cast<std::uint8_t>(op->rd + 1), memory_.read_u32(addr + 4));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLddx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 8 != 0) {
      fault("misaligned doubleword load");
    }
    if (op->rd % 2 != 0) {
      fault("ldd destination must be an even register");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    wr(op->rd, memory_.read_u32(addr));
    wr(static_cast<std::uint8_t>(op->rd + 1), memory_.read_u32(addr + 4));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStd) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 8 != 0) {
      fault("misaligned doubleword store");
    }
    if (op->rd % 2 != 0) {
      fault("std source must be an even register");
    }
    memory_.write_u32(addr, rv(op->rd));
    memory_.write_u32(addr + 4, rv(static_cast<std::uint8_t>(op->rd + 1)));
    cycles += hier.store_fast(addr, cycles, 8);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStdx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 8 != 0) {
      fault("misaligned doubleword store");
    }
    if (op->rd % 2 != 0) {
      fault("std source must be an even register");
    }
    memory_.write_u32(addr, rv(op->rd));
    memory_.write_u32(addr + 4, rv(static_cast<std::uint8_t>(op->rd + 1)));
    cycles += hier.store_fast(addr, cycles, 8);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdf) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 8 != 0) {
      fault("misaligned fp load");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    set_freg(op->rd, memory_.read_f64(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kLdfx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 8 != 0) {
      fault("misaligned fp load");
    }
    cycles += cfg.load_use_cycles + hier.load_fast(addr);
    set_freg(op->rd, memory_.read_f64(addr));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStf) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    if (addr % 8 != 0) {
      fault("misaligned fp store");
    }
    memory_.write_f64(addr, freg(op->rd));
    cycles += hier.store_fast(addr, cycles, 8);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kStfx) {
    const std::uint32_t addr = rv(op->rs1) + rv(op->rs2);
    if (addr % 8 != 0) {
      fault("misaligned fp store");
    }
    memory_.write_f64(addr, freg(op->rd));
    cycles += hier.store_fast(addr, cycles, 8);
    pc_ += 4;
    VM_NEXT();
  }

  // ---- control transfer ----
  VM_CASE(kCall) {
    wr(isa::kO7, pc_); // return address = address of the call
    branch(true, op->imm);
    VM_NEXT();
  }
  VM_CASE(kJmpl) {
    const std::uint32_t target =
        (rv(op->rs1) + static_cast<std::uint32_t>(op->imm)) & ~3U;
    wr(op->rd, pc_);
    pc_ = target;
    cycles += cfg.branch_taken_penalty;
    VM_NEXT();
  }
  VM_CASE(kBa) {
    branch(true, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBn) {
    branch(false, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBe) {
    branch(icc_.z, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBne) {
    branch(!icc_.z, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBg) {
    branch(!(icc_.z || (icc_.n != icc_.v)), op->imm);
    VM_NEXT();
  }
  VM_CASE(kBle) {
    branch(icc_.z || (icc_.n != icc_.v), op->imm);
    VM_NEXT();
  }
  VM_CASE(kBge) {
    branch(icc_.n == icc_.v, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBl) {
    branch(icc_.n != icc_.v, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBgu) {
    branch(!(icc_.c || icc_.z), op->imm);
    VM_NEXT();
  }
  VM_CASE(kBleu) {
    branch(icc_.c || icc_.z, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBcc) {
    branch(!icc_.c, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBcs) {
    branch(icc_.c, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBpos) {
    branch(!icc_.n, op->imm);
    VM_NEXT();
  }
  VM_CASE(kBneg) {
    branch(icc_.n, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFbe) {
    branch(fcc_ == FpCondition::kEqual, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFbne) {
    branch(fcc_ != FpCondition::kEqual, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFbl) {
    branch(fcc_ == FpCondition::kLess, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFbg) {
    branch(fcc_ == FpCondition::kGreater, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFble) {
    branch(fcc_ == FpCondition::kLess || fcc_ == FpCondition::kEqual, op->imm);
    VM_NEXT();
  }
  VM_CASE(kFbge) {
    branch(fcc_ == FpCondition::kGreater || fcc_ == FpCondition::kEqual,
           op->imm);
    VM_NEXT();
  }

  // ---- register windows ----
  // Operands are read in the current window and rd written in the new one,
  // exactly as the reference core's kSave/kRestore case does.
  VM_CASE(kSave) {
    const std::uint32_t value =
        rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    const std::uint8_t rd = op->rd; // a spill store may invalidate `op`
    sync(); // a window overflow trap spills through the hierarchy
    save_window();
    resume();
    wr(rd, value);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kSavex) {
    const std::uint32_t value = rv(op->rs1) + rv(op->rs2);
    const std::uint8_t rd = op->rd;
    sync(); // a window overflow trap spills through the hierarchy
    save_window();
    resume();
    wr(rd, value);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kRestore) {
    const std::uint32_t value = rv(op->rs1) + rv(op->rs2);
    const std::uint8_t rd = op->rd;
    sync(); // a window underflow trap fills through the hierarchy
    restore_window();
    resume();
    wr(rd, value);
    pc_ += 4;
    VM_NEXT();
  }

  // ---- floating point ----
  VM_CASE(kFaddd) {
    const double a = freg(op->rs1);
    const double b = freg(op->rs2);
    cycles += cfg.fp_add_cycles - 1 + fp_extra_cycles(Opcode::kFaddd, a, b);
    set_freg(op->rd, a + b);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFsubd) {
    const double a = freg(op->rs1);
    const double b = freg(op->rs2);
    cycles += cfg.fp_add_cycles - 1 + fp_extra_cycles(Opcode::kFsubd, a, b);
    set_freg(op->rd, a - b);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFmuld) {
    const double a = freg(op->rs1);
    const double b = freg(op->rs2);
    cycles += cfg.fp_mul_cycles - 1 + fp_extra_cycles(Opcode::kFmuld, a, b);
    set_freg(op->rd, a * b);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFdivd) {
    const double a = freg(op->rs1);
    const double b = freg(op->rs2);
    cycles += cfg.fp_div_cycles - 1 + fp_extra_cycles(Opcode::kFdivd, a, b);
    set_freg(op->rd, a / b);
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFsqrtd) {
    const double a = freg(op->rs1);
    cycles += cfg.fp_sqrt_cycles - 1 + fp_extra_cycles(Opcode::kFsqrtd, a, 1.0);
    set_freg(op->rd, std::sqrt(a));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFcmpd) {
    const double a = freg(op->rs1);
    const double b = freg(op->rs2);
    cycles += cfg.fp_add_cycles - 1;
    if (std::isnan(a) || std::isnan(b)) {
      fcc_ = FpCondition::kUnordered;
    } else if (a < b) {
      fcc_ = FpCondition::kLess;
    } else if (a > b) {
      fcc_ = FpCondition::kGreater;
    } else {
      fcc_ = FpCondition::kEqual;
    }
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFitod) {
    cycles += cfg.fp_add_cycles - 1;
    set_freg(op->rd,
             static_cast<double>(static_cast<std::int32_t>(rv(op->rs1))));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFdtoi) {
    cycles += cfg.fp_add_cycles - 1;
    const double value = freg(op->rs1);
    wr(op->rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFmovd) {
    set_freg(op->rd, freg(op->rs1));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFnegd) {
    set_freg(op->rd, -freg(op->rs1));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFabsd) {
    set_freg(op->rd, std::fabs(freg(op->rs1)));
    pc_ += 4;
    VM_NEXT();
  }

  // ---- platform ----
  VM_CASE(kRdtick) {
    wr(op->rd, static_cast<std::uint32_t>(cycles));
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kIpoint) {
    const std::uint32_t id = static_cast<std::uint32_t>(op->imm);
    cycles += cfg.ipoint_cycles;
    if (ipoint_sink_) {
      sync();
      ipoint_sink_(id, cycles_);
      resume();
    }
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kFlush) {
    const std::uint32_t addr = rv(op->rs1) + static_cast<std::uint32_t>(op->imm);
    hier.invalidate_range(addr, 1);
    cycles += cfg.flush_cycles;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kHalt) {
    halted_ = true;
    pc_ += 4;
    VM_NEXT();
  }
  VM_CASE(kTrapReloc) {
    const std::uint32_t id = static_cast<std::uint32_t>(op->imm);
    cycles += cfg.trap_cycles;
    if (!reloc_trap_sink_) {
      fault("trapreloc without a registered DSR runtime");
    }
    // The sink rewrites code (relocation) — `op` may be invalidated from
    // here on, which is why `id` was copied first.
    sync();
    cycles_ += reloc_trap_sink_(id);
    resume();
    pc_ += 4;
    VM_NEXT();
  }
  VM_END_DISPATCH()
  } catch (...) {
    if (!members_live) {
      sync();
    }
    throw;
  }

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_END_DISPATCH
#undef VM_NEXT
}

} // namespace proxima::vm
