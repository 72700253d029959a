// The reference execution engine: the original fetch-decode-execute switch
// interpreter, selectable via VmConfig{.core = VmCore::kReference}.
//
// This core is the oracle for the predecoded fast-dispatch core in
// fast_vm.cpp: the differential suite (tests/vm_differential_test.cpp)
// asserts bit-identical cycles, instruction counts and memory-event
// counters between the two on every scenario-registry workload, across all
// four randomisation modes.  Keep this implementation boring and obviously
// correct — its value is being easy to trust, not being fast.
#include "vm.hpp"

#include <cmath>

namespace proxima::vm {

using isa::Instruction;
using isa::Opcode;

RunResult Vm::run_reference(std::uint64_t cycle_budget) {
  while (!halted_) {
    if (instructions_ >= config_.max_instructions) {
      return RunResult{RunResult::Stop::kInstructionLimit, instructions_,
                       cycles_};
    }
    if (cycle_budget != 0 && cycles_ >= cycle_budget) {
      return RunResult{RunResult::Stop::kCycleBudget, instructions_, cycles_};
    }
    step();
  }
  return RunResult{RunResult::Stop::kHalt, instructions_, cycles_};
}

void Vm::step() {
  if (halted_) {
    fault("step() on a halted core");
  }
  // Fetch.
  cycles_ += 1 + hierarchy_.fetch(pc_);
  const std::uint32_t word = memory_.read_u32(pc_);
  Instruction instr;
  try {
    instr = isa::decode(word);
  } catch (const isa::DecodeError& e) {
    fault(e.what());
  }
  ++instructions_;
  ++hierarchy_.counters().instructions;
  if (isa::is_fp_op(instr.op)) {
    ++hierarchy_.counters().fpu_ops;
  }
  if (mix_ != nullptr) {
    ++mix_[static_cast<std::uint8_t>(instr.op)];
  }
  if (taint_) {
    taint_execute(instr); // before execute(): operands still hold sources
  }
  execute(instr);
}

void Vm::execute(const Instruction& instr) {
  const auto rs1 = [&] { return visible_value(instr.rs1); };
  const auto rs2 = [&] { return visible_value(instr.rs2); };
  const auto simm = [&] { return static_cast<std::uint32_t>(instr.imm); };

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

  auto branch_if = [&](bool condition) {
    if (condition) {
      take_branch(instr.imm);
    } else {
      pc_ += 4;
    }
  };

  const std::uint32_t pc_before = pc_;
  bool advanced = false; // control-transfer ops set pc_ themselves

  switch (instr.op) {
  case Opcode::kNop:
    break;

  // ---- integer ALU, register form ----
  case Opcode::kAdd:
    set_reg(instr.rd, rs1() + rs2());
    break;
  case Opcode::kSub:
    set_reg(instr.rd, rs1() - rs2());
    break;
  case Opcode::kAnd:
    set_reg(instr.rd, rs1() & rs2());
    break;
  case Opcode::kOr:
    set_reg(instr.rd, rs1() | rs2());
    break;
  case Opcode::kXor:
    set_reg(instr.rd, rs1() ^ rs2());
    break;
  case Opcode::kSll:
    set_reg(instr.rd, rs1() << (rs2() & 31));
    break;
  case Opcode::kSrl:
    set_reg(instr.rd, rs1() >> (rs2() & 31));
    break;
  case Opcode::kSra:
    set_reg(instr.rd, static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(rs1()) >> (rs2() & 31)));
    break;
  case Opcode::kMul:
    // SPARC smul keeps the low 32 bits of the 64-bit product: widen so an
    // overflowing guest multiply wraps instead of being host-side UB.
    set_reg(instr.rd,
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(rs1())) *
                static_cast<std::int32_t>(rs2())));
    cycles_ += kMulCycles - 1;
    break;
  case Opcode::kDiv: {
    const auto divisor = static_cast<std::int32_t>(rs2());
    if (divisor == 0) {
      fault("integer division by zero");
    }
    const auto dividend = static_cast<std::int32_t>(rs1());
    const std::int64_t q = static_cast<std::int64_t>(dividend) / divisor;
    set_reg(instr.rd, static_cast<std::uint32_t>(q));
    cycles_ += kDivCycles - 1;
    break;
  }
  case Opcode::kAddcc: {
    const std::uint32_t a = rs1();
    const std::uint32_t b = rs2();
    const std::uint32_t r = a + b;
    set_reg(instr.rd, r);
    set_icc_add(a, b, r);
    break;
  }
  case Opcode::kSubcc: {
    const std::uint32_t a = rs1();
    const std::uint32_t b = rs2();
    const std::uint32_t r = a - b;
    set_reg(instr.rd, r);
    set_icc_sub(a, b, r);
    break;
  }
  case Opcode::kOrcc: {
    const std::uint32_t r = rs1() | rs2();
    set_reg(instr.rd, r);
    set_icc_logic(r);
    break;
  }

  // ---- integer ALU, immediate form ----
  case Opcode::kAddi:
    set_reg(instr.rd, rs1() + simm());
    break;
  case Opcode::kSubi:
    set_reg(instr.rd, rs1() - simm());
    break;
  case Opcode::kAndi:
    set_reg(instr.rd, rs1() & simm());
    break;
  case Opcode::kOri:
    set_reg(instr.rd, rs1() | simm());
    break;
  case Opcode::kXori:
    set_reg(instr.rd, rs1() ^ simm());
    break;
  case Opcode::kSlli:
    set_reg(instr.rd, rs1() << (simm() & 31));
    break;
  case Opcode::kSrli:
    set_reg(instr.rd, rs1() >> (simm() & 31));
    break;
  case Opcode::kSrai:
    set_reg(instr.rd, static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(rs1()) >> (simm() & 31)));
    break;
  case Opcode::kMuli:
    set_reg(instr.rd,
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(rs1())) *
                instr.imm));
    cycles_ += kMulCycles - 1;
    break;
  case Opcode::kDivi: {
    if (instr.imm == 0) {
      fault("integer division by zero");
    }
    const std::int64_t q =
        static_cast<std::int64_t>(static_cast<std::int32_t>(rs1())) /
        instr.imm;
    set_reg(instr.rd, static_cast<std::uint32_t>(q));
    cycles_ += kDivCycles - 1;
    break;
  }
  case Opcode::kAddcci: {
    const std::uint32_t a = rs1();
    const std::uint32_t b = simm();
    const std::uint32_t r = a + b;
    set_reg(instr.rd, r);
    set_icc_add(a, b, r);
    break;
  }
  case Opcode::kSubcci: {
    const std::uint32_t a = rs1();
    const std::uint32_t b = simm();
    const std::uint32_t r = a - b;
    set_reg(instr.rd, r);
    set_icc_sub(a, b, r);
    break;
  }
  case Opcode::kOrlo:
    // Zero-extended 13-bit OR: the %lo companion of SETHI.
    set_reg(instr.rd, rs1() | (simm() & 0x1fffU));
    break;
  case Opcode::kSethi:
    set_reg(instr.rd, static_cast<std::uint32_t>(instr.imm) << 13);
    break;

  // ---- memory ----
  case Opcode::kLd:
  case Opcode::kLdx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLd ? rs1() + simm() : rs1() + rs2();
    if (addr % 4 != 0) {
      fault("misaligned word load");
    }
    cycles_ += kLoadUseCycles + hierarchy_.load(addr);
    set_reg(instr.rd, memory_.read_u32(addr));
    break;
  }
  case Opcode::kLdb:
  case Opcode::kLdbx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdb ? rs1() + simm() : rs1() + rs2();
    cycles_ += kLoadUseCycles + hierarchy_.load(addr);
    set_reg(instr.rd, memory_.read_u8(addr));
    break;
  }
  case Opcode::kLdd:
  case Opcode::kLddx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdd ? rs1() + simm() : rs1() + rs2();
    if (addr % 8 != 0) {
      fault("misaligned doubleword load");
    }
    if (instr.rd % 2 != 0) {
      fault("ldd destination must be an even register");
    }
    cycles_ += kLoadUseCycles + hierarchy_.load(addr);
    set_reg(instr.rd, memory_.read_u32(addr));
    set_reg(static_cast<std::uint8_t>(instr.rd + 1), memory_.read_u32(addr + 4));
    break;
  }
  case Opcode::kSt:
  case Opcode::kStx: {
    const std::uint32_t addr =
        instr.op == Opcode::kSt ? rs1() + simm() : rs1() + rs2();
    if (addr % 4 != 0) {
      fault("misaligned word store");
    }
    memory_.write_u32(addr, visible_value(instr.rd));
    cycles_ += hierarchy_.store(addr, cycles_, 4);
    break;
  }
  case Opcode::kStb:
  case Opcode::kStbx: {
    const std::uint32_t addr =
        instr.op == Opcode::kStb ? rs1() + simm() : rs1() + rs2();
    memory_.write_u8(addr, static_cast<std::uint8_t>(visible_value(instr.rd)));
    cycles_ += hierarchy_.store(addr, cycles_, 1);
    break;
  }
  case Opcode::kStd:
  case Opcode::kStdx: {
    const std::uint32_t addr =
        instr.op == Opcode::kStd ? rs1() + simm() : rs1() + rs2();
    if (addr % 8 != 0) {
      fault("misaligned doubleword store");
    }
    if (instr.rd % 2 != 0) {
      fault("std source must be an even register");
    }
    memory_.write_u32(addr, visible_value(instr.rd));
    memory_.write_u32(addr + 4,
                      visible_value(static_cast<std::uint8_t>(instr.rd + 1)));
    cycles_ += hierarchy_.store(addr, cycles_, 8);
    break;
  }
  case Opcode::kLdf:
  case Opcode::kLdfx: {
    const std::uint32_t addr =
        instr.op == Opcode::kLdf ? rs1() + simm() : rs1() + rs2();
    if (addr % 8 != 0) {
      fault("misaligned fp load");
    }
    cycles_ += kLoadUseCycles + hierarchy_.load(addr);
    set_freg(instr.rd, memory_.read_f64(addr));
    break;
  }
  case Opcode::kStf:
  case Opcode::kStfx: {
    const std::uint32_t addr =
        instr.op == Opcode::kStf ? rs1() + simm() : rs1() + rs2();
    if (addr % 8 != 0) {
      fault("misaligned fp store");
    }
    memory_.write_f64(addr, freg(instr.rd));
    cycles_ += hierarchy_.store(addr, cycles_, 8);
    break;
  }

  // ---- control transfer ----
  case Opcode::kCall:
    set_reg(isa::kO7, pc_before); // return address = address of the call
    take_branch(instr.imm);
    advanced = true;
    break;
  case Opcode::kJmpl: {
    const std::uint32_t target = (rs1() + simm()) & ~3U;
    set_reg(instr.rd, pc_before);
    pc_ = target;
    cycles_ += kBranchTakenPenalty;
    advanced = true;
    break;
  }
  case Opcode::kBa:
    branch_if(true);
    advanced = true;
    break;
  case Opcode::kBn:
    branch_if(false);
    advanced = true;
    break;
  case Opcode::kBe:
    branch_if(icc_.z);
    advanced = true;
    break;
  case Opcode::kBne:
    branch_if(!icc_.z);
    advanced = true;
    break;
  case Opcode::kBg:
    branch_if(!(icc_.z || (icc_.n != icc_.v)));
    advanced = true;
    break;
  case Opcode::kBle:
    branch_if(icc_.z || (icc_.n != icc_.v));
    advanced = true;
    break;
  case Opcode::kBge:
    branch_if(icc_.n == icc_.v);
    advanced = true;
    break;
  case Opcode::kBl:
    branch_if(icc_.n != icc_.v);
    advanced = true;
    break;
  case Opcode::kBgu:
    branch_if(!(icc_.c || icc_.z));
    advanced = true;
    break;
  case Opcode::kBleu:
    branch_if(icc_.c || icc_.z);
    advanced = true;
    break;
  case Opcode::kBcc:
    branch_if(!icc_.c);
    advanced = true;
    break;
  case Opcode::kBcs:
    branch_if(icc_.c);
    advanced = true;
    break;
  case Opcode::kBpos:
    branch_if(!icc_.n);
    advanced = true;
    break;
  case Opcode::kBneg:
    branch_if(icc_.n);
    advanced = true;
    break;
  case Opcode::kFbe:
    branch_if(fcc_ == FpCondition::kEqual);
    advanced = true;
    break;
  case Opcode::kFbne:
    branch_if(fcc_ != FpCondition::kEqual);
    advanced = true;
    break;
  case Opcode::kFbl:
    branch_if(fcc_ == FpCondition::kLess);
    advanced = true;
    break;
  case Opcode::kFbg:
    branch_if(fcc_ == FpCondition::kGreater);
    advanced = true;
    break;
  case Opcode::kFble:
    branch_if(fcc_ == FpCondition::kLess || fcc_ == FpCondition::kEqual);
    advanced = true;
    break;
  case Opcode::kFbge:
    branch_if(fcc_ == FpCondition::kGreater || fcc_ == FpCondition::kEqual);
    advanced = true;
    break;

  // ---- register windows ----
  // SAVE computes in the current window and writes rd in the new one
  // (standard idiom: save %sp, -N, %sp); RESTORE writes rd in the old
  // (caller) window.
  case Opcode::kSave:
  case Opcode::kSavex:
  case Opcode::kRestore: {
    const std::uint32_t value =
        instr.op == Opcode::kSave ? rs1() + simm() : rs1() + rs2();
    if (instr.op == Opcode::kRestore) {
      restore_window();
    } else {
      save_window();
    }
    set_reg(instr.rd, value);
    break;
  }

  // ---- floating point ----
  case Opcode::kFaddd: {
    const double a = freg(instr.rs1);
    const double b = freg(instr.rs2);
    cycles_ += kFpAddCycles - 1 + fp_extra_cycles(instr.op, a, b);
    set_freg(instr.rd, a + b);
    break;
  }
  case Opcode::kFsubd: {
    const double a = freg(instr.rs1);
    const double b = freg(instr.rs2);
    cycles_ += kFpAddCycles - 1 + fp_extra_cycles(instr.op, a, b);
    set_freg(instr.rd, a - b);
    break;
  }
  case Opcode::kFmuld: {
    const double a = freg(instr.rs1);
    const double b = freg(instr.rs2);
    cycles_ += kFpMulCycles - 1 + fp_extra_cycles(instr.op, a, b);
    set_freg(instr.rd, a * b);
    break;
  }
  case Opcode::kFdivd: {
    const double a = freg(instr.rs1);
    const double b = freg(instr.rs2);
    cycles_ += kFpDivCycles - 1 + fp_extra_cycles(instr.op, a, b);
    set_freg(instr.rd, a / b);
    break;
  }
  case Opcode::kFsqrtd: {
    const double a = freg(instr.rs1);
    cycles_ += kFpSqrtCycles - 1 + fp_extra_cycles(instr.op, a, 1.0);
    set_freg(instr.rd, std::sqrt(a));
    break;
  }
  case Opcode::kFcmpd: {
    const double a = freg(instr.rs1);
    const double b = freg(instr.rs2);
    cycles_ += kFpAddCycles - 1;
    if (std::isnan(a) || std::isnan(b)) {
      fcc_ = FpCondition::kUnordered;
    } else if (a < b) {
      fcc_ = FpCondition::kLess;
    } else if (a > b) {
      fcc_ = FpCondition::kGreater;
    } else {
      fcc_ = FpCondition::kEqual;
    }
    break;
  }
  case Opcode::kFitod:
    cycles_ += kFpAddCycles - 1;
    set_freg(instr.rd,
             static_cast<double>(static_cast<std::int32_t>(visible_value(instr.rs1))));
    break;
  case Opcode::kFdtoi: {
    cycles_ += kFpAddCycles - 1;
    const double value = freg(instr.rs1);
    set_reg(instr.rd,
            static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
    break;
  }
  case Opcode::kFmovd:
    set_freg(instr.rd, freg(instr.rs1));
    break;
  case Opcode::kFnegd:
    set_freg(instr.rd, -freg(instr.rs1));
    break;
  case Opcode::kFabsd:
    set_freg(instr.rd, std::fabs(freg(instr.rs1)));
    break;

  // ---- platform ----
  case Opcode::kRdtick:
    set_reg(instr.rd, static_cast<std::uint32_t>(cycles_));
    break;
  case Opcode::kIpoint:
    cycles_ += kIpointCycles;
    if (ipoint_sink_) {
      ipoint_sink_(static_cast<std::uint32_t>(instr.imm), cycles_);
    }
    break;
  case Opcode::kFlush: {
    const std::uint32_t addr = rs1() + simm();
    hierarchy_.invalidate_range(addr, 1);
    cycles_ += kFlushCycles;
    break;
  }
  case Opcode::kHalt:
    halted_ = true;
    break;
  case Opcode::kTrapReloc:
    cycles_ += kTrapCycles;
    if (!reloc_trap_sink_) {
      fault("trapreloc without a registered DSR runtime");
    }
    cycles_ += reloc_trap_sink_(static_cast<std::uint32_t>(instr.imm));
    break;

  case Opcode::kOpcodeCount:
    fault("invalid opcode");
  }

  if (!advanced) {
    pc_ = pc_before + 4;
  }
}

} // namespace proxima::vm
