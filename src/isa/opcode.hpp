// Opcode set of the mini-SPARC ISA.
//
// A deliberately reduced but fully executable SPARC-v8-flavoured ISA:
// fixed 32-bit big-endian instructions, register windows with
// SAVE/RESTORE, integer + double-precision FP, condition codes, and the
// FLUSH instruction the DSR invalidation routine relies on.  Four
// encodings exist (R, I, B, H — see instruction.hpp).  Simplifications
// versus real SPARC v8 are documented in DESIGN.md: no branch delay slots,
// 14-bit immediates (with SETHI covering the upper 19 bits), and a single
// trap type (window spill/fill, handled as microcode by the VM).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace proxima::isa {

enum class Opcode : std::uint8_t {
  kNop = 0,

  // Integer ALU, register form.
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kMul, kDiv,
  kAddcc, kSubcc, kOrcc,

  // Integer ALU, immediate form (simm14 unless noted).
  kAddi, kSubi, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kMuli, kDivi,
  kAddcci, kSubcci,
  /// OR with zero-extended 13-bit immediate: pairs with kSethi to build
  /// arbitrary 32-bit constants (%hi/%lo idiom).
  kOrlo,
  /// rd = imm19 << 13 (the %hi part of an absolute address).
  kSethi,

  // Memory: word, byte, doubleword; register and immediate addressing.
  kLd, kLdx, kSt, kStx,
  kLdb, kLdbx, kStb, kStbx,
  kLdd, kLddx, kStd, kStdx,
  // Double-precision FP load/store.
  kLdf, kLdfx, kStf, kStfx,

  // Control transfer.
  kCall,  // B-form: pc-relative, return address to %o7
  kJmpl,  // I-form: rd = pc, jump to rs1 + simm14 (indirect call / ret)

  // Conditional branches on integer condition codes (B-form).
  kBa, kBn, kBe, kBne, kBg, kBle, kBge, kBl, kBgu, kBleu, kBcc, kBcs,
  kBpos, kBneg,

  // Conditional branches on FP condition codes (B-form).
  kFbe, kFbne, kFbl, kFbg, kFble, kFbge,

  // Register-window management.
  kSave,    // I-form: new window; rd(new) = rs1(old) + simm14
  kSavex,   // R-form: new window; rd(new) = rs1(old) + rs2(old)
  kRestore, // R-form: previous window; rd(old) = rs1(cur) + rs2(cur)

  // Double-precision floating point (operands are FP register indices).
  kFaddd, kFsubd, kFmuld, kFdivd, kFsqrtd,
  kFcmpd,          // sets fcc
  kFitod, kFdtoi,  // int <-> double conversion (via FP registers)
  kFmovd, kFnegd, kFabsd,

  // Platform.
  kRdtick, // rd = low 32 bits of the cycle counter (execution time register)
  kIpoint, // B-form imm: RVS instrumentation point; timestamp to trace bank
  kFlush,  // I-form: invalidate the cache line holding [rs1 + simm14]
  kHalt,   // stop the core (end of partition job)
  /// Lazy-relocation trap (B-form, imm = function id).  Executed by the
  /// per-function stub on first call; the DSR runtime relocates the
  /// function, charges the relocation cost, and execution continues in the
  /// stub which tail-jumps through the updated table (Section III.B.1).
  kTrapReloc,

  kOpcodeCount,
};

/// X-macro over every executable opcode, in enum order.  The fast core's
/// computed-goto label table and the `vm.mix.*` metric names are generated
/// from this list; a static_assert in fast_vm.cpp verifies the order
/// matches the enum values.
#define PROXIMA_VM_FOREACH_OPCODE(X)                                          \
  X(kNop)                                                                     \
  X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kSll) X(kSrl) X(kSra)              \
  X(kMul) X(kDiv) X(kAddcc) X(kSubcc) X(kOrcc)                                \
  X(kAddi) X(kSubi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)      \
  X(kMuli) X(kDivi) X(kAddcci) X(kSubcci) X(kOrlo) X(kSethi)                  \
  X(kLd) X(kLdx) X(kSt) X(kStx) X(kLdb) X(kLdbx) X(kStb) X(kStbx)             \
  X(kLdd) X(kLddx) X(kStd) X(kStdx) X(kLdf) X(kLdfx) X(kStf) X(kStfx)         \
  X(kCall) X(kJmpl)                                                           \
  X(kBa) X(kBn) X(kBe) X(kBne) X(kBg) X(kBle) X(kBge) X(kBl)                  \
  X(kBgu) X(kBleu) X(kBcc) X(kBcs) X(kBpos) X(kBneg)                          \
  X(kFbe) X(kFbne) X(kFbl) X(kFbg) X(kFble) X(kFbge)                          \
  X(kSave) X(kSavex) X(kRestore)                                              \
  X(kFaddd) X(kFsubd) X(kFmuld) X(kFdivd) X(kFsqrtd) X(kFcmpd)                \
  X(kFitod) X(kFdtoi) X(kFmovd) X(kFnegd) X(kFabsd)                           \
  X(kRdtick) X(kIpoint) X(kFlush) X(kHalt) X(kTrapReloc)

/// Instruction encodings.
enum class Format : std::uint8_t {
  kR, // op rd rs1 rs2
  kI, // op rd rs1 simm14
  kB, // op disp24/imm24
  kH, // op rd imm19 (SETHI)
};

struct OpcodeInfo {
  std::string_view name;
  Format format;
};

namespace detail {
constexpr std::array<OpcodeInfo,
                     static_cast<std::size_t>(Opcode::kOpcodeCount)>
make_opcode_table() {
  std::array<OpcodeInfo, static_cast<std::size_t>(Opcode::kOpcodeCount)> t{};
  auto set = [&t](Opcode op, std::string_view name, Format f) {
    t[static_cast<std::size_t>(op)] = OpcodeInfo{name, f};
  };
  set(Opcode::kNop, "nop", Format::kB);
  set(Opcode::kAdd, "add", Format::kR);
  set(Opcode::kSub, "sub", Format::kR);
  set(Opcode::kAnd, "and", Format::kR);
  set(Opcode::kOr, "or", Format::kR);
  set(Opcode::kXor, "xor", Format::kR);
  set(Opcode::kSll, "sll", Format::kR);
  set(Opcode::kSrl, "srl", Format::kR);
  set(Opcode::kSra, "sra", Format::kR);
  set(Opcode::kMul, "smul", Format::kR);
  set(Opcode::kDiv, "sdiv", Format::kR);
  set(Opcode::kAddcc, "addcc", Format::kR);
  set(Opcode::kSubcc, "subcc", Format::kR);
  set(Opcode::kOrcc, "orcc", Format::kR);
  set(Opcode::kAddi, "add", Format::kI);
  set(Opcode::kSubi, "sub", Format::kI);
  set(Opcode::kAndi, "and", Format::kI);
  set(Opcode::kOri, "or", Format::kI);
  set(Opcode::kXori, "xor", Format::kI);
  set(Opcode::kSlli, "sll", Format::kI);
  set(Opcode::kSrli, "srl", Format::kI);
  set(Opcode::kSrai, "sra", Format::kI);
  set(Opcode::kMuli, "smul", Format::kI);
  set(Opcode::kDivi, "sdiv", Format::kI);
  set(Opcode::kAddcci, "addcc", Format::kI);
  set(Opcode::kSubcci, "subcc", Format::kI);
  set(Opcode::kOrlo, "orlo", Format::kI);
  set(Opcode::kSethi, "sethi", Format::kH);
  set(Opcode::kLd, "ld", Format::kI);
  set(Opcode::kLdx, "ld", Format::kR);
  set(Opcode::kSt, "st", Format::kI);
  set(Opcode::kStx, "st", Format::kR);
  set(Opcode::kLdb, "ldub", Format::kI);
  set(Opcode::kLdbx, "ldub", Format::kR);
  set(Opcode::kStb, "stb", Format::kI);
  set(Opcode::kStbx, "stb", Format::kR);
  set(Opcode::kLdd, "ldd", Format::kI);
  set(Opcode::kLddx, "ldd", Format::kR);
  set(Opcode::kStd, "std", Format::kI);
  set(Opcode::kStdx, "std", Format::kR);
  set(Opcode::kLdf, "lddf", Format::kI);
  set(Opcode::kLdfx, "lddf", Format::kR);
  set(Opcode::kStf, "stdf", Format::kI);
  set(Opcode::kStfx, "stdf", Format::kR);
  set(Opcode::kCall, "call", Format::kB);
  set(Opcode::kJmpl, "jmpl", Format::kI);
  set(Opcode::kBa, "ba", Format::kB);
  set(Opcode::kBn, "bn", Format::kB);
  set(Opcode::kBe, "be", Format::kB);
  set(Opcode::kBne, "bne", Format::kB);
  set(Opcode::kBg, "bg", Format::kB);
  set(Opcode::kBle, "ble", Format::kB);
  set(Opcode::kBge, "bge", Format::kB);
  set(Opcode::kBl, "bl", Format::kB);
  set(Opcode::kBgu, "bgu", Format::kB);
  set(Opcode::kBleu, "bleu", Format::kB);
  set(Opcode::kBcc, "bcc", Format::kB);
  set(Opcode::kBcs, "bcs", Format::kB);
  set(Opcode::kBpos, "bpos", Format::kB);
  set(Opcode::kBneg, "bneg", Format::kB);
  set(Opcode::kFbe, "fbe", Format::kB);
  set(Opcode::kFbne, "fbne", Format::kB);
  set(Opcode::kFbl, "fbl", Format::kB);
  set(Opcode::kFbg, "fbg", Format::kB);
  set(Opcode::kFble, "fble", Format::kB);
  set(Opcode::kFbge, "fbge", Format::kB);
  set(Opcode::kSave, "save", Format::kI);
  set(Opcode::kSavex, "save", Format::kR);
  set(Opcode::kRestore, "restore", Format::kR);
  set(Opcode::kFaddd, "faddd", Format::kR);
  set(Opcode::kFsubd, "fsubd", Format::kR);
  set(Opcode::kFmuld, "fmuld", Format::kR);
  set(Opcode::kFdivd, "fdivd", Format::kR);
  set(Opcode::kFsqrtd, "fsqrtd", Format::kR);
  set(Opcode::kFcmpd, "fcmpd", Format::kR);
  set(Opcode::kFitod, "fitod", Format::kR);
  set(Opcode::kFdtoi, "fdtoi", Format::kR);
  set(Opcode::kFmovd, "fmovd", Format::kR);
  set(Opcode::kFnegd, "fnegd", Format::kR);
  set(Opcode::kFabsd, "fabsd", Format::kR);
  set(Opcode::kRdtick, "rdtick", Format::kR);
  set(Opcode::kIpoint, "ipoint", Format::kB);
  set(Opcode::kFlush, "flush", Format::kI);
  set(Opcode::kHalt, "halt", Format::kB);
  set(Opcode::kTrapReloc, "trapreloc", Format::kB);
  return t;
}
} // namespace detail

inline constexpr auto kOpcodeTable = detail::make_opcode_table();

constexpr const OpcodeInfo& opcode_info(Opcode op) {
  return kOpcodeTable[static_cast<std::size_t>(op)];
}

constexpr bool is_valid_opcode(std::uint8_t raw) {
  return raw < static_cast<std::uint8_t>(Opcode::kOpcodeCount) &&
         !kOpcodeTable[raw].name.empty();
}

/// True for B-format conditional/unconditional branches (not call/ipoint).
constexpr bool is_branch(Opcode op) {
  return op >= Opcode::kBa && op <= Opcode::kFbge;
}

constexpr bool is_fp_op(Opcode op) {
  return (op >= Opcode::kFaddd && op <= Opcode::kFabsd);
}

/// Opcodes whose rd/rs fields index FP registers rather than integer ones.
constexpr bool uses_fp_registers(Opcode op) {
  return is_fp_op(op) || op == Opcode::kLdf || op == Opcode::kLdfx ||
         op == Opcode::kStf || op == Opcode::kStfx;
}

} // namespace proxima::isa
