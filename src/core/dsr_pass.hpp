// The DSR compiler pass — the compile-time half of the paper's contribution.
//
// Mirrors the Stabilizer-derived LLVM pass described in Section III.B:
//   1. *Code randomisation support*: every direct CALL is rewritten into an
//      indirect call through a per-function slot of the relocation table
//      (`__dsr_functab`), so the runtime can move functions anywhere.
//   2. *Stack randomisation support*: every function prologue's SAVE is
//      rewritten to add a per-function random offset — read from the
//      metadata table `__dsr_stackoff` — to the stack pointer *within the
//      SAVE instruction* (register form), keeping the update atomic and the
//      pointer always valid, exactly as Section III.B.2 requires.
//   3. *Metadata generation*: the two tables are emitted as data objects;
//      the runtime initialises them at program start-up / partition reboot.
//
// Optionally (lazy relocation, Section III.B.1) the pass also emits a
// per-function stub that traps into the runtime on first call; the paper's
// port chose the *eager* scheme because lazy relocation complicates
// worst-case memory consumption and WCET — our benches quantify that.
//
// The pass reserves %g6/%g7 as scratch, which the SPARC ABI sets aside for
// system software.
#pragma once

#include "isa/program.hpp"

#include <stdexcept>
#include <string>

namespace proxima::dsr {

class DsrError : public std::runtime_error {
public:
  explicit DsrError(const std::string& what) : std::runtime_error(what) {}
};

/// Relocation table symbol: one 32-bit slot per function, holding the
/// function's current address.
inline constexpr const char* kFunctabSymbol = "__dsr_functab";
/// Stack-offset table symbol: one 32-bit slot per function, holding the
/// random offset (multiple of 8) its prologue adds to the stack pointer.
inline constexpr const char* kStackoffSymbol = "__dsr_stackoff";
/// Name prefix of generated lazy-relocation stubs.
inline constexpr const char* kStubPrefix = "__dsr_stub_";

/// The pass always rewrites every direct call and every prologue; the one
/// option is the lazy scheme's stubs.
struct PassOptions {
  /// Emit lazy-relocation stubs (first-call trap).  Off for the eager
  /// scheme the paper adopted.
  bool lazy_stubs = false;
};

struct PassReport {
  std::uint32_t calls_rewritten = 0;
  std::uint32_t prologues_rewritten = 0;
  std::uint32_t stubs_emitted = 0;
  std::uint32_t instructions_before = 0;
  std::uint32_t instructions_after = 0; // excludes stubs

  /// Static code-size overhead of the transformation (the paper measures
  /// <2% dynamic instruction overhead on the case study).
  double overhead_ratio() const {
    return instructions_before == 0
               ? 0.0
               : static_cast<double>(instructions_after) /
                         static_cast<double>(instructions_before) -
                     1.0;
  }
};

/// True if `name` denotes a pass-generated stub (excluded from relocation).
bool is_stub_name(const std::string& name);

/// Transform `program` in place.  Throws DsrError if the program already
/// defines the metadata symbols or contains malformed fixups.
PassReport apply_pass(isa::Program& program, const PassOptions& options = {});

} // namespace proxima::dsr
