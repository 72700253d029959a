#include "dsr_pass.hpp"

#include "isa/builder.hpp"
#include "isa/transform.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace proxima::dsr {

namespace {

using isa::CodeEdit;
using isa::FixupKind;
using isa::Function;
using isa::Instruction;
using isa::Opcode;
using Edit = CodeEdit;

/// The 4-instruction indirect-call sequence through functab[callee_id].
Edit make_call_edit(std::size_t index, std::uint32_t callee_id) {
  Edit edit;
  edit.index = index;
  const std::int32_t addend = static_cast<std::int32_t>(4 * callee_id);
  edit.fixups.push_back({0, FixupKind::kHi19, kFunctabSymbol, addend});
  edit.fixups.push_back({1, FixupKind::kLo13, kFunctabSymbol, addend});
  edit.code.push_back(isa::make_sethi(isa::kG6, 0));
  edit.code.push_back(isa::make_i(Opcode::kOrlo, isa::kG6, isa::kG6, 0));
  edit.code.push_back(isa::make_i(Opcode::kLd, isa::kG6, isa::kG6, 0));
  edit.code.push_back(isa::make_i(Opcode::kJmpl, isa::kO7, isa::kG6, 0));
  return edit;
}

/// The 6-instruction randomised prologue: load this function's offset and
/// fold it into the SAVE (register form), so the stack pointer is adjusted
/// atomically (Section III.B.2).
Edit make_prologue_edit(std::size_t index, std::uint32_t self_id,
                        std::uint32_t frame_bytes) {
  Edit edit;
  edit.index = index;
  const std::int32_t addend = static_cast<std::int32_t>(4 * self_id);
  edit.fixups.push_back({0, FixupKind::kHi19, kStackoffSymbol, addend});
  edit.fixups.push_back({1, FixupKind::kLo13, kStackoffSymbol, addend});
  edit.code.push_back(isa::make_sethi(isa::kG6, 0));
  edit.code.push_back(isa::make_i(Opcode::kOrlo, isa::kG6, isa::kG6, 0));
  edit.code.push_back(isa::make_i(Opcode::kLd, isa::kG6, isa::kG6, 0));
  // g7 = -(offset + frame)
  edit.code.push_back(isa::make_r(Opcode::kSub, isa::kG7, isa::kG0, isa::kG6));
  edit.code.push_back(isa::make_i(Opcode::kSubi, isa::kG7, isa::kG7,
                                  static_cast<std::int32_t>(frame_bytes)));
  edit.code.push_back(
      isa::make_r(Opcode::kSavex, isa::kSp, isa::kSp, isa::kG7));
  return edit;
}

/// Per-function lazy stub: trap into the runtime, then tail-jump through
/// the (now updated) relocation table.
Function make_stub(const std::string& target_name, std::uint32_t target_id) {
  isa::FunctionBuilder fb(kStubPrefix + target_name);
  fb.emit(isa::make_b(Opcode::kTrapReloc,
                      static_cast<std::int32_t>(target_id)));
  fb.load_address(isa::kG6, kFunctabSymbol,
                  static_cast<std::int32_t>(4 * target_id));
  fb.ld(isa::kG6, isa::kG6, 0);
  fb.opi(Opcode::kJmpl, isa::kG0, isa::kG6, 0); // tail jump: %o7 untouched
  return std::move(fb).build();
}

} // namespace

bool is_stub_name(const std::string& name) {
  return name.rfind(kStubPrefix, 0) == 0;
}

PassReport apply_pass(isa::Program& program, const PassOptions& options) {
  if (program.find_data(kFunctabSymbol) != nullptr ||
      program.find_data(kStackoffSymbol) != nullptr) {
    throw DsrError("program already carries DSR metadata (pass applied twice?)");
  }
  for (const Function& function : program.functions) {
    if (is_stub_name(function.name)) {
      throw DsrError("program already contains DSR stubs");
    }
  }

  // Function ids follow program order, matching the linker's records.
  std::map<std::string, std::uint32_t> ids;
  for (std::uint32_t i = 0; i < program.functions.size(); ++i) {
    ids[program.functions[i].name] = i;
  }
  const std::uint32_t function_count =
      static_cast<std::uint32_t>(program.functions.size());

  PassReport report;
  for (const Function& function : program.functions) {
    report.instructions_before +=
        static_cast<std::uint32_t>(function.code.size());
  }

  for (Function& function : program.functions) {
    std::vector<Edit> edits;
    std::set<std::size_t> consumed;

    for (std::size_t i = 0; i < function.fixups.size(); ++i) {
      const isa::Fixup& fixup = function.fixups[i];
      if (fixup.kind != FixupKind::kCall) {
        continue;
      }
      if (function.code[fixup.index].op != Opcode::kCall) {
        throw DsrError(function.name + ": call fixup on a non-call");
      }
      const auto it = ids.find(fixup.symbol);
      if (it == ids.end()) {
        throw DsrError(function.name + ": call to unknown function '" +
                       fixup.symbol + "'");
      }
      edits.push_back(make_call_edit(fixup.index, it->second));
      consumed.insert(i);
      ++report.calls_rewritten;
    }

    if (function.has_prologue) {
      if (function.code[function.prologue_index].op != Opcode::kSave) {
        throw DsrError(function.name + ": prologue index is not a SAVE");
      }
      edits.push_back(make_prologue_edit(function.prologue_index,
                                         ids.at(function.name),
                                         function.frame_bytes));
      ++report.prologues_rewritten;
    }

    if (!edits.empty()) {
      isa::apply_edits(function, std::move(edits), consumed);
    }
  }

  for (const Function& function : program.functions) {
    report.instructions_after +=
        static_cast<std::uint32_t>(function.code.size());
  }

  // Metadata tables: one u32 slot per function, zero-initialised; the
  // runtime fills them at start-up.  64-byte alignment keeps each table on
  // its own cache lines (they are hot: read on every call / prologue).
  program.data.push_back(isa::DataObject{
      .name = kFunctabSymbol, .size = 4 * function_count, .align = 64});
  program.data.push_back(isa::DataObject{
      .name = kStackoffSymbol, .size = 4 * function_count, .align = 64});

  if (options.lazy_stubs) {
    std::vector<Function> stubs;
    stubs.reserve(function_count);
    for (const auto& [name, id] : ids) {
      stubs.push_back(make_stub(name, id));
      ++report.stubs_emitted;
    }
    for (Function& stub : stubs) {
      program.functions.push_back(std::move(stub));
    }
  }
  return report;
}

} // namespace proxima::dsr
