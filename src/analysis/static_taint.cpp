#include "static_taint.hpp"

#include "core/dsr_pass.hpp"
#include "isa/registers.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace proxima::analysis {

namespace {

using isa::FixupKind;
using isa::Format;
using isa::Function;
using isa::Instruction;
using isa::Opcode;
using isa::kFp;
using isa::kG0;
using isa::kO7;
using isa::kSp;

/// A symbolic pointer built by a sethi/orlo fixup pair.  `complete` only
/// once both halves have been applied — an address is usable as a store
/// base exactly then.
struct SymRef {
  std::string symbol;
  std::int32_t addend = 0;
  bool complete = false;

  bool known() const noexcept { return !symbol.empty(); }
  friend bool operator==(const SymRef&, const SymRef&) = default;
};

/// Abstract value of one register / stack slot: taint (index into the
/// report's source table, -1 clean) plus the symbolic points-to fact.
/// `chain` is presentation only — it never participates in the fixpoint
/// comparison, so it cannot affect termination.
struct Value {
  int source = -1;
  SymRef pt;
  std::vector<std::string> chain;

  bool tainted() const noexcept { return source >= 0; }
  /// Lattice equality (what the fixpoint compares).
  bool same(const Value& other) const noexcept {
    return source == other.source && pt == other.pt;
  }
};

constexpr std::size_t kChainCap = 6;

struct State {
  bool reachable = false;
  std::array<Value, 32> regs;
  std::array<int, 16> fregs; // taint source per FP double register
  /// Best-effort stack-slot tracking, keyed (base register, offset).
  /// Cleared at every window shift and call — slots are only trusted
  /// across straight-line spill/reload pairs.
  std::map<std::pair<std::uint8_t, std::int32_t>, Value> slots;

  State() { fregs.fill(-1); }
};

/// May-taint join: tainted wins; on two distinct sources keep the smaller
/// id (the earlier-registered source) so the fixpoint is monotone on a
/// finite lattice.  Points-to facts must agree or are dropped.
void join_value(Value& into, const Value& from, bool& changed) {
  if (from.tainted() &&
      (!into.tainted() || from.source < into.source)) {
    into.source = from.source;
    into.chain = from.chain;
    changed = true;
  }
  if (into.pt != from.pt && into.pt.known()) {
    into.pt = SymRef{};
    changed = true;
  }
}

bool join_state(State& into, const State& from) {
  if (!from.reachable) {
    return false;
  }
  if (!into.reachable) {
    into = from;
    return true;
  }
  bool changed = false;
  for (std::size_t i = 0; i < into.regs.size(); ++i) {
    join_value(into.regs[i], from.regs[i], changed);
  }
  for (std::size_t i = 0; i < into.fregs.size(); ++i) {
    const int joined = from.fregs[i] >= 0 &&
                               (into.fregs[i] < 0 ||
                                from.fregs[i] < into.fregs[i])
                           ? from.fregs[i]
                           : into.fregs[i];
    if (joined != into.fregs[i]) {
      into.fregs[i] = joined;
      changed = true;
    }
  }
  for (const auto& [key, value] : from.slots) {
    const auto it = into.slots.find(key);
    if (it == into.slots.end()) {
      into.slots.emplace(key, value);
      changed = true;
    } else {
      join_value(it->second, value, changed);
    }
  }
  return changed;
}

bool same_state(const State& a, const State& b) {
  if (a.reachable != b.reachable) {
    return false;
  }
  for (std::size_t i = 0; i < a.regs.size(); ++i) {
    if (!a.regs[i].same(b.regs[i])) {
      return false;
    }
  }
  if (a.fregs != b.fregs) {
    return false;
  }
  if (a.slots.size() != b.slots.size()) {
    return false;
  }
  for (const auto& [key, value] : a.slots) {
    const auto it = b.slots.find(key);
    if (it == b.slots.end() || !value.same(it->second)) {
      return false;
    }
  }
  return true;
}

/// One basic block: [begin, end) instruction indices plus static
/// successors (leader indices).
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<std::size_t> successors;
};

class FunctionAnalysis {
public:
  FunctionAnalysis(const Function& function,
                   const std::set<std::string>& code_symbols,
                   const std::set<std::string>& observables,
                   const TaintOptions& options,
                   std::vector<TaintSource>& sources,
                   std::vector<LeakFinding>& findings)
      : function_(function), code_symbols_(code_symbols),
        observables_(observables), options_(options), sources_(sources),
        findings_(findings) {
    for (const isa::Fixup& fixup : function.fixups) {
      fixups_.emplace(fixup.index, &fixup);
    }
    build_blocks();
  }

  void run() {
    if (function_.code.empty()) {
      return;
    }
    State entry = seed_entry_state();
    // Worklist fixpoint over block-entry states.
    std::map<std::size_t, State> in;
    in[blocks_.begin()->first] = std::move(entry);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [leader, block] : blocks_) {
        const auto it = in.find(leader);
        if (it == in.end() || !it->second.reachable) {
          continue;
        }
        State out = it->second;
        transfer_block(block, out, /*record=*/false);
        for (const std::size_t successor : block.successors) {
          State& target = in[successor];
          const State before = target;
          if (join_state(target, out) && !same_state(before, target)) {
            changed = true;
          }
        }
      }
    }
    // Findings pass: re-run each reachable block once against its final
    // entry state, recording sink stores — one finding per store site.
    for (const auto& [leader, block] : blocks_) {
      const auto it = in.find(leader);
      if (it == in.end() || !it->second.reachable) {
        continue;
      }
      State state = it->second;
      transfer_block(block, state, /*record=*/true);
    }
  }

private:
  State seed_entry_state() {
    State state;
    state.reachable = true;
    if (options_.call_return_addresses) {
      state.regs[kO7].source = register_source(
          TaintSourceKind::kReturnAddress, TaintSource::kEntry,
          "return address in %o7 at entry of '" + function_.name + "'");
      state.regs[kO7].chain = {"%o7 live-in at entry"};
    }
    if (options_.stack_pointers) {
      for (const std::uint8_t reg : {kSp, kFp}) {
        state.regs[reg].source = register_source(
            TaintSourceKind::kStackPointer, TaintSource::kEntry,
            std::string("stack pointer in %") +
                std::string(isa::register_name(reg)) + " at entry of '" +
                function_.name + "'");
        state.regs[reg].chain = {std::string("%") +
                                 std::string(isa::register_name(reg)) +
                                 " live-in at entry"};
      }
    }
    return state;
  }

  void build_blocks() {
    const std::size_t count = function_.code.size();
    if (count == 0) {
      return;
    }
    std::set<std::size_t> leaders{0};
    for (const auto& [name, index] : function_.labels) {
      (void)name;
      if (index < count) {
        leaders.insert(index);
      }
    }
    for (const auto& [index, fixup] : fixups_) {
      if (fixup->kind == FixupKind::kBranch && index + 1 < count) {
        leaders.insert(index + 1);
      }
    }
    for (auto it = leaders.begin(); it != leaders.end(); ++it) {
      const std::size_t begin = *it;
      const auto next = std::next(it);
      const std::size_t end = next == leaders.end() ? count : *next;
      Block block{begin, end, {}};
      // Successors from the block's terminator (the first control
      // transfer; anything after it in the block is unreachable and
      // transfer_block stops there too).
      for (std::size_t i = begin; i < end; ++i) {
        const Opcode op = function_.code[i].op;
        if (op == Opcode::kHalt || op == Opcode::kJmpl) {
          break; // no static successors
        }
        if (isa::is_branch(op)) {
          if (const isa::Fixup* fixup = fixup_at(i, FixupKind::kBranch)) {
            const auto target = function_.labels.find(fixup->symbol);
            if (target != function_.labels.end()) {
              block.successors.push_back(target->second);
            }
          }
          if (op != Opcode::kBa && i + 1 < count) {
            block.successors.push_back(i + 1); // conditional fallthrough
          }
          break;
        }
        if (i + 1 == end && end < count) {
          block.successors.push_back(end); // plain fallthrough
        }
      }
      blocks_.emplace(begin, std::move(block));
    }
  }

  const isa::Fixup* fixup_at(std::size_t index, FixupKind kind) const {
    const auto [first, last] = fixups_.equal_range(index);
    for (auto it = first; it != last; ++it) {
      if (it->second->kind == kind) {
        return it->second;
      }
    }
    return nullptr;
  }

  int register_source(TaintSourceKind kind, std::size_t index,
                      std::string description) {
    // Keyed on the description: entry seeds share `kEntry` as their index
    // (%sp and %fp are distinct sources at the same pseudo-index).
    const std::string& key = description;
    const auto it = source_ids_.find(key);
    if (it != source_ids_.end()) {
      return it->second;
    }
    const int id = static_cast<int>(sources_.size());
    sources_.push_back(
        TaintSource{kind, function_.name, index, std::move(description)});
    source_ids_.emplace(key, id);
    return id;
  }

  void append_chain(Value& value, std::size_t index) {
    if (!value.tainted() || value.chain.size() >= kChainCap) {
      return;
    }
    std::string step = function_.name + "+" + std::to_string(index) + ": " +
                       isa::disassemble(function_.code[index]);
    if (value.chain.empty() || value.chain.back() != step) {
      value.chain.push_back(std::move(step));
    }
  }

  void define(State& state, std::uint8_t rd, Value value) {
    if (rd == kG0) {
      return; // %g0 is hardwired zero
    }
    state.regs[rd] = std::move(value);
  }

  void transfer_block(const Block& block, State& state, bool record) {
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const Opcode op = function_.code[i].op;
      transfer(state, i, record);
      if (op == Opcode::kHalt || op == Opcode::kJmpl || isa::is_branch(op)) {
        break; // anything after a terminator in this block is dead code
      }
    }
  }

  void load_word(State& state, std::size_t i, std::uint8_t rd,
                 const Value& base, std::int32_t offset) {
    Value loaded;
    if (base.pt.complete) {
      if (options_.dsr_table_loads &&
          (base.pt.symbol == dsr::kFunctabSymbol ||
           base.pt.symbol == dsr::kStackoffSymbol)) {
        loaded.source = register_source(
            TaintSourceKind::kDsrTableLoad, i,
            "load from DSR table '" + base.pt.symbol + "' at " +
                function_.name + "+" + std::to_string(i));
        loaded.chain = {function_.name + "+" + std::to_string(i) + ": " +
                        isa::disassemble(function_.code[i])};
      }
      // Other symbol-addressed memory models as clean: data objects hold
      // payload, not layout, unless proven otherwise by the dynamic mode.
    } else {
      const std::uint8_t rs1 = function_.code[i].rs1;
      const auto it = state.slots.find({rs1, offset});
      if (it != state.slots.end()) {
        loaded = it->second;
        append_chain(loaded, i);
      }
    }
    define(state, rd, std::move(loaded));
  }

  void store_word(State& state, std::size_t i, Value value,
                  const Value& base, std::int32_t offset, bool record) {
    if (base.pt.complete) {
      if (record && value.tainted() &&
          observables_.contains(base.pt.symbol)) {
        LeakFinding finding;
        finding.function = function_.name;
        finding.instruction_index = i;
        finding.sink_symbol = base.pt.symbol;
        finding.sink_offset = base.pt.addend + offset;
        finding.source = sources_[static_cast<std::size_t>(value.source)];
        finding.chain = value.chain;
        finding.chain.push_back(function_.name + "+" + std::to_string(i) +
                                ": " + isa::disassemble(function_.code[i]) +
                                "  <- SINK " + base.pt.symbol + "+" +
                                std::to_string(finding.sink_offset));
        findings_.push_back(std::move(finding));
      }
      return;
    }
    const std::uint8_t rs1 = function_.code[i].rs1;
    append_chain(value, i);
    state.slots[{rs1, offset}] = std::move(value);
  }

  void window_shift(State& state, std::size_t i, bool save) {
    const Instruction& instr = function_.code[i];
    // Result computed with the OLD window's operands, written to rd in the
    // shifted window's coordinates (mirrors the VM cores' SAVE/RESTORE).
    Value result = state.regs[instr.rs1];
    if (isa::opcode_info(instr.op).format == Format::kR) {
      bool ignored = false;
      join_value(result, state.regs[instr.rs2], ignored);
      result.pt = SymRef{};
    } else if (result.pt.known()) {
      result.pt.addend += instr.imm;
    }
    append_chain(result, i);
    State next;
    next.reachable = true;
    next.fregs = state.fregs; // FP registers are not windowed
    for (std::size_t g = 0; g < 8; ++g) {
      next.regs[g] = state.regs[g];
    }
    if (save) {
      for (std::size_t r = 0; r < 8; ++r) {
        next.regs[24 + r] = state.regs[8 + r]; // ins <- caller's outs
      }
    } else {
      for (std::size_t r = 0; r < 8; ++r) {
        next.regs[8 + r] = state.regs[24 + r]; // outs <- callee's ins
      }
    }
    // Locals (and the unmapped half) come from an older window the
    // analysis has no facts about: clean.  Stack slots are keyed against
    // the pre-shift registers — drop them.
    state = std::move(next);
    define(state, instr.rd, std::move(result));
  }

  void transfer(State& state, std::size_t i, bool record) {
    const Instruction& instr = function_.code[i];
    const auto freg = [&](std::uint8_t index) -> int& {
      return state.fregs[index % state.fregs.size()];
    };
    switch (instr.op) {
    // --- integer ALU -----------------------------------------------------
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
    case Opcode::kOrcc: {
      // `mov` is or rd, rs, %g0 — preserve the full value (incl. points-to)
      // through register copies.
      if ((instr.op == Opcode::kOr || instr.op == Opcode::kAdd) &&
          (instr.rs1 == kG0 || instr.rs2 == kG0)) {
        Value copy =
            state.regs[instr.rs1 == kG0 ? instr.rs2 : instr.rs1];
        append_chain(copy, i);
        define(state, instr.rd, std::move(copy));
        break;
      }
      Value result = state.regs[instr.rs1];
      bool ignored = false;
      join_value(result, state.regs[instr.rs2], ignored);
      result.pt = SymRef{};
      append_chain(result, i);
      define(state, instr.rd, std::move(result));
      break;
    }
    case Opcode::kAddi:
    case Opcode::kSubi: {
      Value result = state.regs[instr.rs1];
      if (result.pt.known()) {
        result.pt.addend +=
            instr.op == Opcode::kAddi ? instr.imm : -instr.imm;
      }
      append_chain(result, i);
      define(state, instr.rd, std::move(result));
      break;
    }
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kMuli:
    case Opcode::kDivi:
    case Opcode::kAddcci:
    case Opcode::kSubcci: {
      Value result = state.regs[instr.rs1];
      result.pt = SymRef{};
      append_chain(result, i);
      define(state, instr.rd, std::move(result));
      break;
    }
    case Opcode::kSethi: {
      Value result;
      if (const isa::Fixup* fixup = fixup_at(i, FixupKind::kHi19)) {
        result.pt = SymRef{fixup->symbol, fixup->addend, false};
        if (options_.code_symbol_addresses &&
            code_symbols_.contains(fixup->symbol)) {
          result.source = register_source(
              TaintSourceKind::kCodeAddress, i,
              "address of code symbol '" + fixup->symbol + "' (sethi at " +
                  function_.name + "+" + std::to_string(i) + ")");
          result.chain = {function_.name + "+" + std::to_string(i) + ": " +
                          isa::disassemble(instr)};
        }
      }
      define(state, instr.rd, std::move(result));
      break;
    }
    case Opcode::kOrlo: {
      Value result = state.regs[instr.rs1];
      if (const isa::Fixup* fixup = fixup_at(i, FixupKind::kLo13)) {
        const bool matches_hi = result.pt.known() &&
                                result.pt.symbol == fixup->symbol &&
                                result.pt.addend == fixup->addend;
        result.pt = SymRef{fixup->symbol, fixup->addend, matches_hi};
        if (options_.code_symbol_addresses &&
            code_symbols_.contains(fixup->symbol)) {
          result.source = register_source(
              TaintSourceKind::kCodeAddress, i,
              "address of code symbol '" + fixup->symbol + "' (orlo at " +
                  function_.name + "+" + std::to_string(i) + ")");
        }
      }
      append_chain(result, i);
      define(state, instr.rd, std::move(result));
      break;
    }
    // --- memory ----------------------------------------------------------
    case Opcode::kLd:
    case Opcode::kLdx:
    case Opcode::kLdb:
    case Opcode::kLdbx:
      load_word(state, i, instr.rd, state.regs[instr.rs1], instr.imm);
      break;
    case Opcode::kLdd:
    case Opcode::kLddx:
      load_word(state, i, instr.rd, state.regs[instr.rs1], instr.imm);
      load_word(state, i, static_cast<std::uint8_t>(instr.rd + 1),
                state.regs[instr.rs1], instr.imm + 4);
      break;
    case Opcode::kSt:
    case Opcode::kStx:
    case Opcode::kStb:
    case Opcode::kStbx:
      store_word(state, i, state.regs[instr.rd], state.regs[instr.rs1],
                 instr.imm, record);
      break;
    case Opcode::kStd:
    case Opcode::kStdx:
      store_word(state, i, state.regs[instr.rd], state.regs[instr.rs1],
                 instr.imm, record);
      store_word(state, i, state.regs[(instr.rd + 1) % 32],
                 state.regs[instr.rs1], instr.imm + 4, record);
      break;
    case Opcode::kLdf:
    case Opcode::kLdfx: {
      // FP loads: best-effort via the stack-slot map only.
      int source = -1;
      if (!state.regs[instr.rs1].pt.complete) {
        for (const std::int32_t off : {instr.imm, instr.imm + 4}) {
          const auto it = state.slots.find({instr.rs1, off});
          if (it != state.slots.end() && it->second.tainted() &&
              (source < 0 || it->second.source < source)) {
            source = it->second.source;
          }
        }
      }
      freg(instr.rd) = source;
      break;
    }
    case Opcode::kStf:
    case Opcode::kStfx: {
      Value value;
      value.source = freg(instr.rd);
      if (value.tainted()) {
        value.chain = {function_.name + "+" + std::to_string(i) + ": " +
                       isa::disassemble(instr)};
      }
      store_word(state, i, value, state.regs[instr.rs1], instr.imm, record);
      store_word(state, i, std::move(value), state.regs[instr.rs1],
                 instr.imm + 4, record);
      break;
    }
    // --- control transfer ------------------------------------------------
    case Opcode::kCall: {
      // Caller-saved state dies across the call; %o7 receives the return
      // address (a code address of the current layout).
      for (std::uint8_t reg = 1; reg <= 13; ++reg) {
        state.regs[reg] = Value{};
      }
      state.slots.clear();
      Value o7;
      if (options_.call_return_addresses) {
        const isa::Fixup* fixup = fixup_at(i, FixupKind::kCall);
        o7.source = register_source(
            TaintSourceKind::kReturnAddress, i,
            "return address written by call" +
                (fixup != nullptr ? " '" + fixup->symbol + "'" : "") +
                " at " + function_.name + "+" + std::to_string(i));
        o7.chain = {function_.name + "+" + std::to_string(i) + ": " +
                    isa::disassemble(instr)};
      }
      state.regs[kO7] = std::move(o7);
      break;
    }
    case Opcode::kJmpl: {
      if (instr.rd != kG0 && options_.call_return_addresses) {
        Value link;
        link.source = register_source(
            TaintSourceKind::kReturnAddress, i,
            "return address written by jmpl at " + function_.name + "+" +
                std::to_string(i));
        link.chain = {function_.name + "+" + std::to_string(i) + ": " +
                      isa::disassemble(instr)};
        define(state, instr.rd, std::move(link));
      }
      break; // block terminator: transfer_block stops after this
    }
    case Opcode::kSave:
    case Opcode::kSavex:
      window_shift(state, i, /*save=*/true);
      break;
    case Opcode::kRestore:
      window_shift(state, i, /*save=*/false);
      break;
    // --- floating point --------------------------------------------------
    case Opcode::kFaddd:
    case Opcode::kFsubd:
    case Opcode::kFmuld:
    case Opcode::kFdivd: {
      const int a = freg(instr.rs1);
      const int b = freg(instr.rs2);
      freg(instr.rd) = a >= 0 && (b < 0 || a < b) ? a : b;
      break;
    }
    case Opcode::kFsqrtd:
    case Opcode::kFmovd:
    case Opcode::kFnegd:
    case Opcode::kFabsd:
      freg(instr.rd) = freg(instr.rs1);
      break;
    case Opcode::kFitod:
      freg(instr.rd) = state.regs[instr.rs1].source;
      break;
    case Opcode::kFdtoi: {
      Value result;
      result.source = freg(instr.rs1);
      define(state, instr.rd, std::move(result));
      break;
    }
    case Opcode::kRdtick:
      define(state, instr.rd, Value{});
      break;
    default:
      // Branches, kNop, kFcmpd, kIpoint, kFlush, kHalt, kTrapReloc: no
      // register effects the lattice tracks.
      break;
    }
  }

  const Function& function_;
  const std::set<std::string>& code_symbols_;
  const std::set<std::string>& observables_;
  const TaintOptions& options_;
  std::vector<TaintSource>& sources_;
  std::vector<LeakFinding>& findings_;
  std::multimap<std::size_t, const isa::Fixup*> fixups_;
  std::map<std::size_t, Block> blocks_; // keyed by leader index
  std::map<std::string, int> source_ids_; // description -> sources_ index
};

} // namespace

const char* taint_source_kind_name(TaintSourceKind kind) noexcept {
  switch (kind) {
  case TaintSourceKind::kReturnAddress:
    return "return-address";
  case TaintSourceKind::kCodeAddress:
    return "code-address";
  case TaintSourceKind::kDsrTableLoad:
    return "dsr-table-load";
  case TaintSourceKind::kStackPointer:
    break;
  }
  return "stack-pointer";
}

std::string describe(const LeakFinding& finding) {
  std::ostringstream oss;
  oss << finding.function << "+" << finding.instruction_index << ": "
      << finding.sink_symbol << "+" << finding.sink_offset << " <- "
      << finding.source.description << " ["
      << taint_source_kind_name(finding.source.kind) << "]";
  return oss.str();
}

TaintReport analyse_address_leaks(
    const isa::Program& program,
    const std::vector<std::string>& observable_symbols,
    const TaintOptions& options) {
  TaintReport report;
  std::set<std::string> code_symbols;
  for (const isa::Function& function : program.functions) {
    code_symbols.insert(function.name);
  }
  const std::set<std::string> observables(observable_symbols.begin(),
                                          observable_symbols.end());
  std::vector<TaintSource> sources;
  for (const isa::Function& function : program.functions) {
    if (function.code.empty()) {
      continue;
    }
    FunctionAnalysis analysis(function, code_symbols, observables, options,
                              sources, report.findings);
    analysis.run();
    ++report.functions_analysed;
    report.instructions_analysed += function.code.size();
  }
  return report;
}

} // namespace proxima::analysis
