// Shared architectural state and microcoded helpers of the mini-SPARC core:
// register windows, spill/fill traps, the FP jitter model, and the run()
// dispatcher that selects between the two execution engines.  The engines
// themselves live in reference_vm.cpp (switch interpreter) and fast_vm.cpp
// (predecoded computed-goto core).
#include "vm.hpp"

#include "decode.hpp"
#include "taint.hpp"

#include <cmath>
#include <sstream>

namespace proxima::vm {

using isa::Opcode;

Vm::Vm(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
       VmConfig config)
    : memory_(memory), hierarchy_(hierarchy), config_(config) {
  if (config_.nwindows < 3) {
    throw VmError("at least 3 register windows are required");
  }
  regs_.assign(kGlobalSlots + static_cast<std::size_t>(config_.nwindows) * 16,
               0);
  build_window_map(window_map_, cwp_, config_.nwindows);
  if (config_.core != VmCore::kReference) {
    decode_ = std::make_unique<DecodeCache>(memory_);
  }
  if (config_.taint) {
    taint_ = std::make_unique<TaintState>(config_.nwindows, window_map_);
  }
}

Vm::~Vm() = default;

void Vm::predecode(std::uint32_t addr, std::uint32_t length) {
  if (decode_) {
    decode_->predecode_range(addr, length);
  }
}

void Vm::reset(std::uint32_t entry_pc, std::uint32_t stack_top) {
  if (entry_pc % 4 != 0) {
    throw VmError("entry pc must be word-aligned");
  }
  if (stack_top % 8 != 0) {
    throw VmError("stack top must be doubleword-aligned");
  }
  std::fill(regs_.begin(), regs_.end(), 0);
  fregs_.fill(0.0);
  cwp_ = 0;
  build_window_map(window_map_, cwp_, config_.nwindows);
  resident_ = 1;
  icc_ = ConditionCodes{};
  fcc_ = FpCondition::kEqual;
  pc_ = entry_pc;
  cycles_ = 0;
  instructions_ = 0;
  halted_ = false;
  if (taint_) {
    taint_->clear_registers(); // shadows match the zeroed register file
  }
  set_reg(isa::kSp, stack_top);
}

std::uint32_t& Vm::visible(std::uint8_t index) {
  // The reference core's own window arithmetic, deliberately independent of
  // window_map_: the differential suite checks the fast core's map against
  // it.
  const std::uint32_t n = config_.nwindows;
  std::uint32_t* const windowed = regs_.data() + kGlobalSlots;
  if (index < 8) {
    return regs_[index];
  }
  if (index < 16) { // outs of cwp
    return windowed[(cwp_ * 16 + (index - 8u)) % (n * 16)];
  }
  if (index < 24) { // locals of cwp
    return windowed[(cwp_ * 16 + 8u + (index - 16u)) % (n * 16)];
  }
  // ins of cwp == outs of cwp+1
  return windowed[(((cwp_ + 1) % n) * 16 + (index - 24u)) % (n * 16)];
}

std::uint32_t Vm::visible_value(std::uint8_t index) const {
  if (index == isa::kG0) {
    return 0;
  }
  return const_cast<Vm*>(this)->visible(index);
}

std::uint32_t Vm::reg(std::uint8_t index) const {
  if (index >= isa::kRegisterCount) {
    fault("integer register index out of range");
  }
  return visible_value(index);
}

void Vm::set_reg(std::uint8_t index, std::uint32_t value) {
  if (index >= isa::kRegisterCount) {
    fault("integer register index out of range");
  }
  if (index == isa::kG0) {
    return; // %g0 is hardwired to zero
  }
  visible(index) = value;
}

void Vm::fault(const std::string& what) const {
  std::ostringstream oss;
  oss << "vm fault at pc=0x" << std::hex << pc_ << ": " << what;
  throw VmError(oss.str());
}

RunResult Vm::run(std::uint64_t cycle_budget) {
  return config_.core == VmCore::kReference ? run_reference(cycle_budget)
                                            : run_fast(cycle_budget);
}

void Vm::take_branch(std::int32_t disp_words) {
  pc_ = static_cast<std::uint32_t>(static_cast<std::int64_t>(pc_) +
                                   std::int64_t{4} * disp_words);
  cycles_ += config_.branch_taken_penalty;
}

std::uint32_t Vm::fp_extra_cycles(Opcode op, double a, double b) const {
  // Deterministic value-dependent jitter, bounded by fp_jitter_max,
  // modelling the GRFPU's data-dependent early-outs and normalisation:
  //  * a zero operand takes an early-out (+1)
  //  * denormal operands need extra normalisation passes (+3)
  //  * add/sub with a large exponent gap needs a long alignment shift (+2)
  const auto classify = [](double x) { return std::fpclassify(x); };
  const int ca = classify(a);
  const int cb = classify(b);
  std::uint32_t extra = 0;
  if (ca == FP_SUBNORMAL || cb == FP_SUBNORMAL) {
    extra = 3;
  } else if (op == Opcode::kFaddd || op == Opcode::kFsubd) {
    if (ca == FP_ZERO || cb == FP_ZERO) {
      extra = 1;
    } else {
      int ea = 0;
      int eb = 0;
      (void)std::frexp(a, &ea);
      (void)std::frexp(b, &eb);
      const int gap = ea > eb ? ea - eb : eb - ea;
      if (gap > 26) {
        extra = 2;
      } else if (gap > 13) {
        extra = 1;
      }
    }
  } else if (ca == FP_ZERO || cb == FP_ZERO) {
    extra = 1;
  }
  return extra > config_.fp_jitter_max ? config_.fp_jitter_max : extra;
}

void Vm::spill_oldest_window() {
  // The oldest resident frame occupies window (cwp + resident - 1) mod N.
  const std::uint32_t n = config_.nwindows;
  const std::uint32_t w = (cwp_ + resident_ - 1) % n;
  // Save area: that window's %sp (its out6), which the SPARC ABI guarantees
  // points at 64 bytes of spill space.  With DSR, this address carries the
  // random stack offset — spill traffic is randomised too.
  const std::uint32_t sp = regs_[window_slot(isa::kSp, w, n)];
  if (sp % 8 != 0) {
    fault("window spill with misaligned %sp");
  }
  cycles_ += config_.trap_cycles;
  ++hierarchy_.counters().window_overflows;
  // Store %l0-%l7 then %i0-%i7 as eight doubleword stores (as real spill
  // handlers do with std), through the data cache path.
  for (std::uint32_t pair = 0; pair < 8; ++pair) {
    const std::uint32_t reg = isa::kL0 + pair * 2;
    const std::uint32_t addr = sp + pair * 8;
    memory_.write_u32(addr, regs_[window_slot(reg, w, n)]);
    memory_.write_u32(addr + 4, regs_[window_slot(reg + 1, w, n)]);
    cycles_ += 1 + hierarchy_.store(addr, cycles_, 8);
  }
  --resident_;
}

void Vm::fill_window(std::uint32_t w) {
  const std::uint32_t n = config_.nwindows;
  // The window being re-entered was spilled at its own %sp, which is the
  // current frame's %fp (= caller's %sp): ins of cwp are resident.
  const std::uint32_t sp = visible_value(isa::kFp);
  if (sp % 8 != 0) {
    fault("window fill with misaligned %sp");
  }
  cycles_ += config_.trap_cycles;
  ++hierarchy_.counters().window_underflows;
  for (std::uint32_t pair = 0; pair < 8; ++pair) {
    const std::uint32_t reg = isa::kL0 + pair * 2;
    const std::uint32_t addr = sp + pair * 8;
    regs_[window_slot(reg, w, n)] = memory_.read_u32(addr);
    regs_[window_slot(reg + 1, w, n)] = memory_.read_u32(addr + 4);
    cycles_ += 1 + config_.load_use_cycles + hierarchy_.load(addr);
  }
  ++resident_;
}

void Vm::save_window() {
  const std::uint32_t n = config_.nwindows;
  if (resident_ == n - 1) {
    spill_oldest_window(); // window overflow trap
  }
  cwp_ = save_target(cwp_, n);
  ++resident_;
  build_window_map(window_map_, cwp_, n);
}

void Vm::restore_window() {
  const std::uint32_t n = config_.nwindows;
  const std::uint32_t target = restore_target(cwp_, n);
  if (resident_ == 1) {
    fill_window(target); // window underflow trap
  }
  cwp_ = target;
  --resident_;
  build_window_map(window_map_, cwp_, n);
}

} // namespace proxima::vm
