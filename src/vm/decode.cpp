#include "decode.hpp"

namespace proxima::vm {

DecodeCache::Page& DecodeCache::page_slow(std::uint32_t index) {
  auto it = pages_.find(index);
  if (it == pages_.end()) {
    if (pages_.size() >= kMaxPages) {
      // Footprint cap: drop everything rather than track per-page LRU —
      // re-decoding is cheap and this fires only after DSR relocation has
      // visited thousands of distinct pool pages.
      invalidate_all();
    }
    it = pages_.emplace(index, std::make_unique<Page>()).first;
  }
  return *it->second;
}

void DecodeCache::decode_into(DecodedOp& op, std::uint32_t pc,
                              const mem::GuestMemory& memory) {
  const std::uint32_t word = memory.read_u32(pc);
  try {
    const isa::Instruction instr = isa::decode(word);
    op.handler = static_cast<std::uint8_t>(instr.op);
    op.rd = instr.rd;
    op.rs1 = instr.rs1;
    op.rs2 = instr.rs2;
    op.imm = instr.imm;
  } catch (const isa::DecodeError&) {
    op = DecodedOp{kInvalidOp, 0, 0, 0, 0};
  }
}

void DecodeCache::predecode_range(const mem::GuestMemory& memory,
                                  std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first = addr & ~3u;
  const std::uint32_t last = (addr + length - 1) & ~3u;
  for (std::uint32_t pc = first;; pc += 4) {
    Page& page = page_slow(pc >> kPageShift);
    DecodedOp& op = page.ops[(pc & ((1u << kPageShift) - 1)) >> 2];
    ++stats_.decodes;
    decode_into(op, pc, memory);
    if (pc == last) {
      break;
    }
  }
}

void DecodeCache::invalidate_all() {
  ++stats_.full_invalidations;
  pages_.clear();
  mru_ = nullptr;
  mru_index_ = 0xffff'ffff;
}

void DecodeCache::on_memory_written(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  ++stats_.write_invalidation_events;
  invalidate_range(addr, length);
}

void DecodeCache::invalidate_range(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first_word = addr >> 2;
  const std::uint32_t last_word = (addr + length - 1) >> 2;
  const std::uint32_t first_page = first_word >> (kPageShift - 2);
  const std::uint32_t last_page = last_word >> (kPageShift - 2);
  // A range that wraps past 0xFFFFFFFF has last_page < first_page: step
  // the index modulo the page count so the walk wraps with it.
  constexpr std::uint32_t kPageIndexMask = (1u << (32 - kPageShift)) - 1;
  for (std::uint32_t index = first_page;;
       index = (index + 1) & kPageIndexMask) {
    const auto it = pages_.find(index);
    if (it != pages_.end()) {
      Page& page = *it->second;
      const std::uint32_t begin =
          index == first_page ? first_word & (kOpsPerPage - 1) : 0;
      const std::uint32_t end =
          index == last_page ? (last_word & (kOpsPerPage - 1)) + 1
                             : kOpsPerPage;
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        if (page.ops[slot].handler != kUndecodedOp) {
          ++stats_.invalidated_slots;
        }
        page.ops[slot].handler = kUndecodedOp;
      }
    }
    if (index == last_page) {
      break;
    }
  }
}

} // namespace proxima::vm
