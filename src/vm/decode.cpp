#include "decode.hpp"

#include <algorithm>

namespace proxima::vm {

DecodeCache::DecodeCache(mem::GuestMemory& memory) : memory_(memory) {
  memory_.bind_decode_cache(this);
}

DecodeCache::~DecodeCache() {
  invalidate_all(); // unhooks every page from the memory
  memory_.bind_decode_cache(nullptr);
}

DecodedPage& DecodeCache::page_slow(std::uint32_t index) {
  if (DecodedPage* page = memory_.decoded(index)) {
    return *page;
  }
  if (mapped_.size() >= kMaxPages) {
    // Footprint cap: drop everything rather than track per-page LRU —
    // re-decoding is cheap and this fires only after DSR relocation has
    // visited a hundred distinct pool pages.
    invalidate_all();
  }
  if (free_.empty()) {
    mapped_.push_back(std::make_unique<DecodedPage>());
  } else {
    mapped_.push_back(std::move(free_.back()));
    free_.pop_back();
  }
  DecodedPage& page = *mapped_.back();
  // A recycled page needs a reset only over the slots its previous tenant
  // decoded (none for a new page).
  for (std::uint32_t slot = page.first; slot < page.last; ++slot) {
    page.ops[slot] = DecodedOp{kUndecodedOp, 0, 0, 0, 0};
  }
  page.first = kOpsPerPage;
  page.last = 0;
  page.number = index;
  memory_.decoded_slot(index) = &page;
  return page;
}

void DecodeCache::decode_slot(DecodedPage& page, std::uint32_t slot,
                              std::uint32_t pc) {
  ++stats_.decodes;
  page.first = std::min(page.first, slot);
  page.last = std::max(page.last, slot + 1);
  DecodedOp& op = page.ops[slot];
  const std::uint32_t word = memory_.read_u32(pc);
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

void DecodeCache::predecode_range(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first = addr & ~3u;
  const std::uint32_t last = (addr + length - 1) & ~3u;
  for (std::uint32_t pc = first;; pc += 4) {
    decode_slot(page_slow(pc >> kPageShift),
                (pc & ((1u << kPageShift) - 1)) >> 2, pc);
    if (pc == last) {
      break;
    }
  }
}

void DecodeCache::invalidate_all() {
  ++stats_.full_invalidations;
  for (std::unique_ptr<DecodedPage>& page : mapped_) {
    if (memory_.decoded(page->number) != nullptr) { // absent after a clear
      memory_.decoded_slot(page->number) = nullptr;
    }
    free_.push_back(std::move(page));
  }
  mapped_.clear();
  mru_ = nullptr;
  mru_index_ = 0xffff'ffff;
}

void DecodeCache::memory_written(std::uint32_t addr, std::uint32_t length) {
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
    if (DecodedPage* page = memory_.decoded(index)) {
      const std::uint32_t begin =
          index == first_page ? first_word & (kOpsPerPage - 1) : 0;
      const std::uint32_t end =
          index == last_page ? (last_word & (kOpsPerPage - 1)) + 1
                             : kOpsPerPage;
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        if (page->ops[slot].handler != kUndecodedOp) {
          ++stats_.invalidated_slots;
        }
        page->ops[slot].handler = kUndecodedOp;
      }
    }
    if (index == last_page) {
      break;
    }
  }
}

} // namespace proxima::vm
