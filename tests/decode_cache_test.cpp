// Unit tests for the DecodeCache's two invalidation shapes — the per-slot
// write walk (which must reset exactly the written slots, also for a write
// that wraps past 0xFFFFFFFF) and the kMaxPages wholesale drop (which must
// reset the MRU page memo, never leaving a dangling pointer) — and for the
// free list the drop feeds: a recycled page must read undecoded wherever
// its previous tenant decoded.
#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"
#include "vm/decode.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace proxima;
using vm::DecodeCache;

constexpr std::uint8_t kAddHandler =
    static_cast<std::uint8_t>(isa::Opcode::kAdd);

std::uint32_t add_word() {
  return isa::encode(isa::make_r(isa::Opcode::kAdd, 9, 9, 10));
}

std::uint32_t halt_word() {
  return isa::encode(isa::make_r(isa::Opcode::kHalt, 0, 0, 0));
}

std::uint32_t page_pc(std::size_t page) {
  return static_cast<std::uint32_t>(page << DecodeCache::kPageShift);
}

/// What a cache that never saw `memory` before decodes at `pc`: a fresh
/// cache over a memory holding only that word.
std::uint8_t fresh_handler(const mem::GuestMemory& memory, std::uint32_t pc) {
  mem::GuestMemory copy;
  copy.write_u32(pc, memory.read_u32(pc));
  DecodeCache fresh(copy);
  return fresh.at(pc).handler;
}

// Exceeding kMaxPages drops the whole cache: full_invalidations increments
// once, the page map restarts from the page that tripped the cap, and the
// one-entry MRU memo is reset — a lookup of a pre-drop page must
// re-materialise and re-decode it (to the same DecodedOp), not read a
// recycled page's stale slots.
TEST(DecodeCache, PageCapWholesaleDropResetsMemoAndRedecodes) {
  mem::GuestMemory memory;
  for (std::size_t page = 0; page <= DecodeCache::kMaxPages; ++page) {
    memory.write_u32(page_pc(page), add_word());
  }
  DecodeCache cache(memory);

  for (std::size_t page = 0; page < DecodeCache::kMaxPages; ++page) {
    ASSERT_EQ(cache.at(page_pc(page)).handler, kAddHandler);
  }
  // Copy (not reference) the last pre-drop slot: the drop recycles its
  // page.
  const vm::DecodedOp before = cache.at(page_pc(DecodeCache::kMaxPages - 1));
  EXPECT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
  EXPECT_EQ(cache.stats().full_invalidations, 0u);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages);

  // One page past the cap: wholesale drop, then the new page comes in.
  const std::uint32_t over_pc = page_pc(DecodeCache::kMaxPages);
  EXPECT_EQ(cache.at(over_pc).handler, kAddHandler);
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), 1u);

  // The memo now holds the new page; same-page lookups stay on it.
  EXPECT_EQ(cache.at(over_pc).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages + 1);

  // A dropped page re-decodes to a bit-identical DecodedOp — the drop is
  // invisible to execution semantics.
  const vm::DecodedOp& after = cache.at(page_pc(DecodeCache::kMaxPages - 1));
  EXPECT_EQ(after.handler, before.handler);
  EXPECT_EQ(after.rd, before.rd);
  EXPECT_EQ(after.rs1, before.rs1);
  EXPECT_EQ(after.rs2, before.rs2);
  EXPECT_EQ(after.imm, before.imm);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages + 2);
  EXPECT_EQ(cache.resident_pages(), 2u);
}

// A write resets exactly the decoded slots it covers: they re-decode (to
// the new words) on the next lookup, their neighbours keep their op
// without a re-decode, and invalidated_slots counts only slots that were
// decoded when the write landed.
TEST(DecodeCache, WriteInvalidationResetsExactlyTheCoveredSlots) {
  mem::GuestMemory memory;
  DecodeCache cache(memory);
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    memory.write_u32(slot * 4, add_word());
  }
  memory.write_u32(8 * 4, halt_word());
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4);
  }
  const std::uint64_t events = cache.stats().write_invalidation_events;
  const std::uint64_t decodes = cache.stats().decodes;
  EXPECT_EQ(cache.stats().invalidated_slots, 0u);

  // An unaligned word store straddling slots 3 and 4, as a byte-offset
  // guest store would: both slots are covered.
  memory.write_u32(3 * 4 + 2, 0);
  EXPECT_EQ(cache.stats().write_invalidation_events, events + 1);
  EXPECT_EQ(cache.stats().invalidated_slots, 2u);

  // Neighbours on both sides keep their decoded add: no re-decode.
  EXPECT_EQ(cache.at(2 * 4).handler, kAddHandler);
  EXPECT_EQ(cache.at(5 * 4).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, decodes);

  // The covered slots re-decode the words now in memory.
  for (const std::uint32_t slot : {3u, 4u}) {
    EXPECT_EQ(cache.at(slot * 4).handler, fresh_handler(memory, slot * 4))
        << "slot " << slot;
  }
  EXPECT_EQ(cache.stats().decodes, decodes + 2);

  // A write over slots nobody decoded resets nothing and counts nothing.
  memory.write_u32(100 * 4, add_word());
  EXPECT_EQ(cache.stats().write_invalidation_events, events + 2);
  EXPECT_EQ(cache.stats().invalidated_slots, 2u);
}

// A word written at 0xFFFFFFFE wraps: its low half lands at address 0.
// The invalidation walk wraps with it — from the last page straight to
// page 0, resetting the last slot of the address space and the first.
TEST(DecodeCache, WriteWrappingPastTheTopInvalidatesBothEnds) {
  mem::GuestMemory memory;
  DecodeCache cache(memory);
  memory.write_u32(0xFFFFFFFC, add_word());
  memory.write_u32(0, add_word());
  EXPECT_EQ(cache.at(0xFFFFFFFC).handler, kAddHandler);
  EXPECT_EQ(cache.at(0).handler, kAddHandler);
  const std::uint64_t decodes = cache.stats().decodes;

  memory.write_u32(0xFFFFFFFE, halt_word());
  EXPECT_EQ(cache.stats().invalidated_slots, 2u);
  EXPECT_EQ(cache.resident_pages(), 2u);

  for (const std::uint32_t pc : {0xFFFFFFFCu, 0u}) {
    EXPECT_EQ(cache.at(pc).handler, fresh_handler(memory, pc)) << "pc " << pc;
  }
  EXPECT_EQ(cache.stats().decodes, decodes + 2);
}

// Only a write into a page the cache holds ops for reaches the cache: a
// store into a page with no decoded ops counts no event and resets
// nothing, and the decoded page keeps its ops.
TEST(DecodeCache, StoreIntoAPageWithNoDecodedOpsLeavesTheCacheAlone) {
  mem::GuestMemory memory;
  DecodeCache cache(memory);
  memory.write_u32(0, add_word());
  EXPECT_EQ(cache.at(0).handler, kAddHandler);
  const DecodeCache::Stats before = cache.stats();

  memory.write_u32(page_pc(5) + 8, halt_word());
  memory.write_u8(page_pc(6), 1);
  memory.fill(page_pc(7), 64, 0xff);
  EXPECT_EQ(cache.stats().write_invalidation_events,
            before.write_invalidation_events);
  EXPECT_EQ(cache.stats().invalidated_slots, before.invalidated_slots);
  EXPECT_EQ(cache.at(0).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, before.decodes);
  EXPECT_EQ(cache.resident_pages(), 1u);
}

// A page dropped at the cap goes to the free list, and the next page the
// cache maps reuses it.  The previous tenant decoded slots three ways —
// through at(), through predecode_range, and a run partly reset again by
// invalidate_range — and every one of them must read kUndecodedOp in the
// new tenant: each slot decodes exactly once, to the new page's word.
TEST(DecodeCache, RecycledPageReadsUndecodedWhereItsTenantDecoded) {
  mem::GuestMemory memory;
  DecodeCache cache(memory);
  // Filler pages 1 .. kMaxPages-1, one decoded slot each, then the tenant
  // page 0 with the three kinds of decoded slot.
  for (std::size_t page = 1; page < DecodeCache::kMaxPages; ++page) {
    memory.write_u32(page_pc(page) + 4, add_word());
    ASSERT_EQ(cache.at(page_pc(page) + 4).handler, kAddHandler);
  }
  for (std::uint32_t slot = 0; slot < DecodeCache::kOpsPerPage; ++slot) {
    memory.write_u32(slot * 4, add_word());
  }
  for (const std::uint32_t slot : {3u, 17u, 1023u}) {
    ASSERT_EQ(cache.at(slot * 4).handler, kAddHandler);
  }
  cache.predecode_range(100 * 4, 40 * 4);
  cache.predecode_range(600 * 4, 20 * 4);
  cache.invalidate_range(605 * 4, 5 * 4); // slots 605-609 of 600-619
  ASSERT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
  ASSERT_EQ(cache.stats().full_invalidations, 0u);

  // A second set of kMaxPages pages, every word a halt: mapping them
  // drops the cache once and then recycles every dropped page, tenant
  // included.
  const std::uint32_t base = DecodeCache::kMaxPages;
  const std::vector<std::uint8_t> halts = [] {
    std::vector<std::uint8_t> bytes(mem::GuestMemory::kPageBytes);
    for (std::size_t i = 0; i < bytes.size(); i += 4) {
      const std::uint32_t word = halt_word();
      for (std::size_t b = 0; b < 4; ++b) {
        bytes[i + b] = static_cast<std::uint8_t>(word >> (24 - 8 * b));
      }
    }
    return bytes;
  }();
  for (std::uint32_t page = 0; page < DecodeCache::kMaxPages; ++page) {
    memory.load(page_pc(base + page), halts);
  }
  const std::uint8_t halt_handler =
      static_cast<std::uint8_t>(isa::Opcode::kHalt);
  for (std::uint32_t page = 0; page < DecodeCache::kMaxPages; ++page) {
    for (std::uint32_t slot = 0; slot < DecodeCache::kOpsPerPage; ++slot) {
      const std::uint32_t pc = page_pc(base + page) + slot * 4;
      const std::uint64_t decodes = cache.stats().decodes;
      ASSERT_EQ(cache.at(pc).handler, halt_handler)
          << "page " << base + page << " slot " << slot;
      ASSERT_EQ(cache.stats().decodes, decodes + 1)
          << "page " << base + page << " slot " << slot;
    }
  }
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
}

} // namespace
