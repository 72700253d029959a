// Unit tests for the DecodeCache's two invalidation shapes — the per-slot
// write-listener walk (which must reset exactly the written slots, also
// for a write that wraps past 0xFFFFFFFF) and the kMaxPages wholesale drop
// (which must reset the MRU page memo, never leaving a dangling pointer).
#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"
#include "vm/decode.hpp"

#include <gtest/gtest.h>

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

// Exceeding kMaxPages drops the whole cache: full_invalidations increments
// once, the page map restarts from the page that tripped the cap, and the
// one-entry MRU memo is reset — a lookup of a pre-drop page must
// re-materialise and re-decode it (to the same DecodedOp), not read freed
// storage.
TEST(DecodeCache, PageCapWholesaleDropResetsMemoAndRedecodes) {
  mem::GuestMemory memory;
  DecodeCache cache;
  for (std::size_t page = 0; page <= DecodeCache::kMaxPages; ++page) {
    memory.write_u32(page_pc(page), add_word());
  }

  for (std::size_t page = 0; page < DecodeCache::kMaxPages; ++page) {
    ASSERT_EQ(cache.at(page_pc(page), memory).handler, kAddHandler);
  }
  // Copy (not reference) the last pre-drop slot: the drop frees its page.
  const vm::DecodedOp before =
      cache.at(page_pc(DecodeCache::kMaxPages - 1), memory);
  EXPECT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
  EXPECT_EQ(cache.stats().full_invalidations, 0u);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages);

  // One page past the cap: wholesale drop, then the new page comes in.
  const std::uint32_t over_pc = page_pc(DecodeCache::kMaxPages);
  EXPECT_EQ(cache.at(over_pc, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), 1u);

  // The memo now holds the new page; same-page lookups stay on it.
  EXPECT_EQ(cache.at(over_pc, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages + 1);

  // A dropped page re-decodes to a bit-identical DecodedOp — the drop is
  // invisible to execution semantics.
  const vm::DecodedOp& after =
      cache.at(page_pc(DecodeCache::kMaxPages - 1), memory);
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
  DecodeCache cache;
  memory.add_write_listener(&cache);
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    memory.write_u32(slot * 4, add_word());
  }
  memory.write_u32(8 * 4, halt_word());
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4, memory);
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
  EXPECT_EQ(cache.at(2 * 4, memory).handler, kAddHandler);
  EXPECT_EQ(cache.at(5 * 4, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, decodes);

  // The covered slots re-decode the words now in memory.
  for (const std::uint32_t slot : {3u, 4u}) {
    DecodeCache fresh;
    EXPECT_EQ(cache.at(slot * 4, memory).handler,
              fresh.at(slot * 4, memory).handler)
        << "slot " << slot;
  }
  EXPECT_EQ(cache.stats().decodes, decodes + 2);

  // A write over slots nobody decoded resets nothing and counts nothing.
  memory.write_u32(100 * 4, add_word());
  EXPECT_EQ(cache.stats().write_invalidation_events, events + 2);
  EXPECT_EQ(cache.stats().invalidated_slots, 2u);
  memory.remove_write_listener(&cache);
}

// A word written at 0xFFFFFFFE wraps: its low half lands at address 0.
// The invalidation walk wraps with it — from the last page straight to
// page 0, resetting the last slot of the address space and the first.
TEST(DecodeCache, WriteWrappingPastTheTopInvalidatesBothEnds) {
  mem::GuestMemory memory;
  DecodeCache cache;
  memory.add_write_listener(&cache);
  memory.write_u32(0xFFFFFFFC, add_word());
  memory.write_u32(0, add_word());
  EXPECT_EQ(cache.at(0xFFFFFFFC, memory).handler, kAddHandler);
  EXPECT_EQ(cache.at(0, memory).handler, kAddHandler);
  const std::uint64_t decodes = cache.stats().decodes;

  memory.write_u32(0xFFFFFFFE, halt_word());
  EXPECT_EQ(cache.stats().invalidated_slots, 2u);
  EXPECT_EQ(cache.resident_pages(), 2u);

  for (const std::uint32_t pc : {0xFFFFFFFCu, 0u}) {
    DecodeCache fresh;
    EXPECT_EQ(cache.at(pc, memory).handler, fresh.at(pc, memory).handler)
        << "pc " << pc;
  }
  EXPECT_EQ(cache.stats().decodes, decodes + 2);
  memory.remove_write_listener(&cache);
}

} // namespace
