// Unit tests for the 64-entry TLB model (Section III.A / III.B.5).
#include "mem/tlb.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using proxima::mem::Tlb;
using proxima::mem::TlbConfig;

TEST(Tlb, MissThenHitSamePage) {
  Tlb tlb;
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1ffc)); // same 4K page
  EXPECT_TRUE(tlb.contains(0x1000));
}

TEST(Tlb, DistinctPagesMissIndependently) {
  Tlb tlb;
  EXPECT_FALSE(tlb.access(0x0000));
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_FALSE(tlb.access(0x2000));
  EXPECT_TRUE(tlb.access(0x0000));
}

TEST(Tlb, CapacityIs64Pages) {
  Tlb tlb(TlbConfig{.entries = 64, .page_bytes = 4096});
  for (std::uint32_t p = 0; p < 64; ++p) {
    tlb.access(p * 4096);
  }
  // All 64 resident.
  for (std::uint32_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(tlb.contains(p * 4096)) << p;
  }
  // 65th page evicts the LRU (page 0).
  tlb.access(64 * 4096);
  EXPECT_FALSE(tlb.contains(0));
  EXPECT_TRUE(tlb.contains(64 * 4096));
}

TEST(Tlb, LruKeepsRecentlyTouched) {
  Tlb tlb(TlbConfig{.entries = 4, .page_bytes = 4096});
  tlb.access(0x0000);
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.access(0x3000);
  tlb.access(0x0000); // refresh page 0; LRU is now page 1
  tlb.access(0x4000); // evicts page 1
  EXPECT_TRUE(tlb.contains(0x0000));
  EXPECT_FALSE(tlb.contains(0x1000));
}

TEST(Tlb, FlushEmptiesEverything) {
  Tlb tlb(TlbConfig{.entries = 8, .page_bytes = 4096});
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.flush();
  EXPECT_FALSE(tlb.contains(0x1000));
  EXPECT_FALSE(tlb.contains(0x2000));
  EXPECT_FALSE(tlb.access(0x1000)); // miss again after flush
}

TEST(Tlb, RejectsZeroEntries) {
  EXPECT_THROW(Tlb(TlbConfig{.entries = 0, .page_bytes = 4096}),
               std::invalid_argument);
}

TEST(Tlb, RejectsPageSizeZero) {
  EXPECT_THROW(Tlb(TlbConfig{.entries = 64, .page_bytes = 0}),
               std::invalid_argument);
}

TEST(Tlb, RejectsPageSizeNotAPowerOfTwo) {
  EXPECT_THROW(Tlb(TlbConfig{.entries = 64, .page_bytes = 3000}),
               std::invalid_argument);
}

TEST(Tlb, PageGranularity) {
  Tlb tlb(TlbConfig{.entries = 8, .page_bytes = 8192});
  tlb.access(0x0000);
  EXPECT_TRUE(tlb.access(0x1fff)); // same 8K page
  EXPECT_FALSE(tlb.access(0x2000)); // next page
}

} // namespace
