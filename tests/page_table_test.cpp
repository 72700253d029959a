// Unit tests for mem::PageTable, the two-level page table behind guest
// memory (which also carries the decode cache's pages) and the taint
// shadow, and for the taint shadow's page reuse across runs.
#include "mem/page_table.hpp"
#include "vm/taint.hpp"
#include "vm/window_map.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace {

using namespace proxima;

TEST(PageTable, SlotsMapPagesAndClearDropsThem) {
  mem::PageTable<int> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(0xFFFFF), nullptr);

  // Page numbers at both ends of the 2^20-page space, and two in one leaf.
  for (const std::uint32_t page : {0u, 1u, 1023u, 1024u, 0xFFFFFu}) {
    table.slot(page) = std::make_unique<int>(static_cast<int>(page));
  }
  for (const std::uint32_t page : {0u, 1u, 1023u, 1024u, 0xFFFFFu}) {
    ASSERT_NE(table.find(page), nullptr) << page;
    EXPECT_EQ(*table.find(page), static_cast<int>(page));
  }
  EXPECT_EQ(table.find(2), nullptr);       // same leaf, never mapped
  EXPECT_EQ(table.find(0x80000), nullptr); // a leaf never allocated
  EXPECT_EQ(mem::page_of(0x12345678), 0x12345u);

  // Taking a page back leaves its slot empty.
  std::unique_ptr<int> taken = std::move(table.slot(1));
  EXPECT_EQ(*taken, 1);
  EXPECT_EQ(table.find(1), nullptr);

  table.clear();
  for (const std::uint32_t page : {0u, 1023u, 1024u, 0xFFFFFu}) {
    EXPECT_EQ(table.find(page), nullptr) << page;
  }
}

// clear_memory() keeps the shadow pages mapped and zeroes them, so the
// next run's tainting stores reuse them.  Nothing tainted before the clear
// may show through a reused page, nor through one that was not reused.
TEST(TaintState, RecycledShadowPageReadsCleanAfterClearMemory) {
  vm::WindowMap map{};
  vm::build_window_map(map, 0, 8);
  vm::TaintState taint(8, map);
  const std::uint32_t reused = 0x4000'0000;
  const std::uint32_t idle = 0x4100'3000;
  for (std::uint32_t word = 0; word < mem::kPageBytes / 4; word += 3) {
    taint.set_mem_word(reused + word * 4, true);
    taint.set_mem_word(idle + word * 4, true);
  }
  ASSERT_TRUE(taint.mem_word(reused));

  taint.clear_memory();
  taint.set_mem_word(reused + 8, true);
  for (std::uint32_t word = 0; word < mem::kPageBytes / 4; ++word) {
    EXPECT_EQ(taint.mem_word(reused + word * 4), word == 2)
        << "reused word " << word;
    EXPECT_FALSE(taint.mem_word(idle + word * 4)) << "idle word " << word;
  }

  // Clearing a word of an absent page maps nothing and reads clean.
  taint.set_mem_word(0x5000'0004, false);
  EXPECT_FALSE(taint.mem_word(0x5000'0004));
}

} // namespace
