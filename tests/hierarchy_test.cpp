// Integration tests for the LEON3 memory hierarchy (Figure 1 of the paper).
#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace {

using proxima::mem::Cache;
using proxima::mem::CoherenceError;
using proxima::mem::HierarchyConfig;
using proxima::mem::LatencyConfig;
using proxima::mem::leon3_hierarchy_config;
using proxima::mem::leon3_hw_randomised_config;
using proxima::mem::MemoryHierarchy;
using proxima::mem::Placement;
using proxima::mem::Replacement;
using proxima::mem::Tlb;

TEST(Leon3Config, MatchesPaperGeometry) {
  const HierarchyConfig config = leon3_hierarchy_config();
  EXPECT_EQ(config.il1.size_bytes, 16u * 1024u);
  EXPECT_EQ(config.il1.ways, 4u);
  EXPECT_EQ(config.dl1.size_bytes, 16u * 1024u);
  EXPECT_EQ(config.dl1.ways, 4u);
  EXPECT_EQ(config.dl1.write_policy,
            proxima::mem::WritePolicy::kWriteThroughNoAllocate);
  EXPECT_EQ(config.l2.size_bytes, 32u * 1024u);
  EXPECT_EQ(config.l2.ways, 1u); // direct-mapped
  EXPECT_EQ(config.l2.write_policy,
            proxima::mem::WritePolicy::kWriteBackAllocate);
  EXPECT_EQ(config.itlb.entries, 64u);
  EXPECT_EQ(config.dtlb.entries, 64u);
}

TEST(Hierarchy, FetchColdCostsDramPlusL2) {
  MemoryHierarchy h(leon3_hierarchy_config());
  const LatencyConfig& lat = h.latency();
  const std::uint32_t cold = h.fetch(0x40000000);
  // ITLB walk + bus + L2 (miss) + DRAM.
  EXPECT_EQ(cold, lat.tlb_walk + lat.bus + lat.l2_hit + lat.dram_read);
  EXPECT_EQ(h.counters().icache_miss, 1u);
  EXPECT_EQ(h.counters().l2_miss, 1u);
  EXPECT_EQ(h.counters().itlb_miss, 1u);

  // Same line: zero additional stall.
  EXPECT_EQ(h.fetch(0x40000004), 0u);
  EXPECT_EQ(h.counters().icache_miss, 1u);
}

TEST(Hierarchy, FetchL2HitAfterIl1Eviction) {
  MemoryHierarchy h(leon3_hierarchy_config());
  const LatencyConfig& lat = h.latency();
  h.fetch(0x40000000);
  // Evict the IL1 line by touching 4 conflicting lines (4-way set).
  // IL1 way stride = 4 KiB; L2 way stride = 32 KiB, so +4K..+16K conflict
  // only in IL1, not in the direct-mapped L2.
  for (std::uint32_t i = 1; i <= 4; ++i) {
    h.fetch(0x40000000 + i * 4096);
  }
  EXPECT_FALSE(h.il1().contains(0x40000000));
  EXPECT_TRUE(h.l2().contains(0x40000000));
  const std::uint32_t refetch = h.fetch(0x40000000);
  EXPECT_EQ(refetch, lat.bus + lat.l2_hit); // L2 hit, no DRAM
}

TEST(Hierarchy, LoadPathCounters) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.load(0x40100000);
  EXPECT_EQ(h.counters().dcache_miss, 1u);
  EXPECT_EQ(h.counters().loads, 1u);
  EXPECT_EQ(h.counters().dtlb_miss, 1u);
  h.load(0x40100004);
  EXPECT_EQ(h.counters().dcache_miss, 1u); // same line
  EXPECT_EQ(h.counters().loads, 2u);
}

TEST(Hierarchy, StoreIsAbsorbedByWriteBuffer) {
  MemoryHierarchy h(leon3_hierarchy_config());
  // Prime the TLB so the store cost is pure write-buffer behaviour.
  h.load(0x40100000);
  const std::uint32_t first = h.store(0x40100000, /*cycle=*/1000);
  EXPECT_EQ(first, 0u); // buffer empty: fully absorbed
  // Immediately-following store finds the buffer draining.
  const std::uint32_t second = h.store(0x40100020, /*cycle=*/1001);
  EXPECT_GT(second, 0u);
  // A store far in the future is absorbed again.
  const std::uint32_t third = h.store(0x40100040, /*cycle=*/10000);
  EXPECT_EQ(third, 0u);
}

TEST(Hierarchy, StoreWritesThroughToL2) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.load(0x40100000); // fill DL1 + L2
  h.store(0x40100000, 0);
  // L2 line should now be dirty (write-back allocate at L2).
  EXPECT_TRUE(h.l2().line_dirty(0x40100000));
  // DL1 line updated but NOT dirty (write-through).
  EXPECT_TRUE(h.dl1().contains(0x40100000));
  EXPECT_FALSE(h.dl1().line_dirty(0x40100000));
}

TEST(Hierarchy, StoreMissDoesNotAllocateDl1) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.store(0x40200000, 0);
  EXPECT_FALSE(h.dl1().contains(0x40200000)); // no-write-allocate
  EXPECT_TRUE(h.l2().contains(0x40200000));   // allocated in L2
}

TEST(Hierarchy, UnifiedL2SharedBetweenCodeAndData) {
  MemoryHierarchy h(leon3_hierarchy_config());
  // A fetch fills an L2 line; a load of the same line hits L2.
  h.fetch(0x40000000);
  const std::uint32_t load_cost = h.load(0x40000000);
  const LatencyConfig& lat = h.latency();
  EXPECT_EQ(load_cost, lat.tlb_walk + lat.bus + lat.l2_hit);
  EXPECT_EQ(h.counters().l2_miss, 1u); // only the initial fetch missed
}

TEST(Hierarchy, DirectMappedL2ConflictBetweenCodeAndData) {
  // The paper's "bad and rare cache layout": code and data 32K apart
  // thrash the same direct-mapped L2 set.
  MemoryHierarchy h(leon3_hierarchy_config());
  const std::uint32_t code = 0x40000000;
  const std::uint32_t data = code + 32 * 1024; // same L2 set
  h.fetch(code);
  h.load(data); // evicts the code line from L2
  h.il1().invalidate_all();
  const std::uint32_t refetch = h.fetch(code); // must go to DRAM again
  const LatencyConfig& lat = h.latency();
  EXPECT_EQ(refetch, lat.bus + lat.l2_hit + lat.dram_read);
  EXPECT_EQ(h.counters().l2_miss, 3u);
}

TEST(Hierarchy, FlushAllEmptiesEverything) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.fetch(0x40000000);
  h.load(0x40100000);
  h.store(0x40100000, 0);
  h.flush_all();
  EXPECT_FALSE(h.il1().contains(0x40000000));
  EXPECT_FALSE(h.dl1().contains(0x40100000));
  EXPECT_FALSE(h.l2().contains(0x40000000));
  EXPECT_FALSE(h.l2().contains(0x40100000));
  EXPECT_FALSE(h.itlb().contains(0x40000000));
  // Dirty L2 line was drained.
  EXPECT_GE(h.counters().dram_writes, 1u);
}

TEST(Hierarchy, StaleFetchDetectedWithoutInvalidation) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.fetch(0x40000000);                    // cache old code
  h.note_memory_written(0x40000000, 64);  // DSR rewrites code behind caches
  h.fetch(0x40000000);                    // stale hit!
  EXPECT_EQ(h.counters().coherence_violations, 1u);
}

TEST(Hierarchy, StrictModeThrowsOnStaleFetch) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.set_strict_coherence(true);
  h.fetch(0x40000000);
  h.note_memory_written(0x40000000, 4);
  EXPECT_THROW(h.fetch(0x40000000), CoherenceError);
}

TEST(Hierarchy, InvalidationRoutineClearsStaleness) {
  // This is exactly what the paper's SPARC-compliant invalidation routine
  // must achieve (Section III.B.1).
  MemoryHierarchy h(leon3_hierarchy_config());
  h.set_strict_coherence(true);
  h.fetch(0x40000000);
  h.note_memory_written(0x40000000, 64);
  h.invalidate_range(0x40000000, 64);
  EXPECT_NO_THROW(h.fetch(0x40000000)); // refilled from (new) memory
  EXPECT_EQ(h.counters().coherence_violations, 0u);
}

TEST(Hierarchy, StaleL2AlsoDetected) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.fetch(0x40000000); // fills IL1 + L2
  h.il1().invalidate_all();
  h.note_memory_written(0x40000000, 4); // L2 line now stale
  h.fetch(0x40000000);                  // IL1 miss -> stale L2 hit
  EXPECT_EQ(h.counters().coherence_violations, 1u);
}

TEST(Hierarchy, GuestStoreMarksIl1Stale) {
  // A store executed by the program itself (e.g. self-modifying code /
  // relocation loop in guest code) also breaks I/D coherence.
  MemoryHierarchy h(leon3_hierarchy_config());
  h.fetch(0x40000000);
  h.store(0x40000000, 0);
  h.fetch(0x40000000);
  EXPECT_EQ(h.counters().coherence_violations, 1u);
}

TEST(Hierarchy, L2MissRatioAsPaperComputesIt) {
  MemoryHierarchy h(leon3_hierarchy_config());
  h.fetch(0x40000000);      // icmiss + l2miss
  h.load(0x40100020);       // dcmiss + l2miss (different L2 set than code)
  h.il1().invalidate_all();
  h.fetch(0x40000000);      // icmiss, L2 hit
  EXPECT_EQ(h.counters().icache_miss, 2u);
  EXPECT_EQ(h.counters().dcache_miss, 1u);
  EXPECT_EQ(h.counters().l2_miss, 2u);
  EXPECT_NEAR(h.counters().l2_miss_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(Hierarchy, HwRandomisedLayoutChangesAcrossSeeds) {
  // With random placement, the set of L2 conflicts depends on the seed:
  // two addresses 32K apart need not conflict any more.
  int conflicts = 0;
  constexpr int kSeeds = 32;
  for (int seed = 0; seed < kSeeds; ++seed) {
    MemoryHierarchy h(leon3_hw_randomised_config());
    h.reseed(static_cast<std::uint64_t>(seed));
    const std::uint32_t a = 0x40000000;
    const std::uint32_t b = a + 32 * 1024;
    if (h.l2().set_index(a) == h.l2().set_index(b)) {
      ++conflicts;
    }
  }
  // Probability of conflict per seed is 1/1024; 32 seeds virtually never
  // all conflict (modulo placement would make conflicts == kSeeds).
  EXPECT_LT(conflicts, kSeeds / 2);
}

// The memo stamps nothing, so it relies on the line it remembers already
// holding its L1's newest LRU stamp: the inline probe's hit must stamp it.
// Fill the four ways of one set, hit the oldest way through the inline
// probe and then through the memo, and fill a fifth line: the fast side
// must evict the same way as the slow side (way 1, not the refreshed 0).
void expect_memo_keeps_lru_order(bool loads) {
  MemoryHierarchy fast(leon3_hierarchy_config());
  MemoryHierarchy slow(leon3_hierarchy_config());
  const std::uint32_t way_bytes = leon3_hierarchy_config().il1.way_bytes();
  const auto line = [&](std::uint32_t k) {
    return 0x4000'0000 + k * way_bytes; // all in one set
  };
  int step = 0;
  const auto access = [&](std::uint32_t addr) {
    if (loads) {
      ASSERT_EQ(fast.load_fast(addr), slow.load(addr)) << "step " << step;
    } else {
      ASSERT_EQ(fast.fetch_fast(addr), slow.fetch(addr)) << "step " << step;
    }
    ++step;
  };
  for (std::uint32_t k = 0; k < 4; ++k) {
    access(line(k));
  }
  access(line(0));     // the oldest way: an inline probe hit
  access(line(0) + 4); // the same line: a memo hit
  access(line(4));     // a fifth line evicts the least recently used way
  Cache& fast_l1 = loads ? fast.dl1() : fast.il1();
  Cache& slow_l1 = loads ? slow.dl1() : slow.il1();
  for (std::uint32_t k = 0; k <= 4; ++k) {
    EXPECT_EQ(fast_l1.contains(line(k)), slow_l1.contains(line(k)))
        << "line " << k;
  }
  EXPECT_TRUE(slow_l1.contains(line(0)));
  EXPECT_FALSE(slow_l1.contains(line(1)));
  EXPECT_TRUE(fast.counters() == slow.counters());
}

TEST(Hierarchy, FetchMemoKeepsTheLruOrder) {
  expect_memo_keeps_lru_order(/*loads=*/false);
}

TEST(Hierarchy, LoadMemoKeepsTheLruOrder) {
  expect_memo_keeps_lru_order(/*loads=*/true);
}

struct Span {
  std::uint32_t base;
  std::uint32_t bytes;
};

// Two hierarchies hold the same state over `spans`: the same resident
// lines at every level, the same dirty L2 lines and the same resident TLB
// pages.  Then one identical slow sweep of fetches and loads over the
// spans, which evicts by each structure's LRU order, must cost the same
// cycles and leave the same PerfCounters on both sides.
void expect_same_state(MemoryHierarchy& fast, MemoryHierarchy& slow,
                       const std::vector<Span>& spans,
                       const std::string& label) {
  // 16 bytes: no cache line or TLB page in these tests is smaller.
  constexpr std::uint32_t kStep = 16;
  const auto same_cache = [&](Cache& a, Cache& b, const char* level) {
    for (const Span& span : spans) {
      for (std::uint32_t addr = span.base; addr - span.base < span.bytes;
           addr += kStep) {
        ASSERT_EQ(a.contains(addr), b.contains(addr))
            << label << " " << level << " 0x" << std::hex << addr;
        ASSERT_EQ(a.line_dirty(addr), b.line_dirty(addr))
            << label << " " << level << " 0x" << std::hex << addr;
      }
    }
  };
  same_cache(fast.il1(), slow.il1(), "IL1");
  same_cache(fast.dl1(), slow.dl1(), "DL1");
  same_cache(fast.l2(), slow.l2(), "L2");
  const auto same_tlb = [&](Tlb& a, Tlb& b, const char* level) {
    for (const Span& span : spans) {
      for (std::uint32_t addr = span.base; addr - span.base < span.bytes;
           addr += kStep) {
        ASSERT_EQ(a.contains(addr), b.contains(addr))
            << label << " " << level << " 0x" << std::hex << addr;
      }
    }
  };
  same_tlb(fast.itlb(), slow.itlb(), "ITLB");
  same_tlb(fast.dtlb(), slow.dtlb(), "DTLB");
  const std::uint32_t line_bytes = fast.l2().config().line_bytes;
  for (const Span& span : spans) {
    for (std::uint32_t addr = span.base; addr - span.base < span.bytes;
         addr += line_bytes) {
      ASSERT_EQ(fast.fetch(addr), slow.fetch(addr))
          << label << " sweep fetch 0x" << std::hex << addr;
      ASSERT_EQ(fast.load(addr), slow.load(addr))
          << label << " sweep load 0x" << std::hex << addr;
    }
  }
  EXPECT_TRUE(fast.counters() == slow.counters()) << label;
}

// The fast core's inline entry points (fetch_fast/load_fast/store_fast)
// against the slow ones (fetch/load/store) on one random access stream,
// interleaved with everything else that reads or changes the L1s and TLBs
// mid-run: rewrites behind the caches, the invalidation routine, partition
// flushes, a direct IL1 invalidation, and guest stores into code.  Code and
// data each span 96 4-KiB pages, beyond the IL1 size and the 64-page TLB
// reach, so hits, misses, TLB evictions and stale lines all occur.
void expect_inline_paths_match_slow_paths(const HierarchyConfig& config,
                                          int seeds, int steps) {
  constexpr std::uint32_t kCode = 0x4000'0000;
  constexpr std::uint32_t kData = 0x4020'0000;
  constexpr std::uint32_t kSpan = 96 * 4096;
  for (int seed = 0; seed < seeds; ++seed) {
    MemoryHierarchy fast(config);
    MemoryHierarchy slow(config);
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    // A word-aligned address near `addr` (within 2 KiB) inside [base,
    // base + kSpan), or anywhere in it for one draw in 32.
    const auto move = [&](std::uint32_t addr, std::uint32_t base) {
      const std::uint32_t offset =
          rng() % 32 == 0 ? rng() % kSpan
                          : (addr - base + kSpan + rng() % 4096 - 2048) % kSpan;
      return base + (offset & ~3U);
    };
    std::uint32_t pc = kCode;
    std::uint32_t data = kData;
    std::uint64_t now = 0;
    for (int step = 0; step < steps; ++step) {
      const std::uint32_t draw = rng() % 1000;
      std::uint32_t fast_cycles = 0;
      std::uint32_t slow_cycles = 0;
      if (draw < 600) {
        fast_cycles = fast.fetch_fast(pc);
        slow_cycles = slow.fetch(pc);
        pc = rng() % 16 == 0 ? move(pc, kCode) : pc + 4;
        if (pc >= kCode + kSpan) {
          pc = kCode;
        }
      } else if (draw < 800) {
        fast_cycles = fast.load_fast(data);
        slow_cycles = slow.load(data);
        data = rng() % 4 == 0 ? move(data, kData) : data + 4;
        if (data >= kData + kSpan) {
          data = kData;
        }
      } else if (draw < 920) {
        // One store in eight lands in the code just ahead of the pc.
        const std::uint32_t length = 1U << (rng() % 4); // 1, 2, 4 or 8
        const std::uint32_t addr =
            (rng() % 8 == 0 ? pc + 4 * (rng() % 8) : move(data, kData)) &
            ~(length - 1);
        fast_cycles = fast.store_fast(addr, now, length);
        slow_cycles = slow.store(addr, now, length);
      } else {
        // Range operations around the pc or the data pointer.
        const std::uint32_t around = rng() % 2 == 0 ? pc : data;
        const std::uint32_t addr = around - 64 + rng() % 128;
        const std::uint32_t length = 1 + rng() % 128;
        if (draw < 960) {
          fast.note_memory_written(addr, length);
          slow.note_memory_written(addr, length);
        } else if (draw < 990) {
          ASSERT_EQ(fast.invalidate_range(addr, length),
                    slow.invalidate_range(addr, length))
              << "seed " << seed << " step " << step;
        } else if (draw < 995) {
          fast.flush_l1s();
          slow.flush_l1s();
        } else {
          fast.il1().invalidate_all();
          slow.il1().invalidate_all();
        }
      }
      ASSERT_EQ(fast_cycles, slow_cycles)
          << "seed " << seed << " step " << step;
      now += 1 + fast_cycles;
    }
    // A page of margin each side: range operations and stores into the
    // code reach a little past the spans.
    expect_same_state(fast, slow,
                      {{kCode - 4096, kSpan + 2 * 4096},
                       {kData - 4096, kSpan + 2 * 4096}},
                      "seed " + std::to_string(seed));
  }
}

TEST(Hierarchy, InlinePathsMatchSlowPathsUnderRandomInterleaving) {
  expect_inline_paths_match_slow_paths(leon3_hierarchy_config(), 40, 20'000);
}

// With TLB pages smaller than an L1 line, two accesses to one line can
// need two translations, so the same-line memo must stay off.
TEST(Hierarchy, InlinePathsMatchSlowPathsWhenALineSpansTlbPages) {
  HierarchyConfig config = leon3_hierarchy_config();
  config.itlb.page_bytes = 16;
  config.dtlb.page_bytes = 16;
  expect_inline_paths_match_slow_paths(config, 4, 20'000);
}

// A load-line memo must not outlive a store: every store moves the DTLB's
// MRU entry and ages the loaded page's entry.  Page P stays live through
// 63 stores to other pages only because the loads between them refresh it;
// the 65th page then evicts another page, and a load from another line of
// P still hits the DTLB.
TEST(Hierarchy, LoadLineTlbEntryStaysLiveAcrossStoresToOtherPages) {
  MemoryHierarchy fast(leon3_hierarchy_config());
  MemoryHierarchy slow(leon3_hierarchy_config());
  constexpr std::uint32_t kPage = 4096;
  constexpr std::uint32_t kP = 0x4010'0000;
  const auto other_page = [](std::uint32_t k) {
    return 0x4020'0000 + k * kPage;
  };
  std::uint64_t now = 0;
  int step = 0;
  const auto check = [&](std::uint32_t fast_cycles, std::uint32_t slow_cycles) {
    const std::string label = "step " + std::to_string(step++);
    ASSERT_EQ(fast_cycles, slow_cycles) << label;
    ASSERT_TRUE(fast.counters() == slow.counters()) << label;
    now += 1 + fast_cycles;
  };
  const auto load = [&](std::uint32_t addr) {
    check(fast.load_fast(addr), slow.load(addr));
  };
  const auto store = [&](std::uint32_t addr) {
    check(fast.store_fast(addr, now), slow.store(addr, now));
  };

  load(kP);
  for (std::uint32_t k = 0; k < 63; ++k) {
    store(other_page(k)); // fills the DTLB: P plus 63 pages
  }
  load(kP);
  load(kP);
  for (std::uint32_t k = 63; k < 126; ++k) {
    store(other_page(k)); // evicts the oldest of the first 63 pages
    load(kP);
  }
  store(other_page(126)); // the 65th page evicts page 63, not P
  EXPECT_FALSE(slow.dtlb().contains(other_page(63)));
  load(kP + 32); // another line of P: a DTLB hit
  EXPECT_EQ(slow.counters().dtlb_miss, 128u); // P and the 127 other pages
  expect_same_state(fast, slow, {{kP, kPage}, {other_page(0), 127 * kPage}},
                    "end");
}

} // namespace
