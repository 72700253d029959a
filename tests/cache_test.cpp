// Unit tests for the set-associative cache model (LEON3 geometries).
#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <set>

namespace {

using proxima::mem::AccessResult;
using proxima::mem::Cache;
using proxima::mem::CacheConfig;
using proxima::mem::Invalidated;
using proxima::mem::Placement;
using proxima::mem::Replacement;
using proxima::mem::WritePolicy;

CacheConfig small_lru_config() {
  // 4 sets x 2 ways x 16B lines = 128 bytes: easy to reason about.
  return CacheConfig{.name = "test",
                     .size_bytes = 128,
                     .line_bytes = 16,
                     .ways = 2,
                     .replacement = Replacement::kLru,
                     .placement = Placement::kModulo,
                     .write_policy = WritePolicy::kWriteBackAllocate};
}

TEST(CacheGeometry, Leon3Configs) {
  const CacheConfig il1{.name = "IL1",
                        .size_bytes = 16 * 1024,
                        .line_bytes = 32,
                        .ways = 4};
  EXPECT_EQ(il1.sets(), 128u);
  EXPECT_EQ(il1.way_bytes(), 4096u);

  const CacheConfig l2{.name = "L2",
                       .size_bytes = 32 * 1024,
                       .line_bytes = 32,
                       .ways = 1};
  EXPECT_EQ(l2.sets(), 1024u);
  EXPECT_EQ(l2.way_bytes(), 32u * 1024u); // DSR offset range (III.B.4)
}

TEST(CacheGeometry, RejectsInvalidConfigs) {
  CacheConfig bad = small_lru_config();
  bad.line_bytes = 24; // not a power of two
  EXPECT_THROW(Cache{bad}, std::invalid_argument);

  bad = small_lru_config();
  bad.ways = 0;
  EXPECT_THROW(Cache{bad}, std::invalid_argument);

  bad = small_lru_config();
  bad.size_bytes = 100; // not multiple of line*ways
  EXPECT_THROW(Cache{bad}, std::invalid_argument);
}

TEST(Cache, ColdMissThenHit) {
  Cache cache(small_lru_config());
  const AccessResult first = cache.read(0x40);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(cache.contains(0x40));
  const AccessResult second = cache.read(0x4c); // same 16B line
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.invalidate_all().lines, 1u); // one miss filled one line
}

TEST(Cache, SetIndexModulo) {
  Cache cache(small_lru_config());
  // 4 sets, 16B lines: set = (addr/16) % 4.
  EXPECT_EQ(cache.set_index(0x00), 0u);
  EXPECT_EQ(cache.set_index(0x10), 1u);
  EXPECT_EQ(cache.set_index(0x20), 2u);
  EXPECT_EQ(cache.set_index(0x30), 3u);
  EXPECT_EQ(cache.set_index(0x40), 0u);
}

TEST(Cache, LruEvictsOldest) {
  Cache cache(small_lru_config());
  // Three lines mapping to set 0 in a 2-way cache: 0x00, 0x40, 0x80.
  cache.read(0x00);
  cache.read(0x40);
  cache.read(0x00); // refresh 0x00; LRU is now 0x40
  cache.read(0x80); // evicts 0x40
  EXPECT_TRUE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x40));
  EXPECT_TRUE(cache.contains(0x80));
  EXPECT_EQ(cache.invalidate_all().lines, 2u); // three fills, one eviction
}

TEST(Cache, WriteBackSetsDirtyAndWritesBackOnEviction) {
  Cache cache(small_lru_config());
  cache.write(0x00); // allocate dirty
  EXPECT_TRUE(cache.line_dirty(0x00));
  cache.read(0x40);
  const AccessResult evicting = cache.read(0x80); // evicts 0x00 (dirty)
  EXPECT_TRUE(evicting.writeback);
  EXPECT_FALSE(cache.contains(0x00)); // the written-back line was 0x00
  EXPECT_TRUE(cache.contains(0x40));
  EXPECT_EQ(cache.invalidate_all().dirty, 0u); // no dirty line left behind
}

TEST(Cache, WriteThroughNoAllocateDoesNotFillOnMiss) {
  CacheConfig config = small_lru_config();
  config.write_policy = WritePolicy::kWriteThroughNoAllocate;
  Cache cache(config);
  const AccessResult miss = cache.write(0x00);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.writeback);
  EXPECT_FALSE(cache.contains(0x00));

  cache.read(0x00); // fill via read
  const AccessResult hit = cache.write(0x04);
  EXPECT_TRUE(hit.hit);
  // Write-through: the line never turns dirty, so nothing is held back
  // for a later write-back; every write goes downstream as it happens.
  EXPECT_FALSE(cache.line_dirty(0x00));
  EXPECT_EQ(cache.invalidate_all().dirty, 0u);
}

TEST(Cache, DirectMappedConflict) {
  CacheConfig config = small_lru_config();
  config.ways = 1;
  config.size_bytes = 64; // 4 sets x 1 way x 16B
  Cache cache(config);
  cache.read(0x00);
  cache.read(0x40); // same set, evicts
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_TRUE(cache.contains(0x40));
}

TEST(Cache, InvalidatingADirtyLineCountsItDirty) {
  Cache cache(small_lru_config());
  cache.write(0x20);
  const Invalidated dropped = cache.invalidate_range(0x24, 1); // same line
  EXPECT_EQ(dropped.lines, 1u);
  EXPECT_EQ(dropped.dirty, 1u);
  EXPECT_FALSE(cache.contains(0x20));
  const Invalidated again = cache.invalidate_range(0x20, 1); // already gone
  EXPECT_EQ(again.lines, 0u);
  EXPECT_EQ(again.dirty, 0u);
}

TEST(Cache, InvalidateRangeCoversPartialLines) {
  Cache cache(small_lru_config());
  cache.read(0x00);
  cache.read(0x10);
  cache.read(0x20);
  // Range [0x08, 0x18) touches lines 0x00 and 0x10 only.
  EXPECT_EQ(cache.invalidate_range(0x08, 0x10).lines, 2u);
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x10));
  EXPECT_TRUE(cache.contains(0x20));
}

TEST(Cache, InvalidateAllCountsWritebacks) {
  Cache cache(small_lru_config());
  cache.write(0x00);
  cache.write(0x10);
  cache.read(0x20);
  const Invalidated dropped = cache.invalidate_all();
  EXPECT_EQ(dropped.lines, 3u);
  EXPECT_EQ(dropped.dirty, 2u);
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x20));
}

TEST(Cache, StaleLineDetection) {
  Cache cache(small_lru_config());
  cache.read(0x00);
  cache.mark_stale(0x04, 4); // within the cached line
  const AccessResult result = cache.read(0x00);
  EXPECT_TRUE(result.hit);
  EXPECT_TRUE(result.stale_hit);
}

TEST(Cache, StaleClearedByRefill) {
  Cache cache(small_lru_config());
  cache.read(0x00);
  cache.mark_stale(0x00, 16);
  cache.invalidate_range(0x00, 1);
  const AccessResult refill = cache.read(0x00);
  EXPECT_FALSE(refill.hit);
  const AccessResult hit = cache.read(0x00);
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.stale_hit); // refill fetched fresh memory
}

TEST(Cache, StaleOnUncachedRangeIsNoop) {
  Cache cache(small_lru_config());
  cache.mark_stale(0x1000, 64); // nothing cached there
  cache.read(0x1000);
  const AccessResult hit = cache.read(0x1000);
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.stale_hit);
}

TEST(Cache, WriteClearsStaleness) {
  // A write-through store updates both line and memory: line is fresh again.
  CacheConfig config = small_lru_config();
  config.write_policy = WritePolicy::kWriteThroughNoAllocate;
  Cache cache(config);
  cache.read(0x00);
  cache.mark_stale(0x00, 16);
  cache.write(0x00);
  const AccessResult hit = cache.read(0x00);
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.stale_hit);
}

TEST(Cache, RandomPlacementChangesWithSeed) {
  CacheConfig config{.name = "hw-rand",
                     .size_bytes = 16 * 1024,
                     .line_bytes = 32,
                     .ways = 4,
                     .replacement = Replacement::kLru,
                     .placement = Placement::kRandomHash,
                     .write_policy = WritePolicy::kWriteBackAllocate};
  Cache cache(config);
  cache.reseed(1);
  std::vector<std::uint32_t> first;
  for (std::uint32_t addr = 0; addr < 0x1000; addr += 32) {
    first.push_back(cache.set_index(addr));
  }
  cache.reseed(2);
  std::vector<std::uint32_t> second;
  for (std::uint32_t addr = 0; addr < 0x1000; addr += 32) {
    second.push_back(cache.set_index(addr));
  }
  EXPECT_NE(first, second);

  // Placement is still a function: same seed, same mapping.
  cache.reseed(1);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(cache.set_index(static_cast<std::uint32_t>(i) * 32), first[i]);
  }
}

TEST(Cache, RandomPlacementSpreadsSets) {
  CacheConfig config{.name = "hw-rand",
                     .size_bytes = 16 * 1024,
                     .line_bytes = 32,
                     .ways = 4,
                     .replacement = Replacement::kLru,
                     .placement = Placement::kRandomHash,
                     .write_policy = WritePolicy::kWriteBackAllocate};
  Cache cache(config);
  cache.reseed(42);
  std::set<std::uint32_t> sets;
  for (std::uint32_t addr = 0; addr < 0x10000; addr += 32) {
    sets.insert(cache.set_index(addr));
  }
  EXPECT_EQ(sets.size(), 128u); // all sets reachable
}

TEST(Cache, RandomReplacementEventuallyEvictsEveryWay) {
  CacheConfig config = small_lru_config();
  config.replacement = Replacement::kRandom;
  Cache cache(config);
  cache.reseed(7);
  // Fill set 0 with 0x00 and 0x40, then stream conflicting lines; random
  // replacement must hit both resident ways over time.
  cache.read(0x00);
  cache.read(0x40);
  bool evicted_first = false;
  bool evicted_second = false;
  std::uint32_t fresh = 0x80;
  for (int i = 0; i < 64 && !(evicted_first && evicted_second); ++i) {
    cache.read(fresh);
    evicted_first = evicted_first || !cache.contains(0x00);
    evicted_second = evicted_second || !cache.contains(0x40);
    fresh += 0x40;
  }
  EXPECT_TRUE(evicted_first);
  EXPECT_TRUE(evicted_second);
}

// Parameterised sweep: miss count equals unique-line count on a cold
// streaming pass for any geometry (basic sanity across configurations).
struct GeometryParam {
  std::uint32_t size;
  std::uint32_t line;
  std::uint32_t ways;
};

class CacheGeometrySweep : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CacheGeometrySweep, ColdStreamMissesOncePerLine) {
  const GeometryParam p = GetParam();
  Cache cache(CacheConfig{.name = "sweep",
                          .size_bytes = p.size,
                          .line_bytes = p.line,
                          .ways = p.ways,
                          .replacement = Replacement::kLru,
                          .placement = Placement::kModulo,
                          .write_policy = WritePolicy::kWriteBackAllocate});
  const std::uint32_t span = p.size; // exactly fits: no capacity misses
  std::uint32_t misses = 0;
  for (std::uint32_t addr = 0; addr < span; addr += 4) {
    misses += cache.read(addr).hit ? 0 : 1;
  }
  EXPECT_EQ(misses, span / p.line);
  EXPECT_EQ(cache.invalidate_all().lines, span / p.line); // none evicted
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(GeometryParam{16 * 1024, 32, 4}, // IL1/DL1
                      GeometryParam{32 * 1024, 32, 1}, // L2
                      GeometryParam{8 * 1024, 16, 2},
                      GeometryParam{4 * 1024, 64, 8},
                      GeometryParam{1024, 32, 1}));

} // namespace
