#include "hierarchy.hpp"

#include <bit>
#include <sstream>

namespace proxima::mem {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : il1_(std::move(config.il1)), dl1_(std::move(config.dl1)),
      l2_(std::move(config.l2)), itlb_(config.itlb), dtlb_(config.dtlb) {}

MemoryHierarchy::LineMemo::LineMemo(const Cache& l1, const Tlb& tlb)
    : shift(static_cast<std::uint32_t>(
          std::countr_zero(l1.config().line_bytes))),
      fits_page(l1.config().line_bytes <= tlb.config().page_bytes) {}

void MemoryHierarchy::on_stale_hit(const char* who, std::uint32_t addr) {
  ++counters_.coherence_violations;
  if (strict_) {
    std::ostringstream oss;
    oss << who << ": stale line hit at address 0x" << std::hex << addr
        << " — memory was rewritten without running the invalidation routine";
    throw CoherenceError(oss.str());
  }
}

std::uint32_t MemoryHierarchy::l2_fill(std::uint32_t addr) {
  ++counters_.l2_access;
  const AccessResult l2 = l2_.read(addr);
  if (l2.hit) {
    if (l2.stale_hit) {
      on_stale_hit("L2", addr);
    }
    return kL2HitCycles;
  }
  ++counters_.l2_miss;
  ++counters_.dram_reads;
  std::uint32_t cycles = kL2HitCycles + kDramReadCycles;
  if (l2.writeback) {
    ++counters_.l2_writebacks;
    ++counters_.dram_writes;
    cycles += kDramWriteCycles;
  }
  return cycles;
}

std::uint32_t MemoryHierarchy::fetch(std::uint32_t addr) {
  fetch_memo_.disarm();
  std::uint32_t cycles = 0;
  if (!itlb_.access(addr)) {
    ++counters_.itlb_miss;
    cycles += kTlbWalkCycles;
  }
  ++counters_.icache_access;
  return cycles + fetch_after_itlb(addr);
}

std::uint32_t MemoryHierarchy::load(std::uint32_t addr) {
  load_memo_.disarm();
  std::uint32_t cycles = 0;
  if (!dtlb_.access(addr)) {
    ++counters_.dtlb_miss;
    cycles += kTlbWalkCycles;
  }
  ++counters_.dcache_access;
  ++counters_.loads;
  return cycles + load_after_dtlb(addr);
}

std::uint32_t MemoryHierarchy::store(std::uint32_t addr,
                                     std::uint64_t current_cycle,
                                     std::uint32_t length) {
  disarm_for_store(addr, length);
  std::uint32_t cycles = 0;
  il1_.mark_stale(addr, length); // no I/D coherence on SPARC
  if (!dtlb_.access(addr)) {
    ++counters_.dtlb_miss;
    cycles += kTlbWalkCycles;
  }
  ++counters_.dcache_access;
  ++counters_.stores;
  // DL1 is write-through no-write-allocate: a hit updates the line, a miss
  // leaves DL1 untouched; either way the store goes downstream.
  (void)dl1_.write(addr);

  // Single-entry write buffer: the store is absorbed unless the buffer is
  // still draining the previous store.
  const std::uint64_t now = current_cycle + cycles;
  if (store_buffer_free_at_ > now) {
    cycles += static_cast<std::uint32_t>(store_buffer_free_at_ - now);
  }
  return store_after_l2_probe(addr, current_cycle, cycles);
}

std::uint32_t MemoryHierarchy::fetch_after_itlb(std::uint32_t addr) {
  const AccessResult l1 = il1_.read(addr);
  if (l1.hit) {
    if (l1.stale_hit) {
      on_stale_hit("IL1", addr);
    }
    return 0;
  }
  ++counters_.icache_miss;
  return kBusCycles + l2_fill(addr);
}

std::uint32_t MemoryHierarchy::load_after_dtlb(std::uint32_t addr) {
  const AccessResult l1 = dl1_.read(addr);
  if (l1.hit) {
    if (l1.stale_hit) {
      on_stale_hit("DL1", addr);
    }
    return 0;
  }
  ++counters_.dcache_miss;
  return kBusCycles + l2_fill(addr);
}

std::uint32_t MemoryHierarchy::store_after_l2_probe(std::uint32_t addr,
                                                    std::uint64_t current_cycle,
                                                    std::uint32_t cycles) {
  // Drain through the bus into the unified L2 (write-back allocate there).
  std::uint32_t drain = kStoreDrainCycles;
  const AccessResult l2 = l2_.write(addr);
  if (!l2.hit) {
    // Allocate-on-write: the L2 fills the line from DRAM while draining.
    ++counters_.dram_reads;
    drain += kDramReadCycles;
    if (l2.writeback) {
      ++counters_.l2_writebacks;
      ++counters_.dram_writes;
      drain += kDramWriteCycles;
    }
  }
  store_buffer_free_at_ = current_cycle + cycles + drain;
  return cycles;
}

void MemoryHierarchy::flush_l1s() {
  disarm_memos();
  il1_.invalidate_all();
  dl1_.invalidate_all();
  itlb_.flush();
  dtlb_.flush();
  store_buffer_free_at_ = 0;
}

void MemoryHierarchy::flush_all() {
  flush_l1s();
  (void)drain_l2(l2_.invalidate_all());
}

std::uint32_t MemoryHierarchy::drain_l2(const Invalidated& dropped) {
  counters_.l2_writebacks += dropped.dirty;
  counters_.dram_writes += dropped.dirty;
  return dropped.lines;
}

std::uint32_t MemoryHierarchy::invalidate_range(std::uint32_t addr,
                                                std::uint32_t length) {
  disarm_memos();
  const std::uint32_t l1_lines = il1_.invalidate_range(addr, length).lines +
                                 dl1_.invalidate_range(addr, length).lines;
  return l1_lines + drain_l2(l2_.invalidate_range(addr, length));
}

std::uint32_t MemoryHierarchy::invalidate_ranges(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  disarm_memos();
  const std::uint32_t l1_lines = il1_.invalidate_ranges(ranges).lines +
                                 dl1_.invalidate_ranges(ranges).lines;
  return l1_lines + drain_l2(l2_.invalidate_ranges(ranges));
}

void MemoryHierarchy::note_memory_written(std::uint32_t addr,
                                          std::uint32_t length) {
  disarm_memos();
  il1_.mark_stale(addr, length);
  dl1_.mark_stale(addr, length);
  l2_.mark_stale(addr, length);
}

void MemoryHierarchy::reseed(std::uint64_t seed) {
  disarm_memos();
  il1_.reseed(seed ^ 0x11U);
  dl1_.reseed(seed ^ 0x22U);
  l2_.reseed(seed ^ 0x33U);
}

HierarchyConfig leon3_hierarchy_config() {
  HierarchyConfig config;
  config.il1 = CacheConfig{.name = "IL1",
                           .size_bytes = 16 * 1024,
                           .line_bytes = 32,
                           .ways = 4,
                           .replacement = Replacement::kLru,
                           .placement = Placement::kModulo,
                           .write_policy = WritePolicy::kWriteBackAllocate};
  config.dl1 = CacheConfig{.name = "DL1",
                           .size_bytes = 16 * 1024,
                           .line_bytes = 32,
                           .ways = 4,
                           .replacement = Replacement::kLru,
                           .placement = Placement::kModulo,
                           .write_policy =
                               WritePolicy::kWriteThroughNoAllocate};
  config.l2 = CacheConfig{.name = "L2",
                          .size_bytes = 32 * 1024,
                          .line_bytes = 32,
                          .ways = 1, // direct-mapped
                          .replacement = Replacement::kLru,
                          .placement = Placement::kModulo,
                          .write_policy = WritePolicy::kWriteBackAllocate};
  config.itlb = TlbConfig{.entries = 64, .page_bytes = 4096};
  config.dtlb = TlbConfig{.entries = 64, .page_bytes = 4096};
  return config;
}

HierarchyConfig leon3_hw_randomised_config() {
  HierarchyConfig config = leon3_hierarchy_config();
  config.il1.placement = Placement::kRandomHash;
  config.il1.replacement = Replacement::kRandom;
  config.dl1.placement = Placement::kRandomHash;
  config.dl1.replacement = Replacement::kRandom;
  config.l2.placement = Placement::kRandomHash;
  // Direct-mapped L2: random placement only (no replacement choice exists).
  return config;
}

} // namespace proxima::mem
