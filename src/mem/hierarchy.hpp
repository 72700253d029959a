// LEON3-class memory hierarchy: IL1 + DL1 over a shared bus into a unified
// write-back L2, then DRAM (Figure 1 of the paper).
//
// The hierarchy owns tag state and timing; instruction/data *contents* live
// in GuestMemory and are read/written directly by the VM and the DSR
// runtime.  It also does all the counting: its `PerfCounters` are the
// timing model's only counters (the caches and TLBs keep tag state only
// and report each outcome to it).  Because SPARC v8 provides no hardware
// coherence between the instruction and data paths, code rewritten in
// memory leaves stale lines behind; `note_memory_written` marks them and
// any subsequent hit on a stale line counts as a coherence violation
// (optionally fatal).  The DSR runtime's SPARC-compliant invalidation
// routine (Section III.B.1) clears the affected lines, which is exactly
// what the real routine achieves.
#pragma once

#include "cache.hpp"
#include "counters.hpp"
#include "tlb.hpp"

#include <cstdint>
#include <stdexcept>

namespace proxima::mem {

/// Latency model in cycles.  L1 hit cost is the pipeline's base memory-stage
/// occupancy and is charged by the VM; the hierarchy returns *additional*
/// stall cycles only.
struct LatencyConfig {
  std::uint32_t l2_hit = 8;       // L1 miss, L2 hit
  std::uint32_t dram_read = 28;   // L2 miss (line fill from DRAM)
  std::uint32_t dram_write = 28;  // dirty line write-back drain
  std::uint32_t bus = 2;          // per L1<->L2 transaction
  std::uint32_t store_drain = 4;  // write-buffer drain slot (bus + L2 tag)
  std::uint32_t tlb_walk = 24;    // SRMMU table walk on TLB miss
};

/// Raised on a stale-line hit when strict coherence checking is enabled.
class CoherenceError : public std::runtime_error {
public:
  explicit CoherenceError(const std::string& what)
      : std::runtime_error(what) {}
};

struct HierarchyConfig {
  CacheConfig il1;
  CacheConfig dl1;
  CacheConfig l2;
  TlbConfig itlb;
  TlbConfig dtlb;
  LatencyConfig latency;
};

class MemoryHierarchy {
public:
  explicit MemoryHierarchy(HierarchyConfig config);

  /// Instruction fetch at `addr`: ITLB + IL1 + (bus + L2) + (DRAM).
  /// Returns additional stall cycles beyond the 1-cycle fetch stage.
  std::uint32_t fetch(std::uint32_t addr);

  /// Data load: DTLB + DL1 + (bus + L2) + (DRAM).
  std::uint32_t load(std::uint32_t addr);

  // -------------------------------------------------------------------
  // Inline hit fast paths for the fast VM core.  Cycle-for-cycle and
  // counter-for-counter identical to fetch/load/store, and they leave the
  // same resident lines and TLB entries: the common case (TLB memo hit +
  // clean L1 hit) resolves entirely inline so the dispatch loop never
  // takes a call; every other case falls through to the out-of-line
  // continuations, which the slow entry points call too.  The
  // differential VM suite pins the equivalence.
  //
  // On top of that, a same-line memo: once a fetch (load) resolves as a
  // TLB hit and a clean L1 hit, later fetches (loads) in that L1 line only
  // count the access.  They stamp nothing: the memo line and the TLB's MRU
  // entry already carry their structure's newest stamp.  Anything else
  // that touches the L1 or TLB first disarms the memo (DESIGN.md §3.4).
  // -------------------------------------------------------------------

  std::uint32_t fetch_fast(std::uint32_t addr) {
    ++counters_.icache_access;
    if (fetch_memo_.hit(addr)) [[likely]] {
      return 0;
    }
    fetch_memo_.disarm();
    if (itlb_.access_fast(addr)) [[likely]] {
      if (il1_.read_hit_fast(addr)) [[likely]] {
        fetch_memo_.arm(addr);
        return 0;
      }
      return fetch_after_itlb(addr);
    }
    ++counters_.itlb_miss;
    if (il1_.read_hit_fast(addr)) {
      return latency_.tlb_walk;
    }
    return latency_.tlb_walk + fetch_after_itlb(addr);
  }

  std::uint32_t load_fast(std::uint32_t addr) {
    ++counters_.dcache_access;
    ++counters_.loads;
    if (load_memo_.hit(addr)) [[likely]] {
      return 0;
    }
    load_memo_.disarm();
    if (dtlb_.access_fast(addr)) [[likely]] {
      if (dl1_.read_hit_fast(addr)) [[likely]] {
        load_memo_.arm(addr);
        return 0;
      }
      return load_after_dtlb(addr);
    }
    ++counters_.dtlb_miss;
    if (dl1_.read_hit_fast(addr)) {
      return latency_.tlb_walk;
    }
    return latency_.tlb_walk + load_after_dtlb(addr);
  }

  std::uint32_t store_fast(std::uint32_t addr, std::uint64_t current_cycle,
                           std::uint32_t length = 4) {
    disarm_for_store(addr, length);
    std::uint32_t cycles = 0;
    il1_.mark_stale_fast(addr, length); // no I/D coherence on SPARC
    if (!dtlb_.access_fast(addr)) [[unlikely]] {
      ++counters_.dtlb_miss;
      cycles += latency_.tlb_walk;
    }
    ++counters_.dcache_access;
    ++counters_.stores;
    if (!dl1_.write_hit_fast(addr)) {
      (void)dl1_.write(addr);
    }
    const std::uint64_t now = current_cycle + cycles;
    if (store_buffer_free_at_ > now) {
      cycles += static_cast<std::uint32_t>(store_buffer_free_at_ - now);
    }
    if (l2_.write_hit_fast(addr)) [[likely]] {
      store_buffer_free_at_ = current_cycle + cycles + latency_.store_drain;
      return cycles;
    }
    return store_after_l2_probe(addr, current_cycle, cycles);
  }

  /// Data store of `length` bytes at the current pipeline cycle.  DL1 is
  /// write-through no-write-allocate; stores are absorbed by a single-entry
  /// write buffer that drains through the bus into the L2, so a store only
  /// stalls when it finds the buffer still draining (LEON3 behaviour).
  /// A store that lands under a valid IL1 line marks it stale: SPARC gives
  /// no instruction-path coherence.
  std::uint32_t store(std::uint32_t addr, std::uint64_t current_cycle,
                      std::uint32_t length = 4);

  /// Invalidate all cache levels and both TLBs.  Dirty L2 lines are
  /// drained to DRAM (counted, not timed: happens between partitions).
  void flush_all();

  /// PikeOS partition start: "automatically flush instruction and data
  /// caches" — the *L1* caches and TLBs.  The write-back unified L2 keeps
  /// its contents, as on the real platform; this is what gives the paper's
  /// 17-25% L2 miss ratios instead of all-cold misses.
  void flush_l1s();

  /// The DSR invalidation routine: write back + invalidate every line of
  /// all levels intersecting [addr, addr+length).  Returns the number of
  /// lines invalidated (the routine's cost is proportional; charged by the
  /// caller at relocation time, outside the unit of analysis).
  std::uint32_t invalidate_range(std::uint32_t addr, std::uint32_t length);

  /// Batched invalidation routine: equivalent to one `invalidate_range`
  /// call per entry of `ranges` (sorted by address, pairwise disjoint),
  /// but each level may satisfy a large batch with a single tag walk
  /// instead of per-line-address probes — the DSR reseed fast path.
  std::uint32_t invalidate_ranges(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges);

  /// Declare that memory [addr, addr+length) was rewritten behind the
  /// caches (DSR relocation, partition loader).  Marks covering lines stale.
  void note_memory_written(std::uint32_t addr, std::uint32_t length);

  /// A DMA transfer rewrote [addr, addr+length): LEON3 DMA is not
  /// cache-coherent, so mark the covering lines stale, then invalidate
  /// them.  Every input-staging function calls this once per range it
  /// writes, right after writing it.
  void dma_written(std::uint32_t addr, std::uint32_t length) {
    note_memory_written(addr, length);
    invalidate_range(addr, length);
  }

  /// When enabled, a hit on a stale line throws CoherenceError instead of
  /// just counting (failure-injection tests use this).
  void set_strict_coherence(bool strict) noexcept { strict_ = strict; }

  /// Re-seed randomised placement/replacement in all levels (hardware
  /// randomisation ablation; no effect on modulo/LRU caches).
  void reseed(std::uint64_t seed);

  PerfCounters& counters() noexcept { return counters_; }
  const PerfCounters& counters() const noexcept { return counters_; }

  // Reaching into an L1 or TLB disarms that side's memo: the caller may
  // change what the memo assumes (an invalidation, another access).
  Cache& il1() noexcept {
    fetch_memo_.disarm();
    return il1_;
  }
  Cache& dl1() noexcept {
    load_memo_.disarm();
    return dl1_;
  }
  Cache& l2() noexcept { return l2_; }
  Tlb& itlb() noexcept {
    fetch_memo_.disarm();
    return itlb_;
  }
  Tlb& dtlb() noexcept {
    load_memo_.disarm();
    return dtlb_;
  }
  const LatencyConfig& latency() const noexcept { return latency_; }

private:
  /// The same-line memo of one L1/TLB pair: the L1 line of the last access
  /// that resolved as a TLB hit plus a clean L1 hit, while nothing else has
  /// touched that L1 or TLB since.
  struct LineMemo {
    static constexpr std::uint64_t kOff = ~std::uint64_t{0};

    LineMemo(const Cache& l1, const Tlb& tlb);

    bool hit(std::uint32_t addr) const { return (addr >> shift) == line; }

    void arm(std::uint32_t addr) {
      if (fits_page) {
        line = addr >> shift;
      }
    }

    void disarm() { line = kOff; }

    /// True if [addr, addr+length) may overlap the memo line.
    bool touches(std::uint32_t addr, std::uint32_t length) const {
      if (line == kOff) {
        return false;
      }
      const auto base = static_cast<std::uint32_t>(line << shift);
      return addr - base < (std::uint32_t{1} << shift) || base - addr < length;
    }

    std::uint64_t line = kOff; // addr >> shift of the memo line, or kOff
    std::uint32_t shift = 0;   // log2 of the L1 line size
    /// An L1 line lies within one TLB page, so a same-line access is a
    /// same-page access.  Never false on a real configuration.
    bool fits_page = false;
  };

  /// A store moves the DTLB's MRU entry and the DL1's LRU state, and
  /// stales any IL1 line it touches.
  void disarm_for_store(std::uint32_t addr, std::uint32_t length) {
    load_memo_.disarm();
    if (fetch_memo_.touches(addr, length)) {
      fetch_memo_.disarm();
    }
  }
  void disarm_memos() {
    fetch_memo_.disarm();
    load_memo_.disarm();
  }

  /// Unified-L2 read on the fill path (from an L1 miss).  Returns stall
  /// cycles contributed by the L2 and DRAM.
  std::uint32_t l2_fill(std::uint32_t addr);

  /// Count the dirty lines an L2 invalidation dropped as write-backs to
  /// DRAM (counted, not timed); returns the lines it dropped.
  std::uint32_t drain_l2(const Invalidated& dropped);

  void on_stale_hit(const char* who, std::uint32_t addr);

  // Out-of-line continuations of the inline fast paths: everything after
  // the TLB (fetch/load) or after the L2 write probe (store) when the
  // inline clean-hit probe declined.  The slow entry points end in them
  // too.
  std::uint32_t fetch_after_itlb(std::uint32_t addr);
  std::uint32_t load_after_dtlb(std::uint32_t addr);
  std::uint32_t store_after_l2_probe(std::uint32_t addr,
                                     std::uint64_t current_cycle,
                                     std::uint32_t cycles);

  Cache il1_;
  Cache dl1_;
  Cache l2_;
  Tlb itlb_;
  Tlb dtlb_;
  LatencyConfig latency_;
  PerfCounters counters_;
  LineMemo fetch_memo_{il1_, itlb_};
  LineMemo load_memo_{dl1_, dtlb_};
  std::uint64_t store_buffer_free_at_ = 0;
  bool strict_ = false;
};

/// Platform factory: the PROXIMA LEON3 configuration of Section III.A.
/// IL1/DL1 16 KiB 4-way LRU (32-byte lines), DL1 write-through
/// no-write-allocate, unified L2 32 KiB direct-mapped write-back,
/// 64-entry ITLB/DTLB.
HierarchyConfig leon3_hierarchy_config();

/// The same platform with hardware time-randomised caches (random placement
/// + random replacement at every level) — the hardware alternative DSR is
/// designed to substitute (ablation A5).
HierarchyConfig leon3_hw_randomised_config();

} // namespace proxima::mem
