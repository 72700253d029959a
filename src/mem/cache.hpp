// Set-associative cache model (tag state + replacement + write policy).
//
// Models the three caches of the PROXIMA LEON3 platform (Section III.A):
//   IL1: 16 KiB, 4-way, LRU, read-only port
//   DL1: 16 KiB, 4-way, LRU, write-through no-write-allocate
//   L2 : 32 KiB, direct-mapped, write-back, unified
//
// Beyond the paper's COTS configuration, the model also supports the
// *hardware-randomised* cache variants that software randomisation is meant
// to substitute (random placement via a seeded hash, random replacement),
// so the ablation benches can put DSR and hardware randomisation
// side by side, as PROXIMA did.
//
// The model is tag-only: data lives in GuestMemory, and counting is the
// caller's.  Each access returns its outcome (`AccessResult`, `Invalidated`)
// and the memory hierarchy books it into `PerfCounters`, the platform's one
// counter set; a cache keeps no statistics of its own.  SPARC's lack of
// instruction/data coherence is modelled with a per-line `stale` bit that
// the hierarchy sets when memory under a valid line is rewritten (e.g. by
// the DSR relocation loop); fetching a stale line is a coherence violation
// unless the invalidation routine (Section III.B.1) has cleared it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace proxima::mem {

enum class Replacement : std::uint8_t { kLru, kRandom };
enum class Placement : std::uint8_t { kModulo, kRandomHash };
enum class WritePolicy : std::uint8_t {
  kWriteThroughNoAllocate,
  kWriteBackAllocate,
};

struct CacheConfig {
  std::string name = "cache";
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4; // 1 => direct-mapped
  Replacement replacement = Replacement::kLru;
  Placement placement = Placement::kModulo;
  WritePolicy write_policy = WritePolicy::kWriteBackAllocate;

  std::uint32_t sets() const { return size_bytes / line_bytes / ways; }
  /// Bytes covered by one way: the address range that maps every line of a
  /// way exactly once.  This is the random-offset range DSR must cover to
  /// randomise this cache's layout (Section III.B.4).
  std::uint32_t way_bytes() const { return size_bytes / ways; }
};

/// Outcome of a single cache access, consumed by the hierarchy to decide
/// what traffic continues downstream.
struct AccessResult {
  bool hit = false;
  bool stale_hit = false; // hit on a line whose backing memory changed
  /// A dirty line was evicted to make room (write-back caches only); the
  /// hierarchy charges a downstream write for it.
  bool writeback = false;
};

/// What an invalidation dropped: the valid lines, and how many of them
/// were dirty (each a write-back the caller charges downstream).
struct Invalidated {
  std::uint32_t lines = 0;
  std::uint32_t dirty = 0;

  Invalidated& operator+=(const Invalidated& other) {
    lines += other.lines;
    dirty += other.dirty;
    return *this;
  }
};

class Cache {
public:
  explicit Cache(CacheConfig config);

  /// Read access (instruction fetch or data load).
  AccessResult read(std::uint32_t addr);

  /// Inline clean-hit probe for the fast VM core.  For a valid, non-stale
  /// line under modulo placement it does exactly what `read` would (the
  /// LRU bump) and returns true.  Otherwise it returns false with NO state
  /// change; the caller must then perform the full `read`.
  bool read_hit_fast(std::uint32_t addr) {
    if (config_.placement != Placement::kModulo) {
      return false;
    }
    const std::uint32_t tag = addr >> line_shift_;
    Line* line = find_in_set(tag & set_mask_, tag);
    if (line == nullptr || line->stale) {
      return false; // a stale hit's coherence bookkeeping needs `read`
    }
    line->last_use = ++use_clock_;
    return true;
  }

  /// Inline write-hit probe, the store-path counterpart of
  /// `read_hit_fast`: does exactly what `write` would on a hit (LRU bump,
  /// dirty bit under write-back) or changes nothing.
  bool write_hit_fast(std::uint32_t addr) {
    if (config_.placement != Placement::kModulo) {
      return false;
    }
    const std::uint32_t tag = addr >> line_shift_;
    Line* line = find_in_set(tag & set_mask_, tag);
    if (line == nullptr) {
      return false;
    }
    line->last_use = ++use_clock_;
    line->stale = false;
    if (config_.write_policy == WritePolicy::kWriteBackAllocate) {
      line->dirty = true;
    }
    return true;
  }

  /// Inline single-line staleness probe: equivalent to `mark_stale` when
  /// the range sits inside one line (every aligned VM store does), falls
  /// back to it otherwise.
  void mark_stale_fast(std::uint32_t addr, std::uint32_t length) {
    if (length != 0 && config_.placement == Placement::kModulo &&
        line_base(addr) == line_base(addr + length - 1)) {
      const std::uint32_t tag = addr >> line_shift_;
      if (Line* line = find_in_set(tag & set_mask_, tag)) {
        line->stale = true;
      }
      return;
    }
    mark_stale(addr, length);
  }

  /// Write access; behaviour depends on the configured write policy.
  /// Write-through no-allocate: hit updates the line, miss changes nothing;
  /// either way the caller forwards the write downstream.
  /// Write-back allocate: miss fills the line; line becomes dirty.
  AccessResult write(std::uint32_t addr);

  /// True if the line holding `addr` is currently valid (no state change).
  bool contains(std::uint32_t addr) const;

  /// True if the line holding `addr` is valid and dirty.
  bool line_dirty(std::uint32_t addr) const;

  /// Invalidate every line intersecting [addr, addr+length).
  Invalidated invalidate_range(std::uint32_t addr, std::uint32_t length);

  /// Invalidate every line intersecting any of `ranges` — sorted by
  /// address and pairwise disjoint (addr, length) pairs.  State- and
  /// count-equivalent to one `invalidate_range` call per range.  When the
  /// ranges span more lines than the cache holds, the tag array is walked
  /// once instead of probing per line address — the reseed fast path for
  /// the DSR invalidation routine over a whole retired layout.
  Invalidated invalidate_ranges(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges);

  /// Invalidate everything (PikeOS flushes write-back caches on partition
  /// start; the caller drains the dirty lines).
  Invalidated invalidate_all();

  /// Mark valid lines intersecting [addr, addr+length) as stale: backing
  /// memory has been modified behind the cache's back (no I/D coherence).
  void mark_stale(std::uint32_t addr, std::uint32_t length);

  /// Re-seed the randomised placement hash / random replacement stream.
  /// Hardware-randomised platforms draw a new seed every run.
  void reseed(std::uint64_t seed);

  const CacheConfig& config() const noexcept { return config_; }

  /// Set index for an address under the configured placement function.
  std::uint32_t set_index(std::uint32_t addr) const;

private:
  struct Line {
    std::uint32_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
    bool stale = false;
  };

  std::uint32_t line_base(std::uint32_t addr) const {
    return addr & ~(config_.line_bytes - 1);
  }
  std::uint32_t tag_of(std::uint32_t addr) const {
    return addr >> line_shift_;
  }
  /// Reconstruct a line's base address from its stored tag.
  std::uint32_t addr_of_tag(std::uint32_t tag) const {
    return tag << line_shift_;
  }

  /// The valid line holding `tag` in `set`, or null.
  Line* find_in_set(std::uint32_t set, std::uint32_t tag) {
    Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        return &base[w];
      }
    }
    return nullptr;
  }
  Line* find_line(std::uint32_t addr) {
    return find_in_set(set_index(addr), tag_of(addr));
  }
  const Line* find_line(std::uint32_t addr) const {
    return const_cast<Cache*>(this)->find_line(addr);
  }
  Line& choose_victim(std::uint32_t set);
  /// Allocate the line holding `addr` over the set's victim; a dirty
  /// victim sets `result.writeback`.
  void fill(std::uint32_t addr, bool dirty, AccessResult& result);
  /// Invalidate one valid line.
  static Invalidated drop(Line& line);
  std::uint32_t next_random();

  CacheConfig config_;
  std::vector<Line> lines_; // sets * ways, row-major by set
  /// Precomputed shift/mask for every set and tag computation (line size
  /// and set count are validated powers of two at construction).
  std::uint32_t line_shift_ = 5;
  std::uint32_t set_mask_ = 0;
  std::uint64_t use_clock_ = 0;
  std::uint64_t hash_seed_ = 0x9e3779b97f4a7c15ULL;
  std::uint32_t rng_state_ = 0x1234567u;
};

} // namespace proxima::mem
