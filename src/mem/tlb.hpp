// Translation look-aside buffer model.
//
// The PROXIMA LEON3 platform has 64-entry instruction and data TLBs
// (Section III.A).  The DSR allocator draws code and data from pools made of
// a "diverse set of pages" precisely so that these TLBs are randomised too
// (Section III.B.5).  Translation is identity (the case study runs in a
// single flat address space, as on the bare-metal partition); the TLB only
// contributes timing: a miss costs a fixed table-walk penalty, which the
// memory hierarchy charges and counts.  The TLB keeps tag state only.
#pragma once

#include <cstdint>
#include <vector>

namespace proxima::mem {

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;
};

class Tlb {
public:
  /// Throws std::invalid_argument unless `entries >= 1` and `page_bytes`
  /// is a power of two.
  explicit Tlb(TlbConfig config = {});

  /// Touch the page holding `addr`; returns true on hit.  Fully associative
  /// with LRU replacement, matching the SRMMU per-context TLB behaviour
  /// closely enough for timing purposes.
  bool access(std::uint32_t addr);

  /// Inline hit-path probe for the fast VM core: a most-recently-used
  /// memo that resolves the overwhelmingly common same-page access without
  /// the full associative scan.  A memo hit needs no LRU stamp: the MRU
  /// entry already carries the newest one (only `access` stamps, and it
  /// makes the entry it stamps the MRU), so a further stamp would change
  /// no replacement decision.  Interchangeable with `access`
  /// access-for-access; the differential VM suite relies on that.
  bool access_fast(std::uint32_t addr) {
    if (mru_index_ != kNoMru) {
      const Entry& entry = entries_[mru_index_];
      if (entry.valid && entry.page == (addr >> page_shift_)) {
        return true;
      }
    }
    return access(addr);
  }

  /// True if the page holding `addr` is resident (no state change).
  bool contains(std::uint32_t addr) const;

  void flush();

  const TlbConfig& config() const noexcept { return config_; }

private:
  struct Entry {
    std::uint32_t page = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  static constexpr std::uint32_t kNoMru = 0xffff'ffff;

  TlbConfig config_;
  std::vector<Entry> entries_;
  std::uint64_t use_clock_ = 0;
  /// Index of the entry touched by the last access.  Only a memo:
  /// correctness never depends on it, and flush() drops it.  Stored as an
  /// index (not a pointer) so the default copy stays valid.
  std::uint32_t mru_index_ = kNoMru;
  std::uint32_t page_shift_ = 12;
};

} // namespace proxima::mem
