// Directly indexed two-level table of per-page records, keyed by the 4 KiB
// page number of a guest address: a 1024-entry top array of leaves of 1024
// page pointers (4 MiB of guest space each), both allocated on first use.
// A lookup is two dependent loads, with no hash and no call.  Guest memory
// keeps its byte pages in one, with the decode cache's decoded ops hung on
// them, and the taint shadow keeps its pages in another.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

namespace proxima::mem {

inline constexpr std::uint32_t kPageShift = 12;
inline constexpr std::uint32_t kPageBytes = 1U << kPageShift;

constexpr std::uint32_t page_of(std::uint32_t addr) noexcept {
  return addr >> kPageShift;
}

template <typename Page>
class PageTable {
public:
  /// The page at page number `page`, or null.
  Page* find(std::uint32_t page) const noexcept {
    const Leaf* leaf = top_[page >> kLeafBits].get();
    return leaf == nullptr ? nullptr : (*leaf)[page & kLeafMask].get();
  }
  /// The slot of page number `page` (its leaf allocated if needed), for
  /// the caller to install or take a page.
  std::unique_ptr<Page>& slot(std::uint32_t page) {
    std::unique_ptr<Leaf>& leaf = top_[page >> kLeafBits];
    if (leaf == nullptr) {
      leaf = std::make_unique<Leaf>();
    }
    return (*leaf)[page & kLeafMask];
  }
  /// Free every page and leaf.
  void clear() noexcept { top_ = {}; }

private:
  static constexpr std::uint32_t kLeafBits = 10;
  static constexpr std::uint32_t kLeafMask = (1U << kLeafBits) - 1;
  using Leaf = std::array<std::unique_ptr<Page>, 1U << kLeafBits>;

  std::array<std::unique_ptr<Leaf>, 1U << (32 - kPageShift - kLeafBits)>
      top_{};
};

} // namespace proxima::mem
