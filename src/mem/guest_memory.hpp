// Sparse 32-bit guest physical memory.
//
// Backing store for the LEON3-class platform model.  SPARC v8 is big-endian;
// all multi-byte accessors use big-endian byte order so that relocated code
// images are bit-exact copies of the originals, as they would be on the real
// target.
//
// Pages live in a directly indexed two-level table: a 1024-entry top array
// indexed by addr >> 22, whose 4 MiB leaves (1024 page pointers each) are
// allocated on first write.  Absent leaves and pages read as zero.  The
// word and byte accessors below are inline so a guest load or store costs
// two table loads instead of an out-of-line hash lookup.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace proxima::mem {

/// Observer of guest-memory mutations.  The fast VM core's decode cache
/// registers one so that any write behind its back — DSR relocation, a
/// static re-link reload, a guest store into code — invalidates the
/// affected predecoded instructions before they can be dispatched again.
class MemoryWriteListener {
public:
  virtual ~MemoryWriteListener() = default;
  /// [addr, addr+length) was (re)written.
  virtual void on_memory_written(std::uint32_t addr, std::uint32_t length) = 0;
  /// The whole address space was dropped (partition image wipe).
  virtual void on_memory_cleared() = 0;
};

class GuestMemory {
public:
  static constexpr std::uint32_t kPageBytes = 4096;

  std::uint8_t read_u8(std::uint32_t addr) const {
    const Page* page = page_if_present(addr);
    return page == nullptr ? 0 : (*page)[addr % kPageBytes];
  }
  std::uint16_t read_u16(std::uint32_t addr) const {
    return static_cast<std::uint16_t>((read_u8(addr) << 8) | read_u8(addr + 1));
  }
  std::uint32_t read_u32(std::uint32_t addr) const {
    const std::uint32_t offset = addr % kPageBytes;
    if (offset > kPageBytes - 4) [[unlikely]] {
      return (static_cast<std::uint32_t>(read_u16(addr)) << 16) |
             read_u16(addr + 2);
    }
    const Page* page = page_if_present(addr);
    return page == nullptr ? 0 : load_be32(page->data() + offset);
  }
  std::uint64_t read_u64(std::uint32_t addr) const {
    return (static_cast<std::uint64_t>(read_u32(addr)) << 32) |
           read_u32(addr + 4);
  }
  double read_f64(std::uint32_t addr) const {
    return std::bit_cast<double>(read_u64(addr));
  }

  void write_u8(std::uint32_t addr, std::uint8_t value) {
    poke_u8(addr, value);
    if (!listeners_.empty()) {
      notify_written(addr, 1);
    }
  }
  void write_u16(std::uint32_t addr, std::uint16_t value);
  void write_u32(std::uint32_t addr, std::uint32_t value) {
    poke_u32(addr, value);
    if (!listeners_.empty()) {
      notify_written(addr, 4);
    }
  }
  void write_u64(std::uint32_t addr, std::uint64_t value) {
    write_u32(addr, static_cast<std::uint32_t>(value >> 32));
    write_u32(addr + 4, static_cast<std::uint32_t>(value));
  }
  void write_f64(std::uint32_t addr, double value) {
    write_u64(addr, std::bit_cast<std::uint64_t>(value));
  }

  /// Copy `length` bytes from `src` to `dst` inside guest memory.  Used by
  /// the DSR runtime's eager relocation loop.  Non-overlapping ranges take
  /// a page-span memmove fast path (the relocation hot loop); overlapping
  /// ranges fall back to the ordered byte loop.
  void copy(std::uint32_t dst, std::uint32_t src, std::uint32_t length);

  /// Store `count` consecutive big-endian words starting at `addr` (the
  /// DSR metadata-table flush).  Exactly equivalent to `count` calls of
  /// write_u32 except that listeners get ONE notification for the whole
  /// span instead of one per word.
  void write_u32_span(std::uint32_t addr, const std::uint32_t* values,
                      std::uint32_t count);

  /// Fill a range with a byte value (e.g. zeroing a fresh pool chunk).
  void fill(std::uint32_t addr, std::uint32_t length, std::uint8_t value);

  /// Bulk load (program images).
  void load(std::uint32_t addr, const std::vector<std::uint8_t>& bytes);

  /// Number of physical pages currently materialised.
  std::size_t resident_pages() const noexcept { return resident_pages_; }

  /// Drop all contents (partition reboot wipes the partition image before
  /// the loader rewrites it).
  void clear();

  /// Register / deregister a mutation observer.  Listeners are notified on
  /// every write; with none registered the notification cost is one branch.
  void add_write_listener(MemoryWriteListener* listener);
  void remove_write_listener(MemoryWriteListener* listener);

private:
  static constexpr std::uint32_t kPageShift = 12;
  static constexpr std::uint32_t kLeafShift = 22; // 4 MiB per leaf
  static constexpr std::uint32_t kLeafPages = 1U << (kLeafShift - kPageShift);
  static_assert(kPageBytes == 1U << kPageShift);

  using Page = std::array<std::uint8_t, kPageBytes>;
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  static std::uint32_t leaf_index(std::uint32_t addr) {
    return (addr >> kPageShift) % kLeafPages;
  }
  static std::uint32_t load_be32(const std::uint8_t* bytes) {
    return (static_cast<std::uint32_t>(bytes[0]) << 24) |
           (static_cast<std::uint32_t>(bytes[1]) << 16) |
           (static_cast<std::uint32_t>(bytes[2]) << 8) |
           static_cast<std::uint32_t>(bytes[3]);
  }

  const Page* page_if_present(std::uint32_t addr) const {
    const Leaf* leaf = top_[addr >> kLeafShift].get();
    return leaf == nullptr ? nullptr : (*leaf)[leaf_index(addr)].get();
  }
  Page& page_for(std::uint32_t addr) {
    if (const Leaf* leaf = top_[addr >> kLeafShift].get()) [[likely]] {
      if (Page* page = (*leaf)[leaf_index(addr)].get()) [[likely]] {
        return *page;
      }
    }
    return materialise(addr);
  }
  /// Allocate the (zeroed) page holding `addr`, and its leaf if needed.
  Page& materialise(std::uint32_t addr);

  void notify_written(std::uint32_t addr, std::uint32_t length) {
    for (MemoryWriteListener* listener : listeners_) {
      listener->on_memory_written(addr, length);
    }
  }

  /// Non-notifying writes used by the public writers and the bulk
  /// operations, which notify once for the whole range instead of once per
  /// byte or word.
  void poke_u8(std::uint32_t addr, std::uint8_t value) {
    page_for(addr)[addr % kPageBytes] = value;
  }
  void poke_u32(std::uint32_t addr, std::uint32_t value) {
    const std::uint32_t offset = addr % kPageBytes;
    if (offset > kPageBytes - 4) [[unlikely]] {
      for (std::uint32_t i = 0; i < 4; ++i) {
        poke_u8(addr + i, static_cast<std::uint8_t>(value >> (24 - 8 * i)));
      }
      return;
    }
    std::uint8_t* bytes = page_for(addr).data() + offset;
    bytes[0] = static_cast<std::uint8_t>(value >> 24);
    bytes[1] = static_cast<std::uint8_t>(value >> 16);
    bytes[2] = static_cast<std::uint8_t>(value >> 8);
    bytes[3] = static_cast<std::uint8_t>(value);
  }

  std::array<std::unique_ptr<Leaf>, 1U << (32 - kLeafShift)> top_{};
  std::size_t resident_pages_ = 0;
  std::vector<MemoryWriteListener*> listeners_;
};

} // namespace proxima::mem
