// Sparse 32-bit guest physical memory.
//
// Backing store for the LEON3-class platform model.  SPARC v8 is big-endian;
// all multi-byte accessors use big-endian byte order so that relocated code
// images are bit-exact copies of the originals, as they would be on the real
// target.
//
// Pages live in a mem::PageTable: absent pages read as zero, and only writes
// materialise them.  The word and byte accessors are inline, so a guest load
// or store costs two table loads.  A page also holds the fast core's decoded
// ops for it, if any: the vm::DecodeCache bound to this memory keeps its
// pages here.  A write into a page that has decoded ops resets the slots it
// covers, so every writer (guest store, DSR relocation, re-link reload,
// lazy-trap patch) keeps decoded code coherent; a write into any other page
// makes no call.
#pragma once

#include "mem/page_table.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace proxima::vm { // vm/decode.hpp
class DecodeCache;
struct DecodedPage;
} // namespace proxima::vm

namespace proxima::mem {

class GuestMemory {
public:
  static constexpr std::uint32_t kPageBytes = mem::kPageBytes;

  GuestMemory() = default;
  GuestMemory(const GuestMemory&) = delete; // a bound cache holds its address
  GuestMemory& operator=(const GuestMemory&) = delete;

  std::uint8_t read_u8(std::uint32_t addr) const {
    const Page* page = pages_.find(page_of(addr));
    return page == nullptr ? 0 : page->bytes[addr % kPageBytes];
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
    const Page* page = pages_.find(page_of(addr));
    return page == nullptr ? 0 : load_be32(page->bytes.data() + offset);
  }
  std::uint64_t read_u64(std::uint32_t addr) const {
    return (static_cast<std::uint64_t>(read_u32(addr)) << 32) |
           read_u32(addr + 4);
  }
  double read_f64(std::uint32_t addr) const {
    return std::bit_cast<double>(read_u64(addr));
  }

  void write_u8(std::uint32_t addr, std::uint8_t value) {
    if (poke_u8(addr, value)) [[unlikely]] {
      reset_decoded(addr, 1);
    }
  }
  void write_u16(std::uint32_t addr, std::uint16_t value) {
    if (poke_u8(addr, static_cast<std::uint8_t>(value >> 8)) |
        poke_u8(addr + 1, static_cast<std::uint8_t>(value))) {
      reset_decoded(addr, 2);
    }
  }
  void write_u32(std::uint32_t addr, std::uint32_t value) {
    if (poke_u32(addr, value)) [[unlikely]] {
      reset_decoded(addr, 4);
    }
  }
  void write_u64(std::uint32_t addr, std::uint64_t value) {
    write_u32(addr, static_cast<std::uint32_t>(value >> 32));
    write_u32(addr + 4, static_cast<std::uint32_t>(value));
  }
  void write_f64(std::uint32_t addr, double value) {
    write_u64(addr, std::bit_cast<std::uint64_t>(value));
  }

  /// Copy `length` bytes from `src` to `dst` inside guest memory, with
  /// memmove semantics.  Used by the DSR runtime's eager relocation loop,
  /// whose non-overlapping ranges take a page-span memcpy path.
  void copy(std::uint32_t dst, std::uint32_t src, std::uint32_t length);

  /// Store `count` consecutive big-endian words starting at `addr` (the
  /// DSR metadata-table flush).  Exactly equivalent to `count` calls of
  /// write_u32, except that decoded slots are reset once for the whole
  /// span, as by copy, fill and load.
  void write_u32_span(std::uint32_t addr, const std::uint32_t* values,
                      std::uint32_t count);

  /// Fill a range with a byte value (e.g. zeroing a fresh pool chunk).
  void fill(std::uint32_t addr, std::uint32_t length, std::uint8_t value);

  /// Bulk load (program images).
  void load(std::uint32_t addr, const std::vector<std::uint8_t>& bytes);

  /// Number of physical pages currently materialised.
  std::size_t resident_pages() const noexcept { return resident_pages_; }

  /// Drop all contents (partition reboot wipes the partition image before
  /// the loader rewrites it); a bound decode cache drops every page too.
  void clear();

  /// For vm::DecodeCache: bind (null: unbind) the one cache kept coherent
  /// with this memory (std::logic_error if one is bound), and reach the
  /// decoded ops of page number `page`: null if it has none, and the slot
  /// to install them in (which materialises the page).
  void bind_decode_cache(vm::DecodeCache* cache);
  vm::DecodedPage* decoded(std::uint32_t page) const {
    const Page* present = pages_.find(page);
    return present == nullptr ? nullptr : present->decoded;
  }
  vm::DecodedPage*& decoded_slot(std::uint32_t page) {
    return page_for(page << kPageShift).decoded;
  }

private:
  struct Page {
    std::array<std::uint8_t, kPageBytes> bytes{}; // zeroed when created
    vm::DecodedPage* decoded = nullptr; // owned by the bound DecodeCache
  };

  static std::uint32_t load_be32(const std::uint8_t* bytes) {
    return (static_cast<std::uint32_t>(bytes[0]) << 24) |
           (static_cast<std::uint32_t>(bytes[1]) << 16) |
           (static_cast<std::uint32_t>(bytes[2]) << 8) |
           static_cast<std::uint32_t>(bytes[3]);
  }

  Page& page_for(std::uint32_t addr) {
    if (Page* page = pages_.find(page_of(addr))) [[likely]] {
      return *page;
    }
    return materialise(addr);
  }
  /// Allocate the (zeroed) page holding `addr`.
  Page& materialise(std::uint32_t addr);

  /// The bound cache resets its slots over [addr, addr+length).
  void reset_decoded(std::uint32_t addr, std::uint32_t length);
  /// `write(bytes, done, span)` per page span of [addr, addr+length).
  template <typename Write>
  void write_spans(std::uint32_t addr, std::uint32_t length, Write write);

  /// Raw writes; each returns whether the page it wrote has decoded ops.
  bool poke_u8(std::uint32_t addr, std::uint8_t value) {
    Page& page = page_for(addr);
    page.bytes[addr % kPageBytes] = value;
    return page.decoded != nullptr;
  }
  bool poke_u32(std::uint32_t addr, std::uint32_t value) {
    const std::uint32_t offset = addr % kPageBytes;
    if (offset > kPageBytes - 4) [[unlikely]] {
      bool decoded = false;
      for (std::uint32_t i = 0; i < 4; ++i) {
        decoded |=
            poke_u8(addr + i, static_cast<std::uint8_t>(value >> (24 - 8 * i)));
      }
      return decoded;
    }
    Page& page = page_for(addr);
    std::uint8_t* bytes = page.bytes.data() + offset;
    bytes[0] = static_cast<std::uint8_t>(value >> 24);
    bytes[1] = static_cast<std::uint8_t>(value >> 16);
    bytes[2] = static_cast<std::uint8_t>(value >> 8);
    bytes[3] = static_cast<std::uint8_t>(value);
    return page.decoded != nullptr;
  }

  PageTable<Page> pages_;
  std::size_t resident_pages_ = 0;
  vm::DecodeCache* decode_ = nullptr;
};

} // namespace proxima::mem
