// Unit tests for the sparse big-endian guest memory.
#include "mem/guest_memory.hpp"
#include "vm/decode.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

namespace {

using proxima::mem::GuestMemory;
using proxima::vm::DecodeCache;

/// The page table's leaves cover 4 MiB each.
constexpr std::uint32_t kLeafBytes = 4U << 20;

/// Records what the bound decode cache sees of a write: a cache over `mem`
/// with every word of [addr, addr+length) decoded.  A write into those
/// pages reaches the cache once (one write event) and resets exactly the
/// slots it covers, so the reset words give back the written span, at
/// word granularity.
class DecodedWindow {
public:
  DecodedWindow(GuestMemory& mem, std::uint32_t addr, std::uint32_t length)
      : cache_(mem), first_(addr & ~3U), last_((addr + length - 1) & ~3U) {
    cache_.predecode_range(first_, last_ - first_ + 4);
  }

  std::uint64_t events() const {
    return cache_.stats().write_invalidation_events;
  }

  /// (first byte, byte count) of the contiguous run of words a write
  /// reset; (0, 0) if none.  Probing re-decodes the window.
  std::pair<std::uint32_t, std::uint32_t> reset_span() {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    for (std::uint32_t pc = first_; pc <= last_; pc += 4) {
      const std::uint64_t decodes = cache_.stats().decodes;
      cache_.at(pc);
      if (cache_.stats().decodes == decodes) {
        continue;
      }
      if (end == 0) {
        begin = pc;
      } else {
        EXPECT_EQ(end, pc) << "the reset words are not contiguous";
      }
      end = pc + 4;
    }
    return {begin, end - begin};
  }

private:
  DecodeCache cache_;
  std::uint32_t first_;
  std::uint32_t last_;
};

/// The word-aligned span covering [addr, addr+length).
std::pair<std::uint32_t, std::uint32_t> word_span(std::uint32_t addr,
                                                  std::uint32_t length) {
  const std::uint32_t first = addr & ~3U;
  return {first, ((addr + length - 1) & ~3U) + 4 - first};
}

TEST(GuestMemory, ZeroInitialised) {
  GuestMemory mem;
  EXPECT_EQ(mem.read_u8(0x1000), 0u);
  EXPECT_EQ(mem.read_u32(0xdeadbeec), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u); // reads do not materialise pages
}

TEST(GuestMemory, ByteRoundTrip) {
  GuestMemory mem;
  mem.write_u8(0x42, 0xab);
  EXPECT_EQ(mem.read_u8(0x42), 0xab);
}

TEST(GuestMemory, WordIsBigEndian) {
  GuestMemory mem;
  mem.write_u32(0x100, 0x11223344);
  EXPECT_EQ(mem.read_u8(0x100), 0x11);
  EXPECT_EQ(mem.read_u8(0x101), 0x22);
  EXPECT_EQ(mem.read_u8(0x102), 0x33);
  EXPECT_EQ(mem.read_u8(0x103), 0x44);
  EXPECT_EQ(mem.read_u32(0x100), 0x11223344u);
}

TEST(GuestMemory, HalfwordRoundTrip) {
  GuestMemory mem;
  mem.write_u16(0x200, 0xbeef);
  EXPECT_EQ(mem.read_u16(0x200), 0xbeef);
  EXPECT_EQ(mem.read_u8(0x200), 0xbe);
}

TEST(GuestMemory, DoublewordRoundTrip) {
  GuestMemory mem;
  mem.write_u64(0x300, 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u64(0x300), 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u32(0x300), 0x01020304u);
  EXPECT_EQ(mem.read_u32(0x304), 0x05060708u);
}

TEST(GuestMemory, DoubleRoundTrip) {
  GuestMemory mem;
  mem.write_f64(0x400, 3.14159265358979);
  EXPECT_DOUBLE_EQ(mem.read_f64(0x400), 3.14159265358979);
  mem.write_f64(0x408, -0.0);
  EXPECT_EQ(std::signbit(mem.read_f64(0x408)), true);
}

TEST(GuestMemory, CrossPageWord) {
  GuestMemory mem;
  const std::uint32_t addr = GuestMemory::kPageBytes - 2;
  mem.write_u32(addr, 0xcafebabe);
  EXPECT_EQ(mem.read_u32(addr), 0xcafebabeu);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(GuestMemory, CopyNonOverlapping) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 64; ++i) {
    mem.write_u8(0x1000 + i, static_cast<std::uint8_t>(i * 3));
  }
  mem.copy(0x2000, 0x1000, 64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(mem.read_u8(0x2000 + i), static_cast<std::uint8_t>(i * 3));
  }
}

TEST(GuestMemory, CopyOverlappingForward) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 16; ++i) {
    mem.write_u8(0x100 + i, static_cast<std::uint8_t>(i));
  }
  mem.copy(0x104, 0x100, 16); // dst > src overlap
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(mem.read_u8(0x104 + i), i);
  }
}

TEST(GuestMemory, CopyOverlappingBackward) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 16; ++i) {
    mem.write_u8(0x100 + i, static_cast<std::uint8_t>(i));
  }
  mem.copy(0xfc, 0x100, 16); // dst < src overlap
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(mem.read_u8(0xfc + i), i);
  }
}

TEST(GuestMemory, FillAndLoad) {
  GuestMemory mem;
  mem.fill(0x500, 32, 0x5a);
  EXPECT_EQ(mem.read_u8(0x500), 0x5a);
  EXPECT_EQ(mem.read_u8(0x51f), 0x5a);
  EXPECT_EQ(mem.read_u8(0x520), 0u);

  mem.load(0x600, {1, 2, 3, 4});
  EXPECT_EQ(mem.read_u32(0x600), 0x01020304u);
}

TEST(GuestMemory, ClearDropsEverything) {
  GuestMemory mem;
  mem.write_u32(0x700, 0x12345678);
  mem.clear();
  EXPECT_EQ(mem.read_u32(0x700), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);
}

TEST(GuestMemory, HighAddressesWork) {
  GuestMemory mem;
  mem.write_u32(0xfffffff8, 0x99aabbcc);
  EXPECT_EQ(mem.read_u32(0xfffffff8), 0x99aabbccu);
}

TEST(GuestMemory, WordAndDoublewordStraddleLeafBoundary) {
  GuestMemory mem;
  mem.write_u32(kLeafBytes - 2, 0x11223344);
  EXPECT_EQ(mem.read_u32(kLeafBytes - 2), 0x11223344u);
  EXPECT_EQ(mem.read_u8(kLeafBytes - 1), 0x22u);
  EXPECT_EQ(mem.read_u8(kLeafBytes), 0x33u); // first byte of the next leaf
  EXPECT_EQ(mem.resident_pages(), 2u);

  // A doubleword whose halves sit in different leaves.
  mem.write_u64(2 * kLeafBytes - 4, 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u64(2 * kLeafBytes - 4), 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u32(2 * kLeafBytes), 0x05060708u);
  // ... and one straddling a plain page boundary inside a leaf.
  mem.write_f64(5 * GuestMemory::kPageBytes - 4, -2.5);
  EXPECT_EQ(mem.read_f64(5 * GuestMemory::kPageBytes - 4), -2.5);
  EXPECT_EQ(mem.resident_pages(), 6u);
}

TEST(GuestMemory, LastPageAndWrapToZero) {
  GuestMemory mem;
  mem.write_u32(0xfffffffc, 0xdeadbeef);
  EXPECT_EQ(mem.read_u32(0xfffffffc), 0xdeadbeefu);
  EXPECT_EQ(mem.read_u8(0xffffffff), 0xefu);
  EXPECT_EQ(mem.resident_pages(), 1u);

  // The word at 0xfffffffe wraps: its low half lands at address 0.
  mem.write_u32(0xfffffffe, 0xaabbccdd);
  EXPECT_EQ(mem.read_u32(0xfffffffe), 0xaabbccddu);
  EXPECT_EQ(mem.read_u8(0xfffffffe), 0xaau);
  EXPECT_EQ(mem.read_u8(0xffffffff), 0xbbu);
  EXPECT_EQ(mem.read_u8(0), 0xccu);
  EXPECT_EQ(mem.read_u8(1), 0xddu);
  EXPECT_EQ(mem.read_u16(0xffffffff), 0xbbccu);
  EXPECT_EQ(mem.resident_pages(), 2u);
  // An absent neighbour of a resident page still reads zero.
  EXPECT_EQ(mem.read_u32(0xffffeffc), 0u);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(GuestMemory, ResidentPagesCountAcrossLeaves) {
  GuestMemory mem;
  for (std::uint32_t leaf = 0; leaf < 4; ++leaf) {
    for (std::uint32_t page = 0; page < 3; ++page) {
      mem.write_u8(leaf * 0x40000000 + page * 0x100000, 1);
      mem.write_u8(leaf * 0x40000000 + page * 0x100000 + 8, 2); // same page
    }
  }
  EXPECT_EQ(mem.resident_pages(), 12u);
  EXPECT_EQ(mem.read_u8(0xc0200000), 1u);
  EXPECT_EQ(mem.read_u8(0xc0300000), 0u);
}

TEST(GuestMemory, ClearReadsZeroAndNotifiesOnce) {
  GuestMemory mem;
  DecodeCache cache(mem);
  mem.write_u32(0x700, 0x12345678);
  mem.write_u32(kLeafBytes * 3 + 0x10, 0x9abcdef0);
  cache.at(0x700);
  cache.at(kLeafBytes * 3 + 0x10);
  ASSERT_EQ(cache.resident_pages(), 2u);
  mem.clear();
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.read_u32(0x700), 0u);
  EXPECT_EQ(mem.read_u32(kLeafBytes * 3 + 0x10), 0u);
  // The table is usable again after a clear.
  mem.write_u8(0x700, 7);
  EXPECT_EQ(mem.read_u8(0x700), 7u);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(cache.stats().write_invalidation_events, 0u);
}

TEST(GuestMemory, LoadAndFillAcrossLeafNotifyOnceWithFullRange) {
  GuestMemory mem;
  const std::uint32_t base = kLeafBytes - 3 * GuestMemory::kPageBytes - 5;
  std::vector<std::uint8_t> bytes(6 * GuestMemory::kPageBytes + 11);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const auto length = static_cast<std::uint32_t>(bytes.size());
  {
    // A word of margin on each side: the write must not reset it.
    DecodedWindow window(mem, base - 4, length + 8);
    mem.load(base, bytes);
    EXPECT_EQ(window.events(), 1u);
    EXPECT_EQ(window.reset_span(), word_span(base, length));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(mem.read_u8(base + static_cast<std::uint32_t>(i)), bytes[i])
        << i;
  }
  EXPECT_EQ(mem.read_u8(base - 1), 0u);
  EXPECT_EQ(mem.resident_pages(), 8u);

  const std::uint32_t fill_base = 2 * kLeafBytes - 10;
  {
    DecodedWindow window(mem, fill_base - 4,
                         2 * GuestMemory::kPageBytes + 8);
    mem.fill(fill_base, 2 * GuestMemory::kPageBytes, 0x5a);
    EXPECT_EQ(window.events(), 1u);
    EXPECT_EQ(window.reset_span(),
              word_span(fill_base, 2 * GuestMemory::kPageBytes));
  }
  EXPECT_EQ(mem.read_u32(2 * kLeafBytes - 4), 0x5a5a5a5au);
  EXPECT_EQ(mem.read_u8(fill_base + 2 * GuestMemory::kPageBytes - 1), 0x5au);
  EXPECT_EQ(mem.read_u8(fill_base + 2 * GuestMemory::kPageBytes), 0u);
}

} // namespace
