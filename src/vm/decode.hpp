// Predecoded program representation for the fast-dispatch VM core.
//
// A DecodedOp is an isa::Instruction resolved into a flat, dispatch-ready
// form: the opcode collapsed to a dense handler index (the Opcode value
// itself — the enum is already dense), operand fields pre-extracted, and
// the immediate pre-sign-extended.  A DecodeCache holds them in pages of
// 1024 slots, one per 4 KiB guest page, which it hangs on the pages of the
// guest memory it decodes (mem/guest_memory.hpp), with a one-entry MRU page
// memo so the dispatch loop's lookup is an index computation in the common
// case.
//
// Coherence: ANY write into a guest page that holds decoded ops — DSR
// relocation, a static re-link reload, a lazy-trap table patch, a guest
// store into code — resets the covered slots to "undecoded" before they can
// be dispatched again: the software analogue of the invalidation
// discipline the paper's runtime needs on real SPARC hardware.  Pages
// dropped at kMaxPages go to a free list; a recycled page is reset only
// over the slot range it decoded.
#pragma once

#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace proxima::vm {

/// One predecoded instruction slot (8 bytes).
struct DecodedOp {
  /// Dense handler index: the isa::Opcode value, or one of the sentinels.
  std::uint8_t handler = 0;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

/// Sentinel handlers (outside the valid opcode range).
inline constexpr std::uint8_t kUndecodedOp = 0xff; // slot not decoded yet
inline constexpr std::uint8_t kInvalidOp = 0xfe;   // word failed to decode
static_assert(static_cast<std::uint8_t>(isa::Opcode::kOpcodeCount) <
              kInvalidOp);

/// The decoded ops of one 4 KiB guest page.
struct DecodedPage {
  static constexpr std::uint32_t kSlots = mem::kPageBytes / 4;
  std::array<DecodedOp, kSlots> ops;
  std::uint32_t number = 0; // guest page number it is hung on
  // [first, last) covers every slot decoded since the page was hung; each
  // slot outside holds kUndecodedOp.
  std::uint32_t first = kSlots;
  std::uint32_t last = 0;
  DecodedPage() { ops.fill(DecodedOp{kUndecodedOp, 0, 0, 0, 0}); }
};

/// Address-indexed store of DecodedOps, coherent with one guest memory.
class DecodeCache {
public:
  static constexpr std::uint32_t kPageShift = mem::kPageShift;
  static constexpr std::uint32_t kOpsPerPage = DecodedPage::kSlots;
  /// Pages kept before the cache is dropped wholesale (bounds the decoded
  /// footprint when DSR relocation scatters code across the 32 MiB pool
  /// over thousands of partition reboots; DESIGN §3.1 sizes it).
  static constexpr std::size_t kMaxPages = 128; // 1 MiB of DecodedOps

  /// Cache activity counters (observability).  All increments live on the
  /// already-slow paths (decode miss, invalidation walk), never in the
  /// dispatch loop's hit path.  They depend on cache *state*, which
  /// persists across the runs of one runner, so they are gauge-class.
  struct Stats {
    std::uint64_t decodes = 0;                  // slots decoded (incl. re-)
    std::uint64_t write_invalidation_events = 0; // writes into decoded pages
    std::uint64_t invalidated_slots = 0;        // decoded slots flipped back
    std::uint64_t full_invalidations = 0;       // wholesale drops
  };

  /// Decode out of `memory`, bound to it (one cache per memory).
  explicit DecodeCache(mem::GuestMemory& memory);
  ~DecodeCache();
  DecodeCache(const DecodeCache&) = delete; // the memory holds its address
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// The decoded slot for a (word-aligned) pc, decoding on first use.
  /// The returned reference stays valid until the next invalidation.
  const DecodedOp& at(std::uint32_t pc) {
    const std::uint32_t index = pc >> kPageShift;
    if (index != mru_index_ || mru_ == nullptr) [[unlikely]] {
      mru_ = &page_slow(index);
      mru_index_ = index;
    }
    const std::uint32_t slot = (pc & ((1u << kPageShift) - 1)) >> 2;
    DecodedOp& op = mru_->ops[slot];
    if (op.handler == kUndecodedOp) [[unlikely]] {
      decode_slot(*mru_, slot, pc);
    }
    return op;
  }

  /// One-time warm pass: decode every word of [addr, addr+length) up
  /// front (undecodable words become kInvalidOp slots, faulting only if
  /// executed — data interleaved with code must not throw here).
  void predecode_range(std::uint32_t addr, std::uint32_t length);

  /// Drop every page onto the free list.
  void invalidate_all();
  /// Reset every decoded slot covering [addr, addr+length), in one walk;
  /// a range past 0xFFFFFFFF wraps to 0, as the write behind it does.
  void invalidate_range(std::uint32_t addr, std::uint32_t length);

  /// Decoded pages currently hung on guest pages (observability/tests).
  std::size_t resident_pages() const noexcept { return mapped_.size(); }

  const Stats& stats() const noexcept { return stats_; }

private:
  friend class mem::GuestMemory; // on a write into a flagged page
  void memory_written(std::uint32_t addr, std::uint32_t length);

  DecodedPage& page_slow(std::uint32_t index);
  void decode_slot(DecodedPage& page, std::uint32_t slot, std::uint32_t pc);

  mem::GuestMemory& memory_;
  std::vector<std::unique_ptr<DecodedPage>> mapped_; // hung on guest pages
  std::vector<std::unique_ptr<DecodedPage>> free_;   // dropped, for reuse
  DecodedPage* mru_ = nullptr;
  std::uint32_t mru_index_ = 0xffff'ffff;
  Stats stats_;
};

} // namespace proxima::vm
