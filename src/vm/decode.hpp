// Predecoded program representation for the fast-dispatch VM core.
//
// A DecodedOp is an isa::Instruction resolved into a flat, dispatch-ready
// form: the opcode collapsed to a dense handler index (the Opcode value
// itself — the enum is already dense), operand fields pre-extracted, and
// the immediate pre-sign-extended.  DecodedOps live in a DecodeCache keyed
// by guest address: 4 KiB pages of 1024 entries, materialised on demand,
// with a one-entry MRU page memo so the dispatch loop's lookup is an index
// computation in the common case.
//
// Coherence: the cache registers itself as a mem::MemoryWriteListener, so
// ANY write into guest memory — the DSR runtime's relocation copies, a
// static re-link reloading the image, a lazy-relocation trap patching the
// function table, or a guest store into code — resets the covered entries
// to "undecoded" before they can be dispatched again.  This is the
// software analogue of the invalidation discipline the paper's runtime
// needs on real SPARC hardware, applied to the host-side decoded form.
#pragma once

#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

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

/// X-macro over every executable opcode, in enum order.  The fast core's
/// computed-goto label table is generated from this list; a static_assert
/// in fast_vm.cpp verifies the order matches the enum values.
#define PROXIMA_VM_FOREACH_OPCODE(X)                                          \
  X(kNop)                                                                     \
  X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kSll) X(kSrl) X(kSra)              \
  X(kMul) X(kDiv) X(kAddcc) X(kSubcc) X(kOrcc)                                \
  X(kAddi) X(kSubi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)      \
  X(kMuli) X(kDivi) X(kAddcci) X(kSubcci) X(kOrlo) X(kSethi)                  \
  X(kLd) X(kLdx) X(kSt) X(kStx) X(kLdb) X(kLdbx) X(kStb) X(kStbx)             \
  X(kLdd) X(kLddx) X(kStd) X(kStdx) X(kLdf) X(kLdfx) X(kStf) X(kStfx)         \
  X(kCall) X(kJmpl)                                                           \
  X(kBa) X(kBn) X(kBe) X(kBne) X(kBg) X(kBle) X(kBge) X(kBl)                  \
  X(kBgu) X(kBleu) X(kBcc) X(kBcs) X(kBpos) X(kBneg)                          \
  X(kFbe) X(kFbne) X(kFbl) X(kFbg) X(kFble) X(kFbge)                          \
  X(kSave) X(kSavex) X(kRestore)                                              \
  X(kFaddd) X(kFsubd) X(kFmuld) X(kFdivd) X(kFsqrtd) X(kFcmpd)                \
  X(kFitod) X(kFdtoi) X(kFmovd) X(kFnegd) X(kFabsd)                           \
  X(kRdtick) X(kIpoint) X(kFlush) X(kHalt) X(kTrapReloc)

/// Address-indexed store of DecodedOps, coherent with guest memory.
class DecodeCache final : public mem::MemoryWriteListener {
public:
  static constexpr std::uint32_t kPageShift = 12; // 4 KiB, 1024 ops
  static constexpr std::uint32_t kOpsPerPage = (1u << kPageShift) / 4;
  /// Pages kept before the cache is dropped wholesale (bounds the decoded
  /// footprint when DSR relocation scatters code across the 32 MiB pool
  /// over thousands of partition reboots).
  static constexpr std::size_t kMaxPages = 1024; // 8 MiB of DecodedOps

  /// Cache activity counters (observability).  All increments live on the
  /// already-slow paths (decode miss, invalidation walk), never in the
  /// dispatch loop's hit path.  NOTE for telemetry consumers: these depend
  /// on cache *state*, which persists across runs within one runner — the
  /// same global run executed by a different worker sharding can hit or
  /// miss differently.  Only `write_invalidation_events` (listener-call
  /// count, a pure function of the guest's writes) is worker-count
  /// deterministic; the rest are reported as wall-class gauges.
  struct Stats {
    std::uint64_t decodes = 0;                  // slots decoded (incl. re-)
    std::uint64_t write_invalidation_events = 0; // on_memory_written calls
    std::uint64_t invalidated_slots = 0;        // decoded slots flipped back
    std::uint64_t full_invalidations = 0;       // wholesale drops
  };

  DecodeCache() = default;
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// The decoded slot for a (word-aligned) pc, decoding on first use.
  /// The returned reference stays valid until the next invalidation.
  const DecodedOp& at(std::uint32_t pc, const mem::GuestMemory& memory) {
    const std::uint32_t index = pc >> kPageShift;
    if (index != mru_index_ || mru_ == nullptr) [[unlikely]] {
      mru_ = &page_slow(index);
      mru_index_ = index;
    }
    DecodedOp& op = mru_->ops[(pc & ((1u << kPageShift) - 1)) >> 2];
    if (op.handler == kUndecodedOp) [[unlikely]] {
      ++stats_.decodes;
      decode_into(op, pc, memory);
    }
    return op;
  }

  /// One-time warm pass: decode every word of [addr, addr+length) up
  /// front (undecodable words become kInvalidOp slots, faulting only if
  /// executed — data interleaved with code must not throw here).
  void predecode_range(const mem::GuestMemory& memory, std::uint32_t addr,
                       std::uint32_t length);

  void invalidate_all();

  /// Reset every decoded slot covering [addr, addr+length), in one walk.
  /// A range that runs past 0xFFFFFFFF wraps to address 0, as the write
  /// that caused it does.  This is the body of on_memory_written without
  /// the listener-event accounting: batching callers (the DSR runtime's
  /// coalesced reseed ranges) invalidate the same slots as the equivalent
  /// per-word notifications, bit-exactly, with one traversal per range
  /// instead of one per store.
  void invalidate_range(std::uint32_t addr, std::uint32_t length);

  /// Decoded pages currently materialised (observability/tests).
  std::size_t resident_pages() const noexcept { return pages_.size(); }

  const Stats& stats() const noexcept { return stats_; }

  // mem::MemoryWriteListener
  void on_memory_written(std::uint32_t addr, std::uint32_t length) override;
  void on_memory_cleared() override { invalidate_all(); }

private:
  struct Page {
    std::array<DecodedOp, kOpsPerPage> ops;
    Page() { ops.fill(DecodedOp{kUndecodedOp, 0, 0, 0, 0}); }
  };

  Page& page_slow(std::uint32_t index);
  static void decode_into(DecodedOp& op, std::uint32_t pc,
                          const mem::GuestMemory& memory);

  std::unordered_map<std::uint32_t, std::unique_ptr<Page>> pages_;
  Page* mru_ = nullptr;
  std::uint32_t mru_index_ = 0xffff'ffff;
  Stats stats_;
};

} // namespace proxima::vm
