// The DSR runtime system — the run-time half of the paper's contribution.
//
// Responsibilities (Section III.B):
//   * at program start-up (and at every partition reboot), place each
//     function at a fresh random location drawn from a HeapLayers-style
//     code pool whose chunks start at a random offset within the L2 way
//     size — randomising the layout of every cache level and both TLBs;
//   * run the SPARC-v8-compliant invalidation routine after each copy,
//     because SPARC has no instruction/data coherence: stale IL1/L2 lines
//     covering the touched ranges must be written back and invalidated;
//   * initialise the per-function stack-offset table with random positive
//     multiples of 8 (doubleword alignment) below the way size;
//   * in the lazy scheme, answer first-call relocation traps (the paper's
//     port prefers the eager scheme; both are provided so the trade-off
//     can be measured).
#pragma once

#include "alloc/pool.hpp"
#include "core/dsr_pass.hpp"
#include "isa/linker.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/random_source.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace proxima::dsr {

struct RuntimeOptions {
  /// Random-offset range.  The paper sets it to the *L2* way size (32 KiB):
  /// because the L1 way size divides it, one draw randomises the layout of
  /// the whole hierarchy (Section III.B.4).  The ablation bench shrinks it
  /// to the L1 way size (4 KiB) to show what that would lose.
  std::uint32_t offset_range = 32 * 1024;
  /// SPARC doubleword alignment for code and stack offsets.
  std::uint32_t alignment = 8;
  /// Pool chunk alignment: the platform's largest way size (the L2's),
  /// fixed regardless of the offset range under test, so the offset range
  /// alone controls how much of each cache's layout is randomised.
  std::uint32_t chunk_align = 32 * 1024;
  /// Eager relocation (all functions moved before execution) vs lazy
  /// (first-call trap).  Eager is what the paper's port implements.
  bool eager = true;
  /// Disable to isolate stack-offset randomisation (ablation A3).
  bool randomise_code = true;
  /// Disable to isolate code randomisation (ablation A3).
  bool randomise_stack = true;
  /// The cache invalidation routine of Section III.B.1.  Disabling it is a
  /// *failure injection*: stale-line fetches become coherence violations.
  bool run_invalidation_routine = true;
  /// MARDU-style reseed fast path: stage the metadata tables host-side and
  /// flush them as bulk word spans, and run the invalidation routine once
  /// over the coalesced touched ranges instead of per store.  Bit-identical
  /// to the per-word path (same RNG draws, same final memory/cache state,
  /// same Stats); disable to run the original per-word sequence, which the
  /// differential tests and bench compare against.
  bool batched_relocation = true;
  /// Guest region backing the code pool.  It must be disjoint from the
  /// linked image's code and data sections; `DsrRuntime` rejects an
  /// overlap with `DsrError`.
  alloc::Region code_pool{0x4100'0000, 32 * 1024 * 1024};
};

/// Guest cycles per copied word charged to a lazy first-call relocation
/// and to an on-demand reseed's copy loop.
inline constexpr std::uint32_t kLazyCopyCyclesPerWord = 2;

class DsrRuntime {
public:
  struct Stats {
    std::uint64_t reseeds = 0; // initialise() + every rerandomise()
    std::uint64_t ondemand_reseeds = 0; // rerandomise_on_demand() calls
    std::uint64_t relocations = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t lines_invalidated = 0;
    std::uint64_t lazy_traps = 0;
    std::uint64_t lazy_cycles = 0; // guest cycles charged to lazy traps
  };

  DsrRuntime(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
             const isa::LinkedImage& image, rng::RandomSource& random,
             RuntimeOptions options = {});

  /// Start-up: build this run's random layout and fill the metadata
  /// tables.  Must run after the image is loaded, before execution.
  void initialise();

  /// Partition reboot: drop the previous layout and draw a fresh one from
  /// the continuing random stream.  Each call yields a new memory layout,
  /// which is how the measurement protocol obtains execution-time
  /// randomisation across runs (Section IV).
  void rerandomise();

  /// Mid-run reseed (the kDsrOnDemand arm): draw a fresh layout WITHOUT a
  /// partition reboot.  The outgoing copies are quarantined, not freed —
  /// in-flight guest code keeps executing its current (bit-identical) copy
  /// and picks up the new layout at its next function-table load, so no
  /// cache line over the old copies is invalidated (they are still valid
  /// code).  The new copies and the rewritten tables go through the same
  /// batched invalidation routine as a reboot.  Quarantined chunks are
  /// released (and their lines invalidated) by the next initialise().
  /// Returns the guest cycle charge for the copy loop, mirroring the lazy
  /// trap cost model (`kLazyCopyCyclesPerWord` per copied word).
  std::uint64_t rerandomise_on_demand();

  /// Register the lazy-relocation trap handler on a core.
  void attach(vm::Vm& cpu);

  /// Where to start executing the program under this run's layout.
  std::uint32_t entry_address() const;

  /// Current address of function `id` (stub address if not yet relocated
  /// in the lazy scheme).
  std::uint32_t function_address(std::uint32_t id) const;
  std::uint32_t function_address(const std::string& name) const;

  /// This run's stack offset for function `id` (0 without a prologue or
  /// with stack randomisation disabled).
  std::uint32_t stack_offset(std::uint32_t id) const;

  /// Number of real (non-stub) functions under management.
  std::uint32_t managed_functions() const;

  const Stats& stats() const noexcept { return stats_; }
  const RuntimeOptions& options() const noexcept { return options_; }

private:
  void relocate(std::uint32_t id);
  std::uint64_t handle_lazy_trap(std::uint32_t id);
  void write_table_u32(std::uint32_t table_addr, std::uint32_t id,
                       std::uint32_t value);
  bool is_real(std::uint32_t id) const;

  /// The original reseed sequence: per-word table stores, one invalidation
  /// routine call per touched range, in draw order.  Kept as the
  /// differential baseline for the batched path.
  void initialise_per_word();
  /// Draw the new layout (stack offsets + relocations), staging table
  /// values host-side and collecting invalidation ranges.  Consumes the
  /// random stream in exactly the per-word order: per real function, the
  /// stack-offset draw, then the pool draws.
  void draw_layout();
  void relocate_batched(const isa::FunctionRecord& record);
  /// Flush one staged table as bulk word spans over the contiguous runs of
  /// ids written this round (one memory notification per run).
  void flush_table(std::uint32_t table_addr,
                   const std::vector<std::uint32_t>& values);
  /// Sort + coalesce the pending ranges (merging only adjacent/overlapping
  /// ranges) and run the invalidation routine once per merged range.  The
  /// line count is identical to per-range invalidation: a line, once
  /// invalidated, is never re-validated within one reseed, so each valid
  /// line in the union is counted exactly once either way.
  void flush_invalidations();

  mem::GuestMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  const isa::LinkedImage& image_;
  rng::RandomSource& random_;
  RuntimeOptions options_;

  alloc::PageAllocator pages_;
  alloc::RandomObjectPool pool_;

  std::uint32_t functab_addr_ = 0;
  std::uint32_t stackoff_addr_ = 0;
  std::uint32_t entry_id_ = 0;
  std::vector<std::uint32_t> current_address_; // per id
  std::vector<std::uint32_t> stack_offsets_;   // per id
  std::vector<bool> relocated_;                // per id (lazy bookkeeping)
  /// Chunks handed out in the current round; their cache lines are
  /// invalidated on the next reboot (they go back to the pool, and stale
  /// code lines must never linger in the warm L2).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> live_chunks_;
  /// Chunks displaced by an on-demand reseed: still valid code (in-flight
  /// guest execution may be inside them), still allocated in the pool, so
  /// nothing rewrites them until the next reboot releases everything.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> quarantined_chunks_;
  std::vector<std::optional<std::uint32_t>> stub_of_; // id -> stub id
  // Batched-reseed staging (reused across reseeds to avoid reallocating).
  std::vector<std::uint32_t> staged_functab_;
  std::vector<std::uint32_t> staged_stackoff_;
  std::vector<bool> staged_valid_; // ids whose table slots get written
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_ranges_;
  Stats stats_;
  bool initialised_ = false;
};

} // namespace proxima::dsr
