// Synthetic cache-stressor guest partition for hypervisor campaigns.
//
// The paper measures the control task while other applications share the
// platform; beyond the real image-processing task, the interference study
// needs a *calibrated* worst-ish neighbour.  This guest sweeps a buffer
// larger than the (32 KiB, direct-mapped) L2 at cache-line stride, so one
// activation evicts every L2 set the control task's persistent state
// occupies — the canonical cache-thrashing co-runner of the multicore
// interference literature, reduced to the single-core time-partitioned
// setting (interference through the schedule, not through concurrency).
//
// The sweep is read-only except for its output signature: guest memory is
// left exactly as loaded, so a measured run's platform state stays a pure
// function of the run's own seeds (the campaign determinism contract).
// A per-activation salt word folds into the signature, giving every
// activation a host-checkable result.
#pragma once

#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"

#include <cstdint>

namespace proxima::casestudy {

struct StressorParams {
  /// Swept region; 2x the L2 guarantees full eviction even with the
  /// control task's lines interleaved.
  std::uint32_t buffer_bytes = 64 * 1024;
  /// Touch distance: one L2 line per touch maximises evictions per cycle.
  std::uint32_t stride = 32;
  /// Full sweeps per activation.
  std::uint32_t passes = 2;

  std::uint32_t touches() const { return buffer_bytes / stride; }
};

/// Build the stressor program.  Entry "stress_main"; one activation runs
/// `passes` sweeps and stores the mixed signature.
isa::Program build_stressor_program(const StressorParams& params = {});

/// The deterministic buffer word the generator embeds at word `index`.
std::uint32_t stressor_word(std::uint32_t index);

/// Write the per-activation salt and clear the status word DMA-style,
/// invalidating each written range in `hierarchy` (as for the other
/// tasks).
void stage_stressor_inputs(mem::GuestMemory& memory,
                           mem::MemoryHierarchy& hierarchy,
                           const isa::LinkedImage& image, std::uint32_t salt);

struct StressorOutputs {
  std::uint32_t signature = 0;

  friend bool operator==(const StressorOutputs&, const StressorOutputs&) =
      default;
};

StressorOutputs read_stressor_outputs(const mem::GuestMemory& memory,
                                      const isa::LinkedImage& image);

/// Host-side golden model, bit-exact mirror of the guest sweep.
StressorOutputs reference_stressor(const StressorParams& params,
                                   std::uint32_t salt);

} // namespace proxima::casestudy
