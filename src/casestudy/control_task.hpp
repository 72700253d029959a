// The high-criticality control task of the space case study (Section IV).
//
// The paper's application controls an integrated active-optics instrument:
// the control task "elaborates commands to the actuators controlling mirror
// displacements and is in charge of the interface with the rest of the
// spacecraft".  The real software is proprietary; this generator rebuilds a
// workload with the same published profile (Table I):
//   ~164k instructions per activation, ~2% floating point (~3.5k FPU ops),
//   ~10^2 IL1 misses, ~2k DL1 misses, 17-25% L2 miss ratio, and a small
//   number of function calls relative to total instructions.
//
// Structure (each piece is a separate function, so DSR has real memory
// objects to move; the interface handlers give the per-packet calls that
// account for the paper's ~2% dynamic DSR overhead):
//   control_step       — the unit of analysis (UoA)
//   elaborate_commands — modes-matrix x wavefront, saturation, FIR (FP)
//   process_telemetry  — rolling signature over the telemetry store, byte
//                        window via three mixing variants + word XOR pass
//   chunk_sum_a/b/c    — telemetry mixing variants (leaf, 1 KiB chunks)
//   verify_matrix      — integrity sweep over the modes matrix (called
//                        twice per activation; its DL1 re-misses hit the
//                        warm L2 — the source of the paper's miss ratio)
//   scan_packets       — packet validation, type-dispatched to...
//   validate_t0..t3    — leaf checksum handlers (one call per packet)
//   recover_packets    — rare path: a corrupt packet block is replayed
//                        through a stack-resident scratch window
//
// Measurement protocol notes (mirroring Section IV/V):
//  * PikeOS flushes the L1 caches at partition start; the write-back L2
//    stays warm.  Most of the task's data (modes matrix, telemetry store,
//    packet buffer) is persistent instrument state, so DL1 misses largely
//    re-hit the L2 — giving the 17-25% L2 miss ratios of Table I.
//  * Per activation only a small input set changes: the wavefront vector,
//    one fresh 1 KiB telemetry chunk, and the spacecraft protocol's
//    mode-change packet block.  Staging models a DMA transfer and
//    invalidates what it writes in the caches (no DMA coherence on LEON3).
//
// The *recovery* path is where the paper's "bad and rare cache layout"
// lives: under the COTS link layout (kCotsBad) the protocol packet block is
// exactly L2-congruent with the recovery scratch window on the
// (deterministic) stack, so a corrupt-input activation thrashes the
// direct-mapped L2.  DSR randomises the stack offsets, so the congruence —
// and the long MOET — (almost) never materialises (Section VI).
#pragma once

#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/random_source.hpp"

#include <cstdint>
#include <vector>

namespace proxima::casestudy {

struct ControlParams {
  std::uint32_t actuators = 32;
  std::uint32_t modes = 48;
  std::uint32_t telemetry_bytes = 12288;  // persistent telemetry store
  std::uint32_t telemetry_window = 8192;  // byte-signature window
  std::uint32_t telemetry_chunk = 1024;   // freshly staged per activation
  std::uint32_t packet_words = 2048;      // 8-word packets, 256-word blocks
  /// Fraction of activations whose protocol block carries a corrupt packet.
  double corrupt_rate = 0.08;
  /// The spacecraft protocol's mode-change block: re-staged every
  /// activation, and the only place corruption can appear.
  std::uint32_t protocol_block = 5;
  std::uint32_t recovery_passes = 4;
  double command_limit = 4.0;

  std::uint32_t packet_count() const { return packet_words / 8; }
  std::uint32_t block_words() const { return 256; }
  std::uint32_t block_count() const { return packet_words / block_words(); }
};

/// Known stack geometry of the control program, used by the layout
/// engineering and by tests.
struct ControlStackInfo {
  std::uint32_t main_frame = 96;
  std::uint32_t step_frame = 96;
  std::uint32_t scan_frame = 96;
  /// 96-byte save area + 4 KiB scratch ring + padding chosen so the ring
  /// sits 1 KiB-aligned at stack_top - 5120 under the COTS layout.  With a
  /// 32 KiB-aligned stack top the ring occupies L2 sets for byte offsets
  /// 27648..31743 of the way — which the kCotsBad data map deliberately
  /// shares with the modes matrix.
  std::uint32_t recover_frame = 4928;
  std::uint32_t scratch_ring_bytes = 4096;
  /// Frame offset of the recovery progress checkpoint word.
  std::uint32_t progress_slot = 64;
  /// Base address of the recovery scratch ring for a given stack top under
  /// the NON-randomised (COTS) layout.
  std::uint32_t scratch_addr(std::uint32_t stack_top) const {
    return stack_top - main_frame - step_frame - scan_frame - recover_frame +
           96;
  }
  /// Address of the recovery progress word under the COTS layout: the cell
  /// kCotsBad makes L2-congruent with the telemetry mirror.
  std::uint32_t progress_addr(std::uint32_t stack_top) const {
    return stack_top - main_frame - step_frame - scan_frame - recover_frame +
           progress_slot;
  }
};

/// Build the control program.  Entry is "control_main" (runs one
/// activation then halts); the UoA function is "control_step".
isa::Program build_control_program(const ControlParams& params = {});

enum class Layout : std::uint8_t {
  /// The engineered COTS layout: the protocol packet block is L2-congruent
  /// with the recovery scratch window (the paper's bad-and-rare layout).
  kCotsBad,
  /// A deliberately conflict-free placement (used by ablations).
  kNeutral,
};

/// Link options realising the chosen layout for the given stack top
/// (stack_top must be 1 KiB aligned).
isa::LinkOptions control_layout(const ControlParams& params, Layout layout,
                                std::uint32_t stack_top);

/// The instrument's input/state vector.  `telemetry` and `packets` are the
/// full *effective* persistent state (mirroring guest memory); the dirty
/// fields say what changed since the previous activation and must be
/// staged.
struct ControlInputs {
  std::vector<double> wavefront;
  std::vector<std::uint8_t> telemetry;
  std::vector<std::uint32_t> packets;
  bool corrupt = false;

  std::uint32_t telemetry_dirty_offset = 0;
  std::uint32_t telemetry_dirty_bytes = 0; // 0: nothing to stage
  bool packets_dirty = false;              // protocol block changed
  std::uint32_t chunk_cursor = 0;          // rotation state
};

/// State matching the image's load-time contents (DataObject init).
ControlInputs initial_control_inputs(const ControlParams& params);

/// Mark the WHOLE persistent state dirty, so the next
/// `stage_control_inputs` re-syncs guest memory with the host mirror
/// (shard skip, run boundary of a guest partition): every field that
/// staging consults must be covered here and nowhere else.
void mark_control_inputs_fully_dirty(ControlInputs& inputs);

/// Advance the state for the next activation: fresh wavefront, one fresh
/// telemetry chunk, a re-staged (possibly corrupt) protocol block.
void refresh_control_inputs(rng::RandomSource& random,
                            const ControlParams& params, ControlInputs& io);

/// Write the dirty parts into guest memory DMA-style, invalidating each
/// written range in `hierarchy` as it goes (LEON3 DMA is not
/// cache-coherent).
void stage_control_inputs(mem::GuestMemory& memory,
                          mem::MemoryHierarchy& hierarchy,
                          const isa::LinkedImage& image,
                          const ControlInputs& inputs);

/// Outputs read back after an activation.
struct ControlOutputs {
  std::vector<double> commands;
  std::uint32_t telemetry_signature = 0;
  std::uint32_t packets_ok = 0;
  std::uint32_t recoveries = 0;
  std::uint32_t recovery_accumulator = 0;
  std::uint32_t matrix_signature = 0;
  /// Spacecraft-visible recovery progress mirror (last checkpoint value).
  std::uint32_t recovery_mirror = 0;

  friend bool operator==(const ControlOutputs&, const ControlOutputs&) =
      default;
};

ControlOutputs read_control_outputs(const mem::GuestMemory& memory,
                                    const isa::LinkedImage& image,
                                    const ControlParams& params);

/// Host-side golden model: bit-exact mirror of the guest computation.
ControlOutputs reference_control(const ControlParams& params,
                                 const ControlInputs& inputs);

/// The deterministic modes matrix the generator embeds.
double modes_matrix_entry(const ControlParams& params, std::uint32_t actuator,
                          std::uint32_t mode);

} // namespace proxima::casestudy
