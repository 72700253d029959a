// The address-leak beacon guest: the `leak/` scenario family's workload.
//
// A small telemetry-style task that checksums a staged input block and
// publishes a status record — with a deliberate flaw in the default
// variant: the "beacon" field of the status record is the function's own
// return address (%i7), i.e. a relocated code address.  Under DSR that
// single word hands an observer the randomised layout, exactly the
// address-disclosure failure mode that undoes ASLR-style defences; the
// static taint pass (src/analysis/) flags the store at build time and the
// VM's dynamic taint mode confirms it on real runs.  The hardened variant
// stores a build-id constant in the same field and is clean under both.
//
// The beacon field is excluded from the golden-model check on purpose:
// its value depends on the randomised layout, which is precisely what a
// host-side model cannot (and should not) predict — the realistic shape
// of such leaks is an unvalidated "debug" field.
#pragma once

#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"

#include <cstdint>
#include <vector>

namespace proxima::casestudy {

struct LeakParams {
  /// Staged input words checksummed per activation.
  std::uint32_t words = 32;
  /// Checksum passes over the block (scales the UoA's work).
  std::uint32_t rounds = 4;
  /// Store the build-id constant instead of %i7 in the beacon field.
  bool hardened = false;
};

/// The value the hardened variant publishes in the beacon field.
inline constexpr std::uint32_t kLeakHardenedBeacon = 0x1ea4;

/// Build the beacon program.  Entry "leak_main"; the instrumentable UoA is
/// "leak_step".  Observable output object: "lk_status" (16 bytes).
isa::Program build_leak_program(const LeakParams& params = {});

struct LeakInputs {
  std::vector<std::uint32_t> block; // params.words entries

  friend bool operator==(const LeakInputs&, const LeakInputs&) = default;
};

/// Draw one activation's input block (pure function of the rng state).
LeakInputs make_leak_inputs(rng::Mwc& rng, const LeakParams& params);

/// DMA-style staging that invalidates each written range in `hierarchy`,
/// like the other tasks.
void stage_leak_inputs(mem::GuestMemory& memory,
                       mem::MemoryHierarchy& hierarchy,
                       const isa::LinkedImage& image,
                       const LeakInputs& inputs);

struct LeakOutputs {
  std::uint32_t signature = 0;
  std::uint32_t count = 0;
  std::uint32_t version = 0;
  // NOTE: the beacon word (lk_status+4) is deliberately absent — it is the
  // leak channel, unpredictable by design under randomisation.

  friend bool operator==(const LeakOutputs&, const LeakOutputs&) = default;
};

LeakOutputs read_leak_outputs(const mem::GuestMemory& memory,
                              const isa::LinkedImage& image);

/// The raw beacon word (what an observer actually sees).
std::uint32_t read_leak_beacon(const mem::GuestMemory& memory,
                               const isa::LinkedImage& image);

/// Host-side golden model of the checked fields.
LeakOutputs reference_leak(const LeakParams& params, const LeakInputs& inputs);

} // namespace proxima::casestudy
