// The measured target of a campaign: the program whose unit of analysis
// the protocol instruments, randomises, measures and verifies.
//
// PR 1-4 hard-coded "the control task is the thing we measure" into the
// campaign runner; this interface extracts everything that was
// control-task-specific — program generation + UoA instrumentation, the
// engineered link layout, the per-activation input mirror, DMA-style
// staging, and the golden-model check — so that any registered task can be
// the unit of analysis.  The runner (campaign_runner.cpp / hv_runner.cpp)
// keeps the parts that are target-INdependent: seed derivation, the
// randomisation arms, the flush/warm-up/measure protocol, the cyclic
// schedule and the trace extraction.
//
// Two implementations ship:
//   ControlTarget — the paper's high-criticality control task
//                   (UoA `control_step`): constant work per activation,
//                   streamed persistent instrument state (telemetry
//                   rotation, protocol block) replayed across shard skips;
//   ImageTarget   — the image-processing task (UoA `image_step`): a fresh
//                   sensor frame per activation, no persistent state, and
//                   — the property that makes it the second case-study
//                   axis — *input-dependent duration* (only the lit ~70%
//                   of lenses are processed, so operation-mode times vary
//                   with the input, not just the platform).
//
// Determinism contract (inherited from campaign_runner.hpp): every method
// must be a pure function of (config, activation index) — a target draws
// randomness only from generators seeded via `exec::derive_run_seed`, so
// two runner instances advancing a target over the same ascending
// activation sequence stage bit-identical guest state.
#pragma once

#include "casestudy/campaign.hpp"
#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "rng/mwc.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace proxima::casestudy {

/// Stack top of the measured program on the measurement platform (1 KiB
/// aligned), whichever target it is.  Shared by the bare protocol and the
/// hypervisor campaign's warm-up/measured partition: the test-locked
/// hv/control-solo == control/analysis-cots bit-equivalence depends on
/// both using it.
inline constexpr std::uint32_t kControlStackTop = 0x4080'0000;

class MeasuredTarget {
public:
  virtual ~MeasuredTarget() = default;

  virtual MeasuredTargetKind kind() const noexcept = 0;
  /// Report label: "control" / "image".
  std::string_view name() const noexcept {
    return measured_target_name(kind());
  }
  /// The instrumented unit-of-analysis symbol ("control_step" /
  /// "image_step").
  virtual const char* uoa_symbol() const noexcept = 0;
  /// Documented workload property: does one activation's duration depend
  /// on the input VALUES (not just the platform state)?  True for the
  /// image task (lit-lens selection); false for the control task (constant
  /// work, only the corrupt-packet recovery path varies).  Analysis-mode
  /// campaigns over an input-dependent target should pin the inputs
  /// (`CampaignConfig::fixed_inputs`) so MBPTA sees platform variability
  /// only.
  virtual bool input_dependent_duration() const noexcept = 0;

  /// Build the target program with its UoA instrumented.  The runner
  /// applies the DSR pass on top for kDsr campaigns.
  virtual isa::Program build_program() const = 0;
  /// Link options realising the configured base layout (the engineered
  /// COTS/neutral placement for the control task; the plain sequential
  /// layout for the image task).  The runner overlays
  /// `CampaignConfig::function_order` afterwards.
  virtual isa::LinkOptions layout_options() const = 0;

  /// Advance the host-side input mirror to global activation `activation`.
  /// Called with strictly ascending indices per runner; replays any
  /// skipped refreshes so persistent state matches the sequential
  /// protocol (shard-skip contract).
  virtual void advance_inputs(std::uint64_t activation) = 0;
  /// Write the current activation's inputs into guest memory DMA-style.
  /// `full_resync` forces the complete persistent state (after a shard
  /// skip or a re-flash the incremental dirty ranges no longer cover the
  /// guest/mirror difference).  Returns the staged (addr, length) ranges;
  /// the caller invalidates them in the cache hierarchy (LEON3 DMA is not
  /// cache-coherent).
  virtual std::vector<std::pair<std::uint32_t, std::uint32_t>>
  stage_inputs(mem::GuestMemory& memory, const isa::LinkedImage& image,
               bool full_resync) = 0;
  /// Whether the staged activation carries the corrupt-input variant
  /// (sample labelling; always false for targets without a corruption
  /// concept).
  virtual bool corrupt_input() const noexcept { return false; }
  /// Golden-model check of the last measured activation's outputs; false
  /// on divergence (the runner turns it into a campaign fault).
  virtual bool verify(const mem::GuestMemory& memory,
                      const isa::LinkedImage& image) const = 0;

  /// Data symbols that make up the target's externally observable output —
  /// the record another partition, the telemetry downlink or the host
  /// reads back.  These become the *sinks* of the address-leak analysis
  /// (static pass and dynamic taint mode): a layout-derived value stored
  /// into one of these objects is a leak (ISSUE/ROADMAP item 4).
  virtual std::vector<std::string> observable_symbols() const = 0;
};

/// Target for `config.measured`.  The returned target keeps a reference to
/// `config`, which must outlive it (the runner owns both).
std::unique_ptr<MeasuredTarget> make_measured_target(
    const CampaignConfig& config);

} // namespace proxima::casestudy
