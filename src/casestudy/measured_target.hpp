// The guest programs of the case study as the campaign runs them: one
// `Task` per program — the control task, the image-processing task, the
// address-leak beacon and the synthetic stressor.
//
// A task is everything program-specific: its program and unit of analysis
// (UoA), its base link layout, its host-side input state, one activation's
// input draw, DMA-style staging into guest memory, and the golden-model
// check of the outputs.  The same task object serves both roles a program
// plays:
//   measured target — the program whose UoA the campaign instruments,
//                     randomises, measures and verifies
//                     (`CampaignConfig::measured`); its input policy —
//                     pinned inputs, replay across shard skips, restart
//                     after a re-flash — is `CampaignRunner::advance_inputs`
//                     (campaign_runner.cpp);
//   hv guest        — an interference partition of a hypervisor campaign,
//                     drawing a fresh activation every minor frame from its
//                     own partition stream (`GuestApp`, hv_runner.cpp).
// The runner keeps the parts that are task-independent: seed derivation,
// the randomisation arms, the flush/warm-up/measure protocol, the cyclic
// schedule and the trace extraction.
//
// Determinism contract (inherited from campaign_runner.hpp): a task draws
// randomness only from the generator it is handed, which the caller seeds
// from `exec::derive_run_seed` (measured) or `exec::derive_partition_seed`
// (guest), so every activation's inputs are a pure function of its index.
#pragma once

#include "casestudy/campaign.hpp"
#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace proxima::casestudy {

/// Stack top of the measured program on the measurement platform (1 KiB
/// aligned), whichever task it is.  Shared by the bare protocol and the
/// hypervisor campaign's warm-up/measured partition: the test-locked
/// hv/control-solo == control/analysis-cots bit-equivalence depends on
/// both using it.
inline constexpr std::uint32_t kControlStackTop = 0x4080'0000;

class Task {
public:
  virtual ~Task() = default;

  /// The program as a guest partition runs it (nothing instrumented).
  virtual isa::Program program() const = 0;
  /// The unit-of-analysis function ("control_step", "image_step", ...).
  virtual const char* uoa_symbol() const noexcept = 0;
  /// The measured program: `program()` with the UoA instrumented.  The
  /// runner applies the DSR pass on top for DSR campaigns.
  isa::Program build_program() const;
  /// Link options realising the base layout: the engineered COTS/neutral
  /// placement for the control task, the linker's plain sequential layout
  /// for the others.  The runner overlays `CampaignConfig::function_order`.
  virtual isa::LinkOptions layout_options() const { return {}; }
  /// Whether guest state persists across activations (only the control
  /// task: its telemetry rotation and protocol block).  A stateless task
  /// stages a complete activation every time.
  virtual bool stateful() const noexcept { return false; }

  /// Reset the host-side input state to the image's load-time contents.
  virtual void restart() {}
  /// Draw the next activation's inputs from `rng` into the host-side state.
  virtual void draw(rng::Mwc& rng) = 0;
  /// Write the current inputs into guest memory DMA-style; the stage
  /// function invalidates every range it writes in `hierarchy` (LEON3 DMA
  /// is not cache-coherent).  `full`: guest memory may differ from the
  /// host state by more than this activation's changes (a shard skip, a
  /// guest's first activation of a run), so a stateful task stages its
  /// whole persistent state.
  virtual void stage(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
                     const isa::LinkedImage& image, bool full) const = 0;
  /// Whether the current inputs carry the corrupt-input variant (sample
  /// labelling; only the control task has one).
  virtual bool corrupt_input() const noexcept { return false; }
  /// Golden-model check of the last activation's outputs.
  virtual bool verify(const mem::GuestMemory& memory,
                      const isa::LinkedImage& image) const = 0;
  /// Data symbols that make up the task's externally observable output —
  /// the record another partition, the telemetry downlink or the host
  /// reads back.  These are the *sinks* of the address-leak analysis
  /// (static pass and dynamic taint mode): a layout-derived value stored
  /// into one of them is a leak.
  virtual std::vector<std::string> observable_symbols() const = 0;
};

/// The task a target kind names, with its parameters from `config`
/// (`control` with `layout`, `image`, or `leak` with `hardened` set by the
/// kind).  The task copies what it needs; `config` need not outlive it.
std::unique_ptr<Task> make_task(MeasuredTargetKind kind,
                                const CampaignConfig& config);

/// The synthetic L2-evicting stressor (default `StressorParams`), a
/// hypervisor guest only.
std::unique_ptr<Task> make_stressor_task();

/// The measured target: `make_task(config.measured, config)`.
std::unique_ptr<Task> make_measured_target(const CampaignConfig& config);

} // namespace proxima::casestudy
