// Per-worker campaign execution: one isolated platform instance (guest
// memory + cache hierarchy + VM + trace buffer + DSR runtime) plus the
// per-run measurement protocol of Section IV, split into the
// setup / execute / collect stages the parallel engine drives.
//
// The runner is target-agnostic: everything specific to the program under
// measurement (generation + UoA instrumentation, base layout, input
// state, staging, golden model) lives behind `casestudy::Task`
// (measured_target.hpp), selected by `CampaignConfig::measured`.  The
// runner owns the protocol itself — seed derivation, the measured input
// policy, the randomisation arms, flush/warm-up/measure, trace extraction
// — identically for every target.
//
// Determinism contract
// --------------------
// Every measured run is a *pure function of its global activation index*:
// the input vector and the layout (DSR relocation, static re-link, hardware
// cache reseed) are drawn from generators seeded via
// `exec::derive_run_seed(seed, stream, index)`, and the platform state a
// run observes is rebuilt by the protocol itself (full cache flush,
// same-layout warm-up activation, PikeOS-style L1 flush).  Two runners
// executing the same run index therefore produce bit-identical samples,
// which is what lets `exec::CampaignEngine` shard a campaign across
// workers and still match the sequential `run_control_campaign` exactly.
//
// A runner executes run indices in strictly ascending order.  Persistent
// target input state (the control task's telemetry rotation and protocol
// block) is replayed host-side across skipped indices, so a worker may own
// any ascending subset of [0, runs); after a skip the full instrument
// state is re-staged into guest memory so the guest's persistent stores
// match the host mirror exactly.
#pragma once

#include "casestudy/campaign.hpp"
#include "casestudy/measured_target.hpp"
#include "core/dsr_runtime.hpp"
#include "isa/linker.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "trace/trace.hpp"
#include "vm/taint.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace proxima::casestudy {

class CampaignRunner {
public:
  /// Build the platform: program generation, instrumentation, DSR pass,
  /// base link, image load, DSR runtime attach.  Deterministic for a given
  /// config, so every worker's platform is identical.  With
  /// `config.hypervisor` set, additionally link/load the guest partition
  /// images and register every partition on a `rtos::Hypervisor` over the
  /// same core — measured runs then replay the cyclic schedule
  /// (hv_runner.cpp) instead of the bare protocol, with the identical
  /// stage API and determinism contract.
  explicit CampaignRunner(const CampaignConfig& config);

  /// Stage 1 — prepare measured run `run_index` (0-based, < config.runs):
  /// derive this run's seeds, apply the configured randomisation (partition
  /// reboot / re-link / cache reseed), advance the input stream to the
  /// run's global activation index, and stage the inputs DMA-style.
  /// Indices must be strictly ascending per runner.
  void setup(std::uint64_t run_index);

  /// Stage 2 — the measurement protocol proper: flush every level, run the
  /// unmeasured same-layout warm-up activation, apply the PikeOS partition
  /// start L1 flush, then run the measured activation.
  void execute();

  /// Stage 3 — extract the UoA time from the trace, snapshot the
  /// performance counters, and verify the guest outputs against the host
  /// golden model (throws on mismatch).
  RunSample collect();

  /// setup + execute + collect.
  RunSample run(std::uint64_t run_index);

  const CampaignConfig& config() const noexcept { return config_; }
  const dsr::PassReport& pass_report() const noexcept { return pass_report_; }
  std::uint32_t code_bytes() const noexcept { return code_bytes_; }
  std::uint64_t verified_runs() const noexcept { return verified_runs_; }

  /// The slot-by-slot sum of this runner's run records (all zero unless
  /// config().collect_metrics), summed at collect(); the campaign driver
  /// names the campaign's sum into CampaignResult::metrics
  /// (casestudy::campaign_metrics).
  const obs::MetricsShard& metrics() const noexcept { return metrics_; }

  /// The record the LAST collected run contributed to `metrics()` (all
  /// zero unless config().collect_metrics).  Valid until the next
  /// execute(); the engine copies it per run when a persistence sink is
  /// attached, so the campaign store can replay exact per-run telemetry.
  /// Counter and histogram slots are pure functions of the run index; the
  /// gauge-class slots (decode-cache activity, DSR invalidation counts)
  /// legitimately depend on what the previous run on this runner left
  /// behind — they are excluded from the metrics digest either way.
  const obs::MetricsShard& last_run_metrics() const noexcept {
    return run_metrics_;
  }

private:
  /// Partition reboot / re-link / cache reseed from an already-derived
  /// layout seed (the bare protocol derives it per run, the hv mode per
  /// partition — one switch serves both).
  void apply_randomisation(std::uint64_t layout_seed);
  /// The measured input policy, the one place it is written: bring the
  /// target's input state to global activation `activation` (pinned
  /// inputs, replay across shard skips, or a restart after a re-flash).
  void advance_inputs(std::uint64_t activation);
  void stage_inputs(std::uint64_t activation);
  /// Entry point of the measured program under the layout in force now:
  /// the DSR runtime's entry stub, or the image's fixed entry.
  std::uint32_t measured_entry() const;
  /// (Re-)declare the dynamic taint ranges on the VM: sinks from the
  /// measured target's observable symbols, sources from the DSR tables.
  /// No-op unless config_.taint; called again after a static re-link
  /// (every data object moves).
  void configure_taint_ranges();
  void verify_measured();
  [[noreturn]] void fault(const std::string& what) const;

  // Hypervisor-campaign engine room (hv_runner.cpp): guest partition
  // state, the Hypervisor, and the schedule-replay protocol.
  struct HvState;
  void hv_build();
  void hv_setup(std::uint64_t activation);
  void hv_execute();
  RunSample hv_collect();

  // Observability (config_.collect_metrics / config_.timeline).  The
  // metric baselines are snapped at setup() entry and the run's record
  // written and summed at collect(), so construction-time work (initial
  // predecode, guest image loads) never reaches the sums and every run's
  // record is a pure function of its index — the property
  // obs::metrics_digest certifies across worker counts.
  void obs_begin_run();
  /// Zero the record's mix slots and point the VM at them where the
  /// hierarchy counters reset (after the unmeasured warm-up activation),
  /// so `vm.mix.*` counts exactly the instructions `mem.*` describes.
  void obs_rebase_mix();
  void obs_publish_run();
  /// hv only (hv_runner.cpp): simulated-time partition spans on the
  /// timeline.
  void hv_record_timeline();

  CampaignConfig config_;
  std::unique_ptr<Task> target_; // host-side input state lives here
  rng::Mwc input_rng_;           // reseeded per activation drawn
  /// Activations drawn from the measured input stream so far.
  std::uint64_t next_input_ = 0;
  dsr::PassReport pass_report_;
  isa::Program program_;
  std::unique_ptr<rng::RandomSource> layout_rng_;
  isa::LinkedImage image_;
  std::uint32_t code_bytes_ = 0;

  mem::GuestMemory memory_;
  mem::MemoryHierarchy hierarchy_;
  vm::Vm cpu_;
  trace::TraceBuffer trace_buffer_;
  std::unique_ptr<dsr::DsrRuntime> runtime_;

  /// Last activation whose input state was staged into guest memory; a
  /// non-consecutive successor forces a full state re-sync.
  std::optional<std::uint64_t> staged_activation_;

  std::optional<std::uint64_t> current_run_; // set by setup, used by stages
  bool executed_ = false;
  std::uint64_t verified_runs_ = 0;

  obs::MetricsShard metrics_;
  /// The record the obs_* hooks write (its mix slots through the VM);
  /// summed into `metrics_` at the end of obs_publish_run and exposed via
  /// last_run_metrics().
  obs::MetricsShard run_metrics_;
  dsr::DsrRuntime::Stats dsr_base_;
  vm::DecodeCache::Stats decode_base_;
  vm::TaintStats taint_base_; // leak.* window baseline (config_.taint)
  // shared_ptr for its type-erased deleter: HvState stays incomplete
  // outside hv_runner.cpp.  Never actually shared.
  std::shared_ptr<HvState> hv_; // null on the bare platform
};

} // namespace proxima::casestudy
