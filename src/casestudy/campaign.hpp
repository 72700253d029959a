// Measurement campaign driver: the paper's experimental protocol.
//
// For every measurement run (Section IV/V):
//   1. re-randomise the layout (DSR partition reboot) / reseed the
//      hardware-randomised caches / re-link (static randomisation),
//      depending on the configuration under test;
//   2. stage a fresh random input vector (sensor + spacecraft bus data);
//   3. flush all cache levels and TLBs (PikeOS partition start);
//   4. execute one activation of the measured target (the control task by
//      default, or the image task — see MeasuredTargetKind) on the
//      LEON3-class core;
//   5. extract the UoA execution time from the RVS-style trace and snapshot
//      the performance counters (Table I);
//   6. verify the functional outputs against the host golden model.
#pragma once

#include "casestudy/control_task.hpp"
#include "casestudy/image_task.hpp"
#include "casestudy/leak_task.hpp"
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "mem/counters.hpp"
#include "obs/metrics.hpp"
#include "trace/partition_report.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace proxima::obs {
class Timeline;
}

namespace proxima::casestudy {

enum class Randomisation : std::uint8_t {
  kNone,     // the COTS platform: fixed layout, input variation only
  kDsr,      // dynamic software randomisation (the paper's technology)
  kStatic,   // static software randomisation: re-link per run (TASA-style)
  kHardware, // hardware time-randomised caches (random placement/replacement)
  /// DSR plus MARDU-style mid-run reseeds on a configured event: a taint
  /// sink store on the bare platform (the runner forces taint tracking on),
  /// a partition switch under the hypervisor.  Reboot-time behaviour is
  /// identical to kDsr; the extra reseeds continue the per-run layout
  /// stream, so runs stay pure functions of their index.
  kDsrOnDemand,
};

/// Both DSR arms: the pass is applied, a DsrRuntime manages the layout, and
/// the per-reboot reseed protocol of kDsr runs unchanged.
constexpr bool uses_dsr(Randomisation randomisation) noexcept {
  return randomisation == Randomisation::kDsr ||
         randomisation == Randomisation::kDsrOnDemand;
}

enum class PrngKind : std::uint8_t { kMwc, kLfsr };

/// Which program is the campaign's unit of analysis — the thing the trace
/// instruments, the randomisation rebuilds per run, and the golden model
/// verifies.  The paper's protocol always measures exactly one program per
/// run; this selector picks WHICH one (ROADMAP "measured-partition
/// selection" / "image task as a measured workload"):
///   kControl — the high-criticality control task (UoA `control_step`),
///              constant-work per activation;
///   kImage   — the image-processing task (UoA `image_step`), whose
///              duration is *input-dependent* (only the lit ~70% of lenses
///              are processed) — the workload class MBPTA struggles with
///              and where DSR's re-randomisation matters most.
///   kLeakyBeacon / kHardenedBeacon — the address-leak beacon task (UoA
///              `leak_step`, leak_task.hpp): the `leak/` family's subject
///              for the static+dynamic taint analysis.  The leaky variant
///              publishes its own return address in an observable field;
///              the hardened variant publishes a constant.
/// On the bare platform the selected target is simply the program under
/// test; under the hypervisor it selects the measured partition, while the
/// other tasks ride as interference guests.
enum class MeasuredTargetKind : std::uint8_t {
  kControl,
  kImage,
  kLeakyBeacon,
  kHardenedBeacon,
};

/// Report label of a measured-target kind: "control" / "image" /
/// "leak-beacon" / "leak-hardened".
const char* measured_target_name(MeasuredTargetKind kind) noexcept;

/// Spelling of a randomisation arm in scenario names, `--randomisation`
/// and reports: "cots" / "dsr" / "dsr-ondemand" / "static" / "hwrand".
const char* randomisation_name(Randomisation randomisation) noexcept;

/// Hypervisor partition name of the partition a target kind occupies
/// ("control" / "processing") — fixed per kind, independent of whether the
/// partition is the measured one or a guest.
const char* measured_partition_name(MeasuredTargetKind kind) noexcept;

/// Hypervisor campaign (the paper's PikeOS setting): the measured target
/// (`CampaignConfig::measured` — the control task by default) is measured
/// *while* guest partitions share the platform, instead of on the bare
/// platform.  The schedule runs on `rtos::Hypervisor`'s default clock
/// (100 ms minor frames at 50000 cycles/ms).  One measured run replays
/// `frames` minor frames of the cyclic schedule from a fresh timeline:
///   * the measured partition activates exactly once, in the LAST minor
///     frame (its period is `frames` minor frames, offset to the end), so
///     the guests' activations in the earlier frames, and their cache/TLB
///     interference, precede the measured activation; within the last
///     frame high criticality runs it first and that frame's guests
///     follow it;
///   * guest partitions activate every minor frame with fresh inputs drawn
///     from per-partition streams (`exec::derive_partition_seed`, whose
///     partition indices are fixed per task kind — see hv_runner.cpp), so
///     the interference pattern varies run to run but stays a pure
///     function of the run index — the engine shards hypervisor scenarios
///     exactly like bare-platform ones;
///   * each partition is granted the rest of its minor frame;
///   * the bare protocol's unmeasured same-layout warm-up of the measured
///     program still precedes the schedule, so `hv/control-solo`
///     reproduces the bare analysis protocol and the guest scenarios
///     differ from it by interference only.
/// Guests take their task parameters from the campaign config the
/// measured target reads too: the control guest `CampaignConfig::control`,
/// the image guest `CampaignConfig::image`; the stressor runs with
/// default `StressorParams`.  A task kind can appear in a schedule once:
/// enabling the guest matching the measured target (e.g. `control_guest`
/// while measuring the control task) is rejected at runner construction.
/// Static re-link randomisation is not supported under the hypervisor (a
/// re-flash clears the whole guest memory, guests included).
struct HvCampaignConfig {
  /// Minor frames per measured run (= the measured task's period in
  /// frames).  10 reproduces the paper's 1 s control period over 100 ms
  /// frames.
  std::uint32_t frames = 10;
  /// The control task as an interference guest (only valid when the
  /// measured target is NOT the control task): a fresh input refresh every
  /// minor frame, state replayed from the image's load-time contents each
  /// run so the interference stays a pure function of the run index.
  bool control_guest = false;
  /// The image-processing task as a low-criticality guest (only valid when
  /// the measured target is NOT the image task).
  bool image_guest = false;
  /// The synthetic L2-evicting stressor as a low-criticality guest.
  bool stressor_guest = false;
};

struct CampaignConfig {
  /// The unit of analysis this campaign measures (see MeasuredTargetKind).
  /// Selects the program the bare protocol runs, or the measured partition
  /// of a hypervisor campaign.
  MeasuredTargetKind measured = MeasuredTargetKind::kControl;
  /// Parameters of the control task, whether it is the measured target or
  /// an hv campaign's control guest.
  ControlParams control;
  /// Parameters of the image task, whether it is the measured target
  /// (`measured == kImage`) or an hv campaign's image guest.
  ImageParams image;
  /// Parameters of the leak-beacon task when it is the measured target
  /// (`measured == kLeakyBeacon` / `kHardenedBeacon`; the hardened flag in
  /// here is overridden by the target kind).
  LeakParams leak;
  Layout layout = Layout::kCotsBad;
  Randomisation randomisation = Randomisation::kNone;
  /// Execution core for the guest activations.  The predecoded fast core
  /// is the default; the reference interpreter is the differential-test
  /// oracle (both produce bit-identical samples).
  vm::VmCore vm_core = vm::VmCore::kFast;
  /// Measured runs; run i is global activation i of the input and layout
  /// streams.  Every collected run is verified against the golden model.
  std::uint32_t runs = 1000;
  std::uint64_t input_seed = 2017;
  std::uint64_t layout_seed = 611085; // PROXIMA grant number
  PrngKind prng = PrngKind::kMwc;
  dsr::PassOptions pass_options;
  dsr::RuntimeOptions dsr_options;
  /// Optional link-order override (incremental-integration experiment).
  std::vector<std::string> function_order;
  /// Analysis-time input control (MBPTA methodology): draw ONE input
  /// vector and replay it every run, so the measured variability is the
  /// platform's (cache layout) rather than the program's (paths).  Combine
  /// with control.corrupt_rate = 1.0 to pin the recovery path — the
  /// stressful scenario a validation expert would design.
  bool fixed_inputs = false;
  /// Fault injection: the runner throws a simulated platform fault while
  /// setting up this run index.  Lets the engine's cancellation path be
  /// tested with a deterministically poisoned campaign; disabled when
  /// unset.
  std::optional<std::uint64_t> fault_at_run;
  /// When set, runs execute on the partitioned hypervisor platform instead
  /// of the bare platform (see HvCampaignConfig).
  std::optional<HvCampaignConfig> hypervisor;

  // --- Observability (src/obs/) -------------------------------------------
  /// Collect the metrics registry (instruction mix, hierarchy counters, DSR
  /// runtime activity, hv partition occupancy) into per-runner shards,
  /// merged into `CampaignResult::metrics`.  Off by default: runners leave
  /// the VM's mix hook null and skip every snapshot, so campaigns pay
  /// nothing.  Purely observational — enabling it never changes times,
  /// samples or any derived seed.
  bool collect_metrics = false;
  /// Dynamic taint tracking (vm/taint.hpp): shadow every register and
  /// guest-memory word with a layout-derived bit, with the DSR tables as
  /// sources and the measured target's observable outputs as sinks.
  /// Publishes the `leak.*` metrics family when `collect_metrics` is also
  /// on.  Purely observational: times, samples and digests are unchanged.
  bool taint = false;
  /// When non-null, producers record Chrome-trace spans here (engine
  /// worker runs, adaptive batches, hv partition frames).  Non-owning; the
  /// CLI owns the Timeline for the duration of the campaign.
  obs::Timeline* timeline = nullptr;
};

/// Per-partition activity of one hypervisor run (empty on the bare
/// platform): every activation's granted cycles in schedule order, plus
/// the fence overruns the health monitor recorded.
struct PartitionActivity {
  std::string partition;
  std::vector<double> cycles; // ActivationRecord::cycles_used per activation
  std::uint32_t overruns = 0;

  friend bool operator==(const PartitionActivity&, const PartitionActivity&) =
      default;
};

struct RunSample {
  double uoa_cycles = 0.0;
  bool corrupt_input = false;
  mem::PerfCounters counters; // per-run snapshot (hv: the whole schedule)
  /// Hypervisor runs: per-partition activity, registration order.
  std::vector<PartitionActivity> partitions;

  friend bool operator==(const RunSample&, const RunSample&) = default;
};

struct CampaignResult {
  std::vector<double> times; // UoA execution times, one per run
  std::vector<RunSample> samples;
  dsr::PassReport pass_report;     // meaningful for kDsr
  std::uint32_t code_bytes = 0;    // image code size
  std::uint64_t verified_runs = 0; // golden-model matches
  /// Merged metrics registry (empty unless `collect_metrics`).  The
  /// counter/histogram/series classes are bit-identical across worker
  /// counts (obs::metrics_digest); gauges carry wall-clock facts.
  obs::MetricsSnapshot metrics;
};

/// Execute the campaign sequentially (any measured target — the function
/// name keeps its historical spelling from when the control task was the
/// only measurable program).  Throws on any functional mismatch or
/// platform fault — a measurement campaign must never silently produce bad
/// data.
///
/// Every run's randomness is derived from (seed, stream, activation index)
/// via `exec::derive_run_seed`, making each run a pure function of its
/// index; `exec::CampaignEngine` exploits this to shard the same campaign
/// across workers with bit-identical `times`/`samples`.
CampaignResult run_control_campaign(const CampaignConfig& config);

/// A campaign's metrics registry, named once when the campaign ends: the
/// families its samples hold (`runs`, `runs.corrupt_input`,
/// `time.uoa_cycles`, `mem.*`, the hv `hv.<partition>.*` family), plus
/// `records`, the slot-by-slot sum of every run's record.  Presence is
/// what publishing each run by name would give: nothing without a run,
/// `runs.corrupt_input` and `hv.<partition>.overruns` only when nonzero,
/// `mem.*` always; of the record's families, dsr.* whenever a DSR runtime
/// exists and leak.* whenever `config.taint` is set (obs::name_slots has
/// the rest).  Throws std::invalid_argument when the samples do not all
/// list the same number of partitions.
obs::MetricsSnapshot campaign_metrics(const CampaignConfig& config,
                                      std::span<const RunSample> samples,
                                      const obs::MetricsShard& records);

/// Flatten a hypervisor campaign's per-run partition activity into
/// per-partition series (registration order preserved) ready for
/// `trace::PartitionReport::build`.  Empty for bare-platform campaigns.
std::vector<trace::PartitionSeries>
partition_series(std::span<const RunSample> samples);

} // namespace proxima::casestudy
