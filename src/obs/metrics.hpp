// Deterministic observability metrics for campaign execution.
//
// The project's core invariant — every measured run is a pure function of
// its global run index, so results are bit-identical at any worker count —
// is extended here to telemetry.  A `MetricsSnapshot` separates metrics by
// determinism class:
//
//   * counters    — u64 event counts accumulated as PER-RUN DELTAS (the
//                   runner brackets each run with snapshots, so per-runner
//                   construction work never leaks in).  u64 addition is
//                   commutative and associative, so any merge order over
//                   any sharding of the run set yields the same totals.
//   * histograms  — fixed log2 buckets over u64 samples plus u64
//                   count/sum/min/max.  All-integer state, all merges
//                   commutative: bit-identical across worker counts.
//   * series      — ordered double sequences produced single-threaded at
//                   deterministic points (e.g. the adaptive controller's
//                   pWCET trajectory at batch boundaries).
//   * gauges      — wall-clock and platform-local values (worker busy
//                   seconds, decode-cache occupancy).  Deliberately
//                   EXCLUDED from the digest: they are the only numbers
//                   allowed to vary between identical campaigns.
//
// `metrics_digest` is the telemetry analogue of `trace::times_digest`: an
// FNV-1a fold over the deterministic classes only, in name order.  Two
// campaigns print the same digest iff their counters, histograms and
// series are bit-identical — the cheap cross-worker-count check the CI
// uses (`proxima run --workers 8` vs `--workers 1`).
//
// Records: what a run publishes is not a snapshot but a `MetricsShard`, a
// fixed-layout record of unnamed slots (instruction mix, DSR, decode-cache
// and taint activity).  Each runner sums its runs' records slot by slot
// and touches its sum only from its own thread; the engine sums the
// runners' records, and a stored prefix's, after the pool has joined, and
// attaches names once per campaign (`name_slots`).  So no string is built
// and no map node allocated per run.  What a run's `RunSample` already
// holds (UoA time, perf counters, partition activity) is not in the record:
// casestudy::campaign_metrics names it from the samples at the same point.
// Nothing here is on the VM hot path — the per-instruction mix is the
// record's own mix slots, incremented by the VM through a raw pointer
// (vm::Vm::set_mix_counters).
#pragma once

#include "isa/opcode.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace proxima::obs {

/// Log2-bucketed histogram of u64 samples: bucket index = bit_width(value)
/// (0 for value 0, 64 for values >= 2^63).  Integer state only, so merges
/// are exact and order-independent.
struct Histogram {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;

  static std::size_t bucket_of(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  void record(std::uint64_t value) {
    ++buckets[bucket_of(value)];
    ++count;
    sum += value;
    min = value < min ? value : min;
    max = value > max ? value : max;
  }

  void merge_from(const Histogram& other);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;
};

/// The merged (or per-worker, see the header comment) metrics registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> gauges; // excluded from the digest

  void add(const std::string& name, std::uint64_t delta) {
    counters[name] += delta;
  }
  void record(const std::string& name, std::uint64_t value) {
    histograms[name].record(value);
  }
  void set_series(const std::string& name, std::span<const double> values) {
    series[name].assign(values.begin(), values.end());
  }
  /// Overwrite a gauge (engine-level facts: worker count, wall seconds).
  void set_gauge(const std::string& name, double value) {
    gauges[name] = value;
  }
  /// Accumulate into a gauge (per-run platform-local telemetry).
  void add_gauge(const std::string& name, double delta) {
    gauges[name] += delta;
  }

  /// Commutative merge: counters and gauges sum, histograms fold,
  /// same-name series concatenate (shards never produce series, so in
  /// practice series pass through unchanged).
  void merge_from(const MetricsSnapshot& other);

  bool empty() const {
    return counters.empty() && histograms.empty() && series.empty() &&
           gauges.empty();
  }

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// One run's runner-side metrics, or the slot-by-slot sum of many runs'
/// records: a fixed layout of unnamed slots.  Value slots hold u64 event
/// counts; the first `kMixSlots` count retired instructions per opcode
/// (`vm.mix.<Op>`) and the VM increments them directly.  Histogram slots
/// are numbered after the value slots.  Names and presence are attached
/// once per campaign by `name_slots`; `slot_names` lists them.
struct MetricsShard {
  static constexpr std::size_t kMixSlots =
      static_cast<std::size_t>(isa::Opcode::kOpcodeCount);
  enum ValueSlot : std::size_t {
    kDsrReseeds = kMixSlots,
    kDsrOndemandReseeds,
    kDsrRelocations,
    kDsrBytesCopied,
    kDsrLazyTraps,
    kDsrLazyCycles,
    kDsrLinesInvalidated, // gauge class, as are the four vm.decode.* slots
    kDecodeDecodes,
    kDecodeWriteInvalidationEvents,
    kDecodeInvalidatedSlots,
    kDecodeFullInvalidations,
    kLeakPcTaints,
    kLeakSourceLoads,
    kLeakTaintedStores,
    kLeakSinkStores,
    kValueSlots,
  };
  enum HistogramSlot : std::size_t {
    kLeakSinkBits,
    kHistogramSlots,
  };
  static constexpr std::size_t kSlots =
      std::size_t{kValueSlots} + kHistogramSlots;

  std::array<std::uint64_t, kValueSlots> values{};
  std::array<Histogram, kHistogramSlots> histograms{};

  /// Slot-by-slot sum: values add, histograms fold.
  void merge_from(const MetricsShard& other);

  friend bool operator==(const MetricsShard&, const MetricsShard&) = default;
};

/// Which optional slot families a campaign publishes; a pure function of
/// its config (casestudy::campaign_metrics derives it).
struct MetricsLayout {
  bool dsr = false;   // a DSR runtime exists: dsr.*
  bool taint = false; // the campaign tracks taint: leak.*
};

/// Every slot's name, in slot order (value slots, then histogram slots):
/// the one map from slots to names.  The campaign store lists it once per
/// cell.  Built on first use.
const std::vector<std::string>& slot_names();

/// Fold `shard` into `snapshot` under its slot names.  Presence follows
/// what publishing by name would give: `vm.mix.*` only when nonzero,
/// `vm.decode.*` always, `dsr.*` iff `layout.dsr`, `leak.*` iff
/// `layout.taint`.  `dsr.lines_invalidated` and `vm.decode.*` are gauges.
void name_slots(const MetricsShard& shard, MetricsLayout layout,
                MetricsSnapshot& snapshot);

/// FNV-1a digest over the deterministic classes (counters, histograms,
/// series — names and values; gauges excluded), rendered by the hex
/// variant as "0x%016x".  The telemetry analogue of trace::times_digest.
std::uint64_t metrics_digest(const MetricsSnapshot& snapshot);
std::string metrics_digest_hex(const MetricsSnapshot& snapshot);

} // namespace proxima::obs
