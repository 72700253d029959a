// Campaign benchmark: workloads, output checks, timed passes, spans and
// layer probes.  Everything here calls the program through its public
// entry points only (exec::CampaignEngine, casestudy::CampaignRunner,
// store::CampaignStore / CellWriter / load_cell, dsr::DsrRuntime,
// mem::GuestMemory, mbpta::analyse); README.md explains the method.
#pragma once

#include "casestudy/campaign.hpp"
#include "store/store.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace campaign_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads.cpp ---------------------------------------------------------

/// The two determinism witnesses of a campaign: trace::times_digest over
/// the UoA times and obs::metrics_digest over the counter/histogram/series
/// metrics (gauges excluded).
struct Digests {
  std::string times;
  std::string metrics;

  friend bool operator==(const Digests&, const Digests&) = default;
};

Digests digests_of(const proxima::casestudy::CampaignResult& result);

struct Workload {
  const char* name;
  const char* scenario; // registry scenario the campaign is built from
  unsigned workers;     // engine workers: the closed loop's client count
  std::uint32_t runs;   // measured runs per pass
  /// The pass goes through the campaign store: a cold pass persists a
  /// fresh cell, a warm pass re-renders it without simulating.
  bool through_store;
  /// Digests every pass must reproduce at the default seed (0).
  Digests frozen;
};

const std::vector<Workload>& workloads();
/// Throws std::invalid_argument naming the known workloads.
const Workload& find_workload(std::string_view name);

/// The workload's campaign configuration, as `proxima run` builds it:
/// registry defaults, the default VM core, metrics collection on.  Seed 0
/// keeps the scenario's registered seeds; any other seed reseeds the
/// campaign exactly like `proxima run --seed`.
proxima::casestudy::CampaignConfig
make_config(const Workload& workload, std::uint64_t seed, std::uint32_t runs);

/// The frozen digests at the default seed, nothing at any other seed.
std::optional<Digests> expected_digests(const Workload& workload,
                                        std::uint64_t seed);

// --- checks.cpp ------------------------------------------------------------

/// Output checks of one invocation, counted in runs: every run of every
/// checked pass is attempted; a run fails when the golden model did not
/// verify it, when its pass threw, or when its pass's digests differ from
/// the reference.  The reference is the frozen pair at the default seed;
/// at any other seed the first pass that returns becomes the reference,
/// so passes must agree with each other.
class OutputCheck {
public:
  /// `compare_metrics` false checks the times digest only (passes run with
  /// metrics collection off have no metrics to digest).
  explicit OutputCheck(std::optional<Digests> expected,
                       bool compare_metrics = true);

  /// A pass of `runs` runs returned `result`.  True when every run passed.
  bool pass(std::uint64_t runs,
            const proxima::casestudy::CampaignResult& result);
  /// A pass of `runs` runs threw.  The engine keeps no partial result of
  /// a faulted pass, so every run of it fails.
  void threw(std::uint64_t runs, const std::string& what);
  /// A warm store pass: it must simulate nothing and reproduce the digests
  /// of the cold pass that wrote the cell.
  bool rerender(std::uint64_t runs,
                const proxima::casestudy::CampaignResult& result,
                std::uint64_t simulated_runs, const Digests& cold);
  /// Any other checked operation (a traced pass, a probe): `failed` of
  /// `attempted` units failed for the reason `why`.
  void record(std::uint64_t attempted, std::uint64_t failed,
              const std::string& why);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  /// Merge another check's counts and errors into this one.
  void absorb(const OutputCheck& other);

private:
  bool matches_reference(const Digests& got);
  void fail(std::uint64_t runs, const std::string& why);

  std::optional<Digests> reference_;
  bool compare_metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// --- passes.cpp ------------------------------------------------------------

/// Rotating CPU pinning for timed work.  The host's vCPUs slow down
/// independently of each other and for seconds at a time, so successive
/// passes run on successive CPUs of the process's affinity mask and the
/// fastest pass finds the fastest CPU.  Engine workers inherit the pinning
/// of the thread that spawns them.
class CpuRotation {
public:
  CpuRotation();
  /// Pin the calling thread to `count` consecutive CPUs of the mask,
  /// starting at the `step`-th (modulo the mask size).
  void pin(std::size_t step, unsigned count) const;

private:
  std::vector<int> cpus_;
};

/// Seconds to construct one CampaignRunner for `config` (one worker's
/// platform), fastest of `builds` constructions rotated over the CPUs.
double fastest_build_seconds(const proxima::casestudy::CampaignConfig& config,
                             int builds, const CpuRotation& cpus);

/// One campaign pass on a fresh engine, timed around CampaignEngine::run.
/// Returns the wall seconds when the pass returned and passed its checks.
/// `keep` receives the result when non-null.
std::optional<double>
engine_pass(const proxima::casestudy::CampaignConfig& config, unsigned workers,
            OutputCheck& check,
            proxima::casestudy::CampaignResult* keep = nullptr);

/// At a non-default seed the passes only have to agree with each other, so
/// one untimed pass at the default seed checks the program against the
/// frozen digests: every invocation checks them, whatever its seed.
void check_frozen_outputs(const Workload& workload, std::uint64_t seed,
                          OutputCheck& check);

/// A cold store pass: the cell is deleted, then CampaignStore::run
/// simulates and persists every run (timed).  `digests` receives the
/// pass's digests, the warm pass's reference.
std::optional<double>
store_cold_pass(const proxima::store::CampaignStore& store,
                const Workload& workload,
                const proxima::casestudy::CampaignConfig& config,
                OutputCheck& check, Digests& digests);

/// A warm store pass: CampaignStore::run re-renders the cell (timed).
std::optional<double>
store_warm_pass(const proxima::store::CampaignStore& store,
                const Workload& workload,
                const proxima::casestudy::CampaignConfig& config,
                OutputCheck& check, const Digests& cold);

// --- spans.cpp -------------------------------------------------------------

/// In-memory span recorder for the traced run.  Spans nest strictly (one
/// thread), so a span's self time is its duration minus the sum of its
/// direct children, and the self times of a subtree sum to its root's
/// duration.  Names are "<layer>.<what>" string literals.
class SpanRecorder {
public:
  struct Span {
    const char* name;
    std::int64_t run; // run index for per-run spans, -1 otherwise
    int parent;       // index into spans(), -1 for a root
    double start_us;
    double end_us;

    double duration_us() const { return end_us - start_us; }
  };

  SpanRecorder();

  int begin(const char* name, std::int64_t run = -1);
  void end(int id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time of every span, parallel to spans().
  std::vector<double> self_us() const;
  /// Sum of self times over the subtree rooted at `root`.
  double subtree_self_us(int root) const;
  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  void write_chrome_json(std::ostream& out) const;

private:
  double now_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::int64_t run = -1)
      : recorder_(recorder), id_(recorder.begin(name, run)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }

private:
  SpanRecorder& recorder_;
  int id_;
};

// --- probes.cpp ------------------------------------------------------------

/// Mean microseconds per DsrRuntime::rerandomise() on the measured
/// program's platform (program built, DSR pass applied, image loaded and
/// predecoded as a campaign runner does), over `reseeds` reboots.
double probe_reseed_us(const proxima::casestudy::CampaignConfig& config,
                       std::uint32_t reseeds);

struct GuestMemoryProbe {
  double read_ns;           // per GuestMemory::read_u8 / read_u32 call
  double span_write_ns_per_word; // GuestMemory::write_u32_span
};

/// Guest-memory probe on the measured program's pages after one reseed:
/// reads at seeded random addresses over the image and the relocated
/// code, and span writes of the DSR function-table size at the table
/// addresses (the reseed's own write pattern).
GuestMemoryProbe probe_guest_memory(
    const proxima::casestudy::CampaignConfig& config, std::uint64_t seed);

struct StoreProbe {
  double append_us_per_run;
  double load_us_per_run;
  double bytes_per_run;
};

/// Re-append the runs of the cell at `source_cell` into a fresh cell at
/// `probe_cell` with CellWriter::append (timed), then load it back with
/// load_cell (timed).  Checks that the probe cell holds every run.
StoreProbe probe_store(const std::string& source_cell,
                       const std::string& probe_cell, OutputCheck& check);

/// Milliseconds for the MBPTA analysis the CLI's report runs on a
/// campaign's times: i.i.d. tests, Gumbel block-maxima fit, pWCET curve.
double probe_mbpta_ms(const std::vector<double>& times, OutputCheck& check);

} // namespace campaign_bench
