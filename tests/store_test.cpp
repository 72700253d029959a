// Tests for the on-disk campaign store (src/store/): resume after an
// interrupted campaign is bit-identical to an uninterrupted one at any
// worker count (fixed and adaptive), a fully stored campaign re-renders
// without simulating a single run, corrupt/truncated/mismatched cell
// files are rejected with a clear StoreError, and the config fingerprint
// keys cells by exactly the sample-determining fields.
#include "store/store.hpp"

#include "casestudy/fingerprint.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h> // getpid: unique store roots per test process

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;

CampaignConfig dsr_config(std::uint32_t runs) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  CampaignConfig config =
      registry.at("control/operation-dsr").make_config(runs);
  config.collect_metrics = true; // exercise the per-run metrics round-trip
  return config;
}

exec::EngineOptions worker_options(unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  return options;
}

/// Quick-converging criterion for small test campaigns (mirrors
/// exec_adaptive_test).
exec::ConvergenceOptions loose_convergence(std::uint64_t batch,
                                           std::uint64_t budget) {
  exec::ConvergenceOptions options;
  options.batch_runs = batch;
  options.max_runs = budget;
  options.controller.target_exceedance = 1e-12;
  options.controller.epsilon = 0.5;
  options.controller.stable_rounds = 1;
  options.controller.min_samples = 40;
  options.controller.mbpta.block_size = 10;
  return options;
}

/// A unique, self-cleaning store root per test.
class TempStore {
public:
  explicit TempStore(const char* tag)
      : root_(std::filesystem::temp_directory_path() /
              ("proxima_store_test_" + std::to_string(::getpid()) + "_" +
               tag)) {
    std::filesystem::remove_all(root_);
  }
  ~TempStore() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string path() const { return root_.string(); }

private:
  std::filesystem::path root_;
};

void expect_identical_campaigns(const CampaignResult& a,
                                const CampaignResult& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    EXPECT_EQ(a.times[i], b.times[i]) << "run " << i;
  }
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.verified_runs, b.verified_runs);
  EXPECT_EQ(a.code_bytes, b.code_bytes);
  EXPECT_EQ(trace::times_digest_hex(a.times),
            trace::times_digest_hex(b.times));
  // Gauges (wall clock, sharding) are excluded from the digest, so a
  // resumed/re-rendered campaign matches a live one bit-for-bit here.
  EXPECT_EQ(obs::metrics_digest_hex(a.metrics),
            obs::metrics_digest_hex(b.metrics));
}

// ---------------------------------------------------------------------------
// Resume after interruption.
// ---------------------------------------------------------------------------

TEST(StoreResume, InterruptedFixedCampaignResumesBitIdentically) {
  const CampaignConfig config = dsr_config(48);
  const CampaignResult live =
      exec::CampaignEngine(worker_options(2)).run(config);

  for (const unsigned workers : {1u, 8u}) {
    TempStore root(("fixed_w" + std::to_string(workers)).c_str());
    const store::CampaignStore store(root.path());

    // Interrupt: fault injection aborts the campaign partway.  Completed
    // shards were persisted by the sample sink; the faulted shard was not.
    CampaignConfig interrupted = config;
    interrupted.fault_at_run = 30;
    EXPECT_THROW(
        store.run("control/operation-dsr", interrupted,
                  worker_options(workers)),
        std::runtime_error);

    // Resume with the clean config (fault_at_run is not part of the
    // fingerprint: it decides whether the campaign completes, not what any
    // completed run measures).
    store::StoreStats stats;
    const CampaignResult resumed = store.run(
        "control/operation-dsr", config, worker_options(workers), &stats);
    expect_identical_campaigns(resumed, live);
    EXPECT_GT(stats.stored_runs, 0u)
        << "the interrupted campaign must have persisted completed shards";
    EXPECT_LT(stats.stored_runs, 48u);
    EXPECT_EQ(stats.stored_runs + stats.simulated_runs, 48u);
  }
}

TEST(StoreResume, InterruptedAdaptiveCampaignResumesBitIdentically) {
  const CampaignConfig config = dsr_config(160);
  const exec::ConvergenceOptions convergence = loose_convergence(40, 160);
  const exec::AdaptiveCampaignResult live =
      exec::CampaignEngine(worker_options(2))
          .run_adaptive(config, convergence);

  for (const unsigned workers : {1u, 8u}) {
    TempStore root(("adaptive_w" + std::to_string(workers)).c_str());
    const store::CampaignStore store(root.path());

    CampaignConfig interrupted = config;
    interrupted.fault_at_run = 50; // inside the second batch
    EXPECT_THROW(store.run_adaptive("control/operation-dsr", interrupted,
                                    convergence, worker_options(workers)),
                 std::runtime_error);

    store::StoreStats stats;
    const exec::AdaptiveCampaignResult resumed =
        store.run_adaptive("control/operation-dsr", config, convergence,
                           worker_options(workers), &stats);

    // The controller replays stored batches in run-index order at the same
    // boundaries, so the stop decision — and everything downstream of it —
    // matches the uninterrupted campaign exactly.
    EXPECT_EQ(resumed.converged, live.converged);
    EXPECT_EQ(resumed.capped, live.capped);
    EXPECT_EQ(resumed.batches, live.batches);
    ASSERT_EQ(resumed.estimates.size(), live.estimates.size());
    for (std::size_t i = 0; i < live.estimates.size(); ++i) {
      if (std::isnan(live.estimates[i])) {
        EXPECT_TRUE(std::isnan(resumed.estimates[i])) << "estimate " << i;
      } else {
        EXPECT_EQ(resumed.estimates[i], live.estimates[i])
            << "estimate " << i;
      }
    }
    expect_identical_campaigns(resumed.campaign, live.campaign);
    EXPECT_GT(stats.stored_runs, 0u);
  }
}

// ---------------------------------------------------------------------------
// Re-render from a warm store.
// ---------------------------------------------------------------------------

TEST(StoreRerender, SecondInvocationSimulatesNothing) {
  const CampaignConfig config = dsr_config(32);
  TempStore root("rerender");
  const store::CampaignStore store(root.path());

  store::StoreStats cold;
  const CampaignResult first =
      store.run("control/operation-dsr", config, worker_options(4), &cold);
  EXPECT_EQ(cold.stored_runs, 0u);
  EXPECT_EQ(cold.simulated_runs, 32u);

  store::StoreStats warm;
  const CampaignResult second =
      store.run("control/operation-dsr", config, worker_options(1), &warm);
  EXPECT_EQ(warm.stored_runs, 32u);
  EXPECT_EQ(warm.simulated_runs, 0u)
      << "a fully stored campaign must not re-simulate";
  expect_identical_campaigns(second, first);
}

// Every metric family a warm cell has to give back: the hv partition
// telemetry of hv/control+image, and the leak.* family (counters and the
// sink-bits histogram) with the dsr.* family of leak/beacon-dsr.
TEST(StoreRerender, HvAndTaintCampaignsRerenderLikeALiveRun) {
  const struct {
    const char* scenario;
    bool taint;
  } cases[] = {{"hv/control+image", false}, {"leak/beacon-dsr", true}};
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.scenario);
    CampaignConfig config = exec::ScenarioRegistry::global()
                                .at(test_case.scenario)
                                .make_config(12);
    config.collect_metrics = true;
    config.taint = test_case.taint;
    const CampaignResult live =
        exec::CampaignEngine(worker_options(3)).run(config);
    TempStore root("rerender_families");
    const store::CampaignStore store(root.path());
    store.run(test_case.scenario, config, worker_options(2));
    store::StoreStats warm;
    const CampaignResult rerendered =
        store.run(test_case.scenario, config, worker_options(1), &warm);
    EXPECT_EQ(warm.simulated_runs, 0u);
    expect_identical_campaigns(rerendered, live);
    EXPECT_EQ(rerendered.metrics.counters, live.metrics.counters);
    EXPECT_EQ(rerendered.metrics.histograms, live.metrics.histograms);
  }
}

TEST(StoreRerender, AdaptiveRerenderReplaysTheSameStopDecision) {
  const CampaignConfig config = dsr_config(160);
  const exec::ConvergenceOptions convergence = loose_convergence(40, 160);
  TempStore root("rerender_adaptive");
  const store::CampaignStore store(root.path());

  const exec::AdaptiveCampaignResult first = store.run_adaptive(
      "control/operation-dsr", config, convergence, worker_options(4));
  store::StoreStats warm;
  const exec::AdaptiveCampaignResult second =
      store.run_adaptive("control/operation-dsr", config, convergence,
                         worker_options(2), &warm);
  EXPECT_EQ(warm.simulated_runs, 0u);
  EXPECT_EQ(second.batches, first.batches);
  EXPECT_EQ(second.converged, first.converged);
  expect_identical_campaigns(second.campaign, first.campaign);
}

// ---------------------------------------------------------------------------
// Strict rejection of damaged or mismatched cells.
// ---------------------------------------------------------------------------

TEST(StoreErrors, TruncatedCellIsRejected) {
  const CampaignConfig config = dsr_config(16);
  TempStore root("truncated");
  const store::CampaignStore store(root.path());
  store.run("control/operation-dsr", config, worker_options(2));

  const std::string cell = store.cell_path("control/operation-dsr", config);
  const auto size = std::filesystem::file_size(cell);
  std::filesystem::resize_file(cell, size - 7); // tear the last record
  try {
    store.run("control/operation-dsr", config, worker_options(2));
    FAIL() << "a truncated cell must not be silently half-read";
  } catch (const store::StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated"),
              std::string::npos)
        << error.what();
  }
}

TEST(StoreErrors, CorruptPayloadIsRejected) {
  const CampaignConfig config = dsr_config(16);
  TempStore root("corrupt");
  const store::CampaignStore store(root.path());
  store.run("control/operation-dsr", config, worker_options(2));

  const std::string cell = store.cell_path("control/operation-dsr", config);
  {
    std::fstream file(cell,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(cell) / 2));
    const char bit = '\xff';
    file.write(&bit, 1);
  }
  try {
    store.run("control/operation-dsr", config, worker_options(2));
    FAIL() << "a corrupt cell must not be silently accepted";
  } catch (const store::StoreError& error) {
    const std::string what = error.what();
    EXPECT_TRUE(what.find("checksum") != std::string::npos ||
                what.find("truncated") != std::string::npos)
        << what;
  }
}

TEST(StoreErrors, ForeignCellFileIsRefused) {
  // A cell copied onto another config's path (different seed -> different
  // fingerprint) must be refused, not served.
  CampaignConfig config_a = dsr_config(16);
  CampaignConfig config_b = dsr_config(16);
  config_b.input_seed = config_a.input_seed + 1;
  TempStore root("foreign");
  const store::CampaignStore store(root.path());
  store.run("control/operation-dsr", config_a, worker_options(2));

  std::filesystem::copy_file(
      store.cell_path("control/operation-dsr", config_a),
      store.cell_path("control/operation-dsr", config_b));
  try {
    store.run("control/operation-dsr", config_b, worker_options(2));
    FAIL() << "a foreign cell must not resume another config's campaign";
  } catch (const store::StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos)
        << error.what();
  }
}

TEST(StoreErrors, CellWriterRefusesAHeaderMismatch) {
  TempStore root("writer_mismatch");
  std::filesystem::create_directories(root.path());
  const std::string path = root.path() + "/cell.pxs";
  store::CellHeader header{"control/operation-dsr", 0xabcdu, 1, 2};
  { store::CellWriter writer(path, header); }
  store::CellHeader other = header;
  other.fingerprint = 0x1234u;
  EXPECT_THROW(store::CellWriter(path, other), store::StoreError);
}

TEST(StoreErrors, MetricslessCellCannotServeAMetricsCampaign) {
  CampaignConfig config = dsr_config(16);
  config.collect_metrics = false;
  TempStore root("metricsless");
  const store::CampaignStore store(root.path());
  store.run("control/operation-dsr", config, worker_options(2));

  CampaignConfig with_metrics = config;
  with_metrics.collect_metrics = true; // same fingerprint, same cell
  EXPECT_THROW(store.run("control/operation-dsr", with_metrics,
                         worker_options(2)),
               store::StoreError);
}

// ---------------------------------------------------------------------------
// Config fingerprint.
// ---------------------------------------------------------------------------

TEST(StoreFingerprint, KeysBySampleDeterminingFieldsOnly) {
  const CampaignConfig base = dsr_config(48);
  const std::uint64_t fingerprint = casestudy::config_fingerprint(base);

  // Sample-determining knobs change the key...
  CampaignConfig seed = base;
  seed.input_seed += 1;
  EXPECT_NE(casestudy::config_fingerprint(seed), fingerprint);
  CampaignConfig layout = base;
  layout.layout_seed += 1;
  EXPECT_NE(casestudy::config_fingerprint(layout), fingerprint);
  CampaignConfig corrupt = base;
  corrupt.control.corrupt_rate += 0.25;
  EXPECT_NE(casestudy::config_fingerprint(corrupt), fingerprint);
  CampaignConfig words = base;
  words.leak.words *= 2;
  EXPECT_NE(casestudy::config_fingerprint(words), fingerprint);
  CampaignConfig rounds = base;
  rounds.leak.rounds += 1;
  EXPECT_NE(casestudy::config_fingerprint(rounds), fingerprint);
  CampaignConfig taint = base;
  taint.taint = !base.taint; // adds or drops the leak.* metrics
  EXPECT_NE(casestudy::config_fingerprint(taint), fingerprint);

  // ...while fields that do not change any run's sample do not: the same
  // cell serves longer campaigns (prefix), either VM core (bit-identical
  // by the differential contract), faulted re-runs, and metrics toggles.
  CampaignConfig runs = base;
  runs.runs = 480;
  EXPECT_EQ(casestudy::config_fingerprint(runs), fingerprint);
  CampaignConfig core = base;
  core.vm_core = vm::VmCore::kReference;
  EXPECT_EQ(casestudy::config_fingerprint(core), fingerprint);
  CampaignConfig faulted = base;
  faulted.fault_at_run = 3;
  EXPECT_EQ(casestudy::config_fingerprint(faulted), fingerprint);
  CampaignConfig metrics = base;
  metrics.collect_metrics = !base.collect_metrics;
  EXPECT_EQ(casestudy::config_fingerprint(metrics), fingerprint);
  // The target kind overrides leak.hardened; the batched and per-word
  // reseed paths are bit-identical (dsr_rerandomise_test).
  CampaignConfig hardened = base;
  hardened.leak.hardened = !base.leak.hardened;
  EXPECT_EQ(casestudy::config_fingerprint(hardened), fingerprint);
  CampaignConfig per_word = base;
  per_word.dsr_options.batched_relocation = false;
  EXPECT_EQ(casestudy::config_fingerprint(per_word), fingerprint);
}

// One entry per settable value of the DSR pass and runtime options.  The
// structured bindings guard the table: a field added to either struct
// stops them compiling until it gets an entry here.
TEST(StoreFingerprint, FoldsEveryDsrOption) {
  const CampaignConfig base = dsr_config(48);
  const std::uint64_t fingerprint = casestudy::config_fingerprint(base);
  CampaignConfig probe = base;
  auto& [lazy_stubs] = probe.pass_options;
  auto& [offset_range, alignment, chunk_align, eager, randomise_code,
         randomise_stack, run_invalidation_routine, batched_relocation,
         code_pool] = probe.dsr_options;
  auto& [pool_base, pool_size] = code_pool;
  // Perturb one value, fingerprint the probe, restore the value.
  const auto changes_key = [&](auto& value, auto perturbed) {
    const auto saved = value;
    value = perturbed;
    const bool changed = casestudy::config_fingerprint(probe) != fingerprint;
    value = saved;
    return changed;
  };
  EXPECT_TRUE(changes_key(lazy_stubs, !lazy_stubs));
  EXPECT_TRUE(changes_key(offset_range, offset_range / 2));
  EXPECT_TRUE(changes_key(alignment, alignment * 2));
  EXPECT_TRUE(changes_key(chunk_align, chunk_align * 2));
  EXPECT_TRUE(changes_key(eager, !eager));
  EXPECT_TRUE(changes_key(randomise_code, !randomise_code));
  EXPECT_TRUE(changes_key(randomise_stack, !randomise_stack));
  EXPECT_TRUE(
      changes_key(run_invalidation_routine, !run_invalidation_routine));
  EXPECT_TRUE(changes_key(pool_base, pool_base + 0x10'0000));
  EXPECT_TRUE(changes_key(pool_size, pool_size / 2));
  // The documented exclusion: the batched and per-word reseed paths are
  // bit-identical (dsr_rerandomise_test), so either may fill a cell.
  EXPECT_FALSE(changes_key(batched_relocation, !batched_relocation));
}

TEST(StoreFingerprint, TaintOffCellDoesNotServeATaintOnCampaign) {
  // A taint-off cell carries no leak.* metrics: serving it to a taint-on
  // campaign would drop them without a word.
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  CampaignConfig off = registry.at("leak/beacon-dsr").make_config(16);
  off.collect_metrics = true;
  CampaignConfig on = off;
  on.taint = true;
  TempStore root("taint");
  const store::CampaignStore store(root.path());
  store.run("leak/beacon-dsr", off, worker_options(2));

  store::StoreStats stats;
  const CampaignResult stored =
      store.run("leak/beacon-dsr", on, worker_options(2), &stats);
  EXPECT_EQ(stats.stored_runs, 0u);
  EXPECT_EQ(stats.simulated_runs, 16u);
  const CampaignResult live =
      exec::CampaignEngine(worker_options(2)).run(on);
  expect_identical_campaigns(stored, live);
}

TEST(StoreFingerprint, LongerCampaignResumesFromAShorterCell) {
  // Same fingerprint, bigger runs: the short campaign's cell is the prefix
  // of the long one.
  CampaignConfig short_config = dsr_config(16);
  CampaignConfig long_config = dsr_config(40);
  TempStore root("grow");
  const store::CampaignStore store(root.path());
  store.run("control/operation-dsr", short_config, worker_options(2));

  store::StoreStats stats;
  const CampaignResult grown = store.run("control/operation-dsr",
                                         long_config, worker_options(2),
                                         &stats);
  EXPECT_EQ(stats.stored_runs, 16u);
  EXPECT_EQ(stats.simulated_runs, 24u);
  const CampaignResult live =
      exec::CampaignEngine(worker_options(2)).run(long_config);
  expect_identical_campaigns(grown, live);
}

} // namespace
