// Campaign store: the orchestration layer over on-disk cells (cell.hpp).
//
// `CampaignStore::run` / `run_adaptive` are drop-in replacements for the
// engine calls of the same shape, with persistence on both sides of the
// execution:
//
//   1. The cell for (scenario, config fingerprint) is loaded (if present)
//      and its longest contiguous run prefix becomes an
//      `exec::StoredPrefix` — the engine splices it into the result and
//      executes only the remainder, so an interrupted campaign resumes
//      bit-identically to an uninterrupted one at any worker count.
//   2. A `SampleSink` streams every freshly completed shard back into the
//      cell, so the next invocation starts where this one ended — whether
//      it ended by finishing, by a fault, or by a killed process (completed
//      shards persist; partial shards never reach the sink).
//
// A campaign fully covered by the store executes zero runs: `proxima
// report --store` and `proxima sweep` re-render entirely from disk, and
// `StoreStats::simulated_runs` is the machine-checkable witness (the sweep
// manifest asserts it is 0 on a warm cache).
#pragma once

#include "casestudy/campaign.hpp"
#include "exec/engine.hpp"
#include "store/cell.hpp"

#include <cstdint>
#include <string>

namespace proxima::store {

/// What one store-backed campaign did, for manifests and header JSON.
struct StoreStats {
  std::uint64_t stored_runs = 0;    // served from the cell
  std::uint64_t simulated_runs = 0; // freshly executed (and persisted)
  std::uint64_t fingerprint = 0;
  std::string cell_path;
};

class CampaignStore {
public:
  /// `root` is a directory (created on first write) holding one cell file
  /// per (scenario, fingerprint): `<sanitised-scenario>-<16-hex>.pxs`.
  explicit CampaignStore(std::string root);

  const std::string& root() const noexcept { return root_; }

  /// The cell file `config` maps to (pure path computation — the file may
  /// not exist yet).
  std::string cell_path(const std::string& scenario,
                        const casestudy::CampaignConfig& config) const;

  /// Fixed-length campaign through the store: resume from the cell's
  /// prefix, execute the remainder with an engine built from `options`
  /// (its sample_sink slot is taken by the store), persist every completed
  /// shard.  Throws StoreError on a corrupt cell, a fingerprint mismatch,
  /// or a cell stored without metrics when `config.collect_metrics` is on.
  casestudy::CampaignResult run(const std::string& scenario,
                                const casestudy::CampaignConfig& config,
                                exec::EngineOptions options,
                                StoreStats* stats = nullptr) const;

  /// Adaptive campaign through the store.  Stored batches replay through
  /// the convergence controller without executing (run-index order at the
  /// same batch boundaries — the stop decision matches the live campaign
  /// exactly), so resuming an adaptive campaign is bit-identical too.
  exec::AdaptiveCampaignResult
  run_adaptive(const std::string& scenario,
               const casestudy::CampaignConfig& config,
               const exec::ConvergenceOptions& convergence,
               exec::EngineOptions options, StoreStats* stats = nullptr) const;

private:
  std::string root_;
};

} // namespace proxima::store
