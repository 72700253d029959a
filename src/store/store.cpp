#include "store.hpp"

#include "casestudy/fingerprint.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

namespace proxima::store {

namespace {

/// Scenario names contain '/' ("control/operation-dsr"); flatten to one
/// path component.  The fingerprint suffix keeps sanitised collisions
/// apart, and the header check catches the rest.
std::string sanitise(const std::string& scenario) {
  std::string out = scenario;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!keep) {
      c = '_';
    }
  }
  return out;
}

/// The loaded prefix, unpacked into the parallel arrays the engine's
/// `StoredPrefix` spans point at.
struct PrefixArrays {
  std::vector<casestudy::RunSample> samples;
  std::vector<obs::MetricsShard> run_metrics;
  std::vector<std::uint8_t> verified;

  exec::StoredPrefix view() const {
    exec::StoredPrefix prefix;
    prefix.samples = samples;
    prefix.run_metrics = run_metrics;
    prefix.verified = verified;
    return prefix;
  }
};

/// Load the cell (when present) and unpack its contiguous prefix, capped
/// at `limit` runs.  Enforces the metrics-presence contract: a config that
/// collects metrics cannot be served by records stored without them (the
/// per-run records are unrecoverable), while the converse merely ignores
/// the stored records.
PrefixArrays load_prefix(const std::string& path, const CellHeader& expected,
                         bool want_metrics, std::uint64_t limit) {
  PrefixArrays arrays;
  if (!std::filesystem::exists(path)) {
    return arrays;
  }
  CellData cell = load_cell(path);
  // The path already encodes (scenario, fingerprint), but a copied or
  // renamed cell file would otherwise be served silently — refuse to
  // resume from samples another configuration produced.
  if (cell.header.scenario != expected.scenario ||
      cell.header.fingerprint != expected.fingerprint) {
    throw StoreError(path + ": cell belongs to scenario '" +
                     cell.header.scenario + "' fingerprint " +
                     casestudy::fingerprint_hex(cell.header.fingerprint) +
                     ", expected '" + expected.scenario + "' " +
                     casestudy::fingerprint_hex(expected.fingerprint) +
                     "; delete it and re-run");
  }
  const std::uint64_t prefix =
      std::min<std::uint64_t>(cell.contiguous_prefix(), limit);
  arrays.samples.reserve(static_cast<std::size_t>(prefix));
  arrays.verified.reserve(static_cast<std::size_t>(prefix));
  if (want_metrics) {
    arrays.run_metrics.reserve(static_cast<std::size_t>(prefix));
  }
  for (std::uint64_t i = 0; i < prefix; ++i) {
    StoredRun& run = cell.runs[static_cast<std::size_t>(i)];
    if (want_metrics && !run.has_metrics) {
      throw StoreError(path + ": run " + std::to_string(run.index) +
                       " was stored without per-run metrics but this "
                       "campaign collects them; delete the cell or rerun "
                       "without metrics");
    }
    arrays.samples.push_back(std::move(run.sample));
    arrays.verified.push_back(run.verified ? 1 : 0);
    if (want_metrics) {
      arrays.run_metrics.push_back(std::move(run.metrics));
    }
  }
  return arrays;
}

/// Attach a persisting sample sink for `writer` to the engine options.
/// The engine serialises sink calls, so the writer needs no locking.  Every
/// record is stamped verified: a campaign verifies each collected run
/// against the golden model or throws.
void attach_sink(exec::EngineOptions& options,
                 const std::shared_ptr<CellWriter>& writer) {
  options.sample_sink =
      [writer](const exec::ShardRange& range,
               std::span<const casestudy::RunSample> samples,
               std::span<const obs::MetricsShard> run_metrics) {
        writer->append(range.begin, samples, run_metrics, true);
      };
}

void fill_stats(StoreStats* stats, std::uint64_t total_runs,
                std::uint64_t prefix_runs, std::uint64_t fingerprint,
                const std::string& path) {
  if (stats == nullptr) {
    return;
  }
  stats->stored_runs = std::min(prefix_runs, total_runs);
  stats->simulated_runs = total_runs - stats->stored_runs;
  stats->fingerprint = fingerprint;
  stats->cell_path = path;
}

} // namespace

CampaignStore::CampaignStore(std::string root) : root_(std::move(root)) {}

std::string
CampaignStore::cell_path(const std::string& scenario,
                         const casestudy::CampaignConfig& config) const {
  const std::uint64_t fingerprint = casestudy::config_fingerprint(config);
  return (std::filesystem::path(root_) /
          (sanitise(scenario) + "-" +
           casestudy::fingerprint_hex(fingerprint).substr(2) + ".pxs"))
      .string();
}

casestudy::CampaignResult
CampaignStore::run(const std::string& scenario,
                   const casestudy::CampaignConfig& config,
                   exec::EngineOptions options, StoreStats* stats) const {
  const std::uint64_t fingerprint = casestudy::config_fingerprint(config);
  const std::string path = cell_path(scenario, config);
  const CellHeader header{scenario, fingerprint, config.input_seed,
                          config.layout_seed};
  const PrefixArrays prefix =
      load_prefix(path, header, config.collect_metrics, config.runs);
  const std::uint64_t prefix_runs = prefix.samples.size();
  std::shared_ptr<CellWriter> writer;
  if (prefix_runs < config.runs) {
    // Something will execute: open (or create) the cell before the engine
    // starts so header mismatches surface before any simulation time is
    // spent.
    std::filesystem::create_directories(root_);
    writer = std::make_shared<CellWriter>(path, header);
    attach_sink(options, writer);
  }
  const exec::CampaignEngine engine(std::move(options));
  casestudy::CampaignResult result = engine.run(config, prefix.view());
  fill_stats(stats, config.runs, prefix_runs, fingerprint, path);
  return result;
}

exec::AdaptiveCampaignResult
CampaignStore::run_adaptive(const std::string& scenario,
                            const casestudy::CampaignConfig& config,
                            const exec::ConvergenceOptions& convergence,
                            exec::EngineOptions options,
                            StoreStats* stats) const {
  const std::uint64_t fingerprint = casestudy::config_fingerprint(config);
  const std::string path = cell_path(scenario, config);
  const std::uint64_t budget =
      convergence.max_runs == 0 ? config.runs : convergence.max_runs;
  const CellHeader header{scenario, fingerprint, config.input_seed,
                          config.layout_seed};
  const PrefixArrays prefix =
      load_prefix(path, header, config.collect_metrics, budget);
  const std::uint64_t prefix_runs = prefix.samples.size();
  std::shared_ptr<CellWriter> writer;
  if (prefix_runs < budget) {
    // The controller may stop inside the prefix, in which case the writer
    // appends nothing — opening it is still cheap and keeps one code path.
    std::filesystem::create_directories(root_);
    writer = std::make_shared<CellWriter>(path, header);
    attach_sink(options, writer);
  }
  const exec::CampaignEngine engine(std::move(options));
  exec::AdaptiveCampaignResult result =
      engine.run_adaptive(config, convergence, prefix.view());
  fill_stats(stats, result.runs(), prefix_runs, fingerprint, path);
  return result;
}

} // namespace proxima::store
