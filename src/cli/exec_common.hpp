// Internal CLI plumbing shared by commands.cpp and sweep.cpp: scenario
// selection, campaign execution (bare engine or store-backed), and the
// JSON sections every campaign document is assembled from.
//
// `proxima::cli::detail` is NOT part of the library surface — the unit of
// reuse is the rendered JSON document, not these helpers.  They live in a
// header only so `proxima sweep` can emit scenario sections that are
// bit-compatible with `proxima report` (the sweep --baseline gate diffs
// the two shapes against each other).
#pragma once

#include "cli/json_writer.hpp"
#include "cli/options.hpp"
#include "exec/engine.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/timeline.hpp"
#include "store/store.hpp"

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace proxima::cli::detail {

/// One executed scenario: the campaign, its wall time, (adaptive) the
/// convergence trace, and (store-backed) the cell statistics.
struct Execution {
  std::string name;
  casestudy::CampaignConfig config;
  casestudy::CampaignResult result;
  double seconds = 0.0;
  std::optional<exec::AdaptiveCampaignResult> adaptive; // trace only
  std::uint64_t budget = 0;     // adaptive: --runs
  std::uint64_t batch_runs = 0; // adaptive growth quantum
  unsigned workers = 0;         // resolved count the engine actually uses
  /// Set when the campaign ran through `--store`: how many runs were
  /// served from the cell vs freshly simulated, and where the cell lives.
  std::optional<store::StoreStats> store;

  std::uint64_t guest_instructions() const {
    std::uint64_t total = 0;
    for (const casestudy::RunSample& sample : result.samples) {
      total += sample.counters.instructions;
    }
    return total;
  }
  double minstr_per_second() const {
    return seconds <= 0.0
               ? 0.0
               : static_cast<double>(guest_instructions()) / seconds / 1e6;
  }
};

/// Expand `--all` / validate `--scenario` names against the registry.
/// Throws std::out_of_range (listing the catalogue) on an unknown name.
std::vector<std::string> selected_scenarios(const CampaignOptions& options);

/// The scenario's config with the CLI knobs (seed, vm core, frames)
/// applied.
casestudy::CampaignConfig scenario_config(const std::string& name,
                                          const CampaignOptions& options);

/// Adaptive growth quantum: `--batch`, or max(50, runs/10).
std::uint64_t effective_batch(const CampaignOptions& options);

/// The convergence-loop configuration `--adaptive` campaigns run under.
exec::ConvergenceOptions convergence_options(const CampaignOptions& options);

/// Execute one scenario — through the campaign store when
/// `options.store_dir` is set (resume + persist), bare engine otherwise.
Execution execute_scenario(const std::string& name,
                           const CampaignOptions& options,
                           obs::Timeline* timeline, std::ostream& err);

/// Execute every selected scenario, then write the shared `--trace-out`
/// timeline.  A campaign fault on a later scenario propagates BEFORE any
/// output, so machine consumers never see a truncated document.
std::vector<Execution> execute_selected(const CampaignOptions& options,
                                        std::ostream& err);

/// Serialise a timeline to `--trace-out FILE`; failures surface as a
/// campaign fault (exit 3).
void write_trace_file(const obs::Timeline& timeline, const std::string& path);

/// A `--partition` name matching no partition of any selected scenario is
/// a usage error, raised BEFORE any output.
void validate_partition_filter(const std::vector<const Execution*>& executions,
                               const CampaignOptions& options);

/// MBPTA analysis of one execution, with the same fit configuration the
/// campaign ran under (adaptive campaigns reuse the controller's tail-fit
/// config — the reported fit is the one whose stability was certified).
struct Analysed {
  std::optional<mbpta::MbptaAnalysis> analysis;
  std::string error; // set when `analysis` is absent (campaign too short)
};
Analysed analyse_execution(const Execution& execution,
                           const CampaignOptions& options);

// JSON sections of a scenario object inside a campaign document.  The
// sweep document reuses these verbatim so `proxima diff` / the baseline
// gate can compare sweep output against report output scenario-by-
// scenario.
void write_execution_header_json(JsonWriter& json, const Execution& execution,
                                 const CampaignOptions& options);
void write_adaptive_json(JsonWriter& json, const Execution& execution);
void write_times_json(JsonWriter& json, const Execution& execution);
void write_partitions_json(JsonWriter& json, const Execution& execution,
                           const CampaignOptions& options);
void write_throughput_json(JsonWriter& json, const Execution& execution);
void write_metrics_json(JsonWriter& json, const Execution& execution);
/// The `"analysis"` section (or null + "analysis_error").
void write_analysis_json(JsonWriter& json, const Analysed& analysed,
                         int decades);

} // namespace proxima::cli::detail
