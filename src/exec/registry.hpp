// Scenario registry: named, runnable measurement workloads.
//
// Campaigns, benches and examples used to hand-roll `CampaignConfig`s;
// the registry names them once so every consumer enumerates the same
// catalogue: the paper's operation-like and analysis-like protocols for
// each randomisation technology (COTS / DSR / static re-link / hardware
// time-randomised caches) plus the layout, PRNG and offset-range sweeps
// and the fixed-input stress scenarios of the ablation study.  Three
// families: `control/` (the control task on the bare platform), `image/`
// (the input-dependent-duration image task as the measured workload), and
// `hv/` (hypervisor campaigns, named `<measured>+<guest>`).
//
// The registry is append-only and thread-safe: workloads may be registered
// and looked up concurrently.  `Scenario` references obtained from lookups
// stay valid for the registry's lifetime.
#pragma once

#include "casestudy/campaign.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace proxima::exec {

struct Scenario {
  /// Hierarchical name, e.g. "control/operation-dsr".
  std::string name;
  /// One-line human description (printed by benches and catalogues).
  std::string description;
  /// Build the campaign configuration for the requested number of
  /// measured runs.  Must be pure (no shared state): the engine may call
  /// it from any thread.
  std::function<casestudy::CampaignConfig(std::uint32_t runs)> make_config;
};

class ScenarioRegistry {
public:
  /// Register a scenario.  Throws std::invalid_argument on an empty name,
  /// a missing factory, or a duplicate.
  void add(Scenario scenario);

  bool contains(std::string_view name) const;

  /// nullptr when absent.  The pointer stays valid for the registry's
  /// lifetime (append-only, node-based storage).
  const Scenario* find(std::string_view name) const;

  /// Lookup that throws std::out_of_range listing the known names —
  /// the error a user sees after a typo on a bench command line.
  const Scenario& at(std::string_view name) const;

  /// All names, sorted; with `prefix`, only names starting with it
  /// (e.g. "control/analysis-").
  std::vector<std::string> names(std::string_view prefix = {}) const;

  std::size_t size() const;

  /// The process-wide registry, pre-populated with the default scenario
  /// catalogue below.
  static ScenarioRegistry& global();

private:
  mutable std::mutex mutex_;
  std::map<std::string, Scenario, std::less<>> scenarios_;
};

/// Register the built-in catalogue into `registry` (used by `global()`;
/// callable on a fresh registry in tests).
void register_default_scenarios(ScenarioRegistry& registry);

/// The did-you-mean list for a typo: at most three of `names`, nearest
/// (Levenshtein) first, ties by name; only names within a third of the
/// query's length (so 'nope' suggests nothing rather than everything).
/// Unknown scenarios and the CLI's enumerated flags share it.
std::vector<std::string> closest_names(std::string_view query,
                                       const std::vector<std::string>& names);

} // namespace proxima::exec
