#include "registry.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace proxima::exec {

namespace {

/// Levenshtein edit distance, small-string DP (scenario names are short).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// Registered families ("control/", "hv/", ...) with member counts, in
/// sorted order.
std::map<std::string, std::size_t>
family_counts(const std::vector<std::string>& names) {
  std::map<std::string, std::size_t> families;
  for (const std::string& name : names) {
    const std::size_t slash = name.find('/');
    ++families[slash == std::string::npos ? name
                                          : name.substr(0, slash + 1)];
  }
  return families;
}

} // namespace

std::vector<std::string> closest_names(std::string_view query,
                                       const std::vector<std::string>& names) {
  const std::size_t threshold = std::max<std::size_t>(2, query.size() / 3);
  std::vector<std::pair<std::size_t, std::string>> scored;
  for (const std::string& name : names) {
    const std::size_t distance = edit_distance(query, name);
    if (distance <= threshold) {
      scored.emplace_back(distance, name);
    }
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::string> result;
  for (std::size_t i = 0; i < scored.size() && i < 3; ++i) {
    result.push_back(scored[i].second);
  }
  return result;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("scenario name must not be empty");
  }
  if (!scenario.make_config) {
    throw std::invalid_argument("scenario '" + scenario.name +
                                "' has no config factory");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key = scenario.name; // keep the key independent of the move
  const auto [it, inserted] =
      scenarios_.emplace(std::move(key), std::move(scenario));
  if (!inserted) {
    throw std::invalid_argument("scenario '" + it->first +
                                "' is already registered");
  }
}

bool ScenarioRegistry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scenarios_.find(name) != scenarios_.end();
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
  if (const Scenario* scenario = find(name)) {
    return *scenario;
  }
  // A growing registry makes the bare "unknown scenario" error unusable:
  // lead with the closest matches and the family map, then the catalogue.
  const std::vector<std::string> known = names();
  std::ostringstream oss;
  oss << "unknown scenario '" << name << "'";
  const std::vector<std::string> closest = closest_names(name, known);
  if (!closest.empty()) {
    oss << "; did you mean:";
    for (const std::string& suggestion : closest) {
      oss << ' ' << suggestion;
    }
    oss << '?';
  }
  oss << "\nfamilies:";
  for (const auto& [family, count] : family_counts(known)) {
    oss << ' ' << family << '(' << count << ')';
  }
  oss << "\nknown scenarios:";
  for (const std::string& name_ : known) {
    oss << "\n  " << name_;
  }
  throw std::out_of_range(oss.str());
}

std::vector<std::string> ScenarioRegistry::names(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> result;
  result.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    (void)scenario;
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      result.push_back(name); // std::map iterates in sorted order
    }
  }
  return result;
}

std::size_t ScenarioRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scenarios_.size();
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* fresh = new ScenarioRegistry;
    register_default_scenarios(*fresh);
    return fresh;
  }();
  return *registry;
}

// ---------------------------------------------------------------------------
// Default catalogue.
// ---------------------------------------------------------------------------

namespace {

using casestudy::CampaignConfig;
using casestudy::Layout;
using casestudy::MeasuredTargetKind;
using casestudy::PrngKind;
using casestudy::Randomisation;

/// Operation-like protocol: fresh random inputs every activation
/// (Figure 2 / Table I conditions).
CampaignConfig operation_base(Randomisation randomisation,
                              std::uint32_t runs) {
  CampaignConfig config;
  config.runs = runs;
  config.randomisation = randomisation;
  return config;
}

/// Analysis-like protocol: one pinned stress input (recovery path forced),
/// so the measured variability is the platform's (MBPTA methodology,
/// Figure 3).
CampaignConfig analysis_base(Randomisation randomisation,
                             std::uint32_t runs) {
  CampaignConfig config = operation_base(randomisation, runs);
  config.fixed_inputs = true;
  config.control.corrupt_rate = 1.0;
  return config;
}

/// Hypervisor campaigns: the analysis protocol (pinned control input) on
/// the partitioned platform, so the measured spread is attributable to the
/// layout (DSR) and to the guests' interference alone.  The image guest is
/// scaled down to a 6x6 lens grid: its ~42 KiB frame sweep still evicts
/// the whole 32 KiB direct-mapped L2 every minor frame while keeping
/// registry-default campaigns CI-sized.
CampaignConfig hv_base(Randomisation randomisation, std::uint32_t runs) {
  CampaignConfig config = analysis_base(randomisation, runs);
  casestudy::HvCampaignConfig hv;
  hv.frames = 10; // the paper's 1 s control period over 100 ms frames
  config.hypervisor = hv;
  return config;
}

casestudy::ImageParams hv_image_params() {
  casestudy::ImageParams params;
  params.grid = 6;
  return params;
}

/// Image-task measured campaigns (the second case-study axis: an
/// input-dependent-duration workload).  Operation protocol: a fresh sensor
/// frame every activation, so the measured spread mixes program (lit-lens
/// selection) and platform variability — the regime where plain MBPTA
/// struggles.  Registry defaults use the same CI-sized 6x6 lens grid as
/// the hv guest; `ImageParams` scale it back up to the paper's 12x12.
CampaignConfig image_operation_base(Randomisation randomisation,
                                    std::uint32_t runs) {
  CampaignConfig config = operation_base(randomisation, runs);
  config.measured = MeasuredTargetKind::kImage;
  config.image = hv_image_params();
  return config;
}

/// Image analysis protocol (MBPTA methodology): ONE pinned frame with
/// every lens lit — the all-lenses worst-case path, the image task's
/// analogue of the control task's pinned corrupt-packet recovery — so the
/// measured variability is the platform's alone.
CampaignConfig image_analysis_base(Randomisation randomisation,
                                   std::uint32_t runs) {
  CampaignConfig config = image_operation_base(randomisation, runs);
  config.fixed_inputs = true;
  config.image.lit_fraction = 1.0;
  return config;
}

/// Hypervisor campaigns measuring the IMAGE partition: the image analysis
/// protocol on the cyclic schedule with the control task riding as an
/// every-frame interference guest (fresh spacecraft-bus inputs per frame
/// from its fixed partition stream).
CampaignConfig hv_image_base(Randomisation randomisation,
                             std::uint32_t runs) {
  CampaignConfig config = image_analysis_base(randomisation, runs);
  casestudy::HvCampaignConfig hv;
  hv.frames = 10;
  hv.control_guest = true;
  config.hypervisor = hv;
  return config;
}

/// Leak-beacon campaigns (the `leak/` family): the address-leak analysis
/// subject of `proxima lint`.  Fresh input blocks per activation (the task
/// has no persistent state); the scenarios themselves leave dynamic taint
/// OFF so their time digests stay lockable — lint and the tests flip
/// `CampaignConfig::taint` on top of the same configs.
CampaignConfig leak_base(MeasuredTargetKind kind, Randomisation randomisation,
                         std::uint32_t runs) {
  CampaignConfig config = operation_base(randomisation, runs);
  config.measured = kind;
  return config;
}

struct NamedRandomisation {
  const char* key;
  const char* label;
  Randomisation randomisation;
};

constexpr NamedRandomisation kRandomisations[] = {
    {"cots", "fixed COTS layout", Randomisation::kNone},
    {"dsr", "dynamic software randomisation", Randomisation::kDsr},
    {"static", "static per-run re-link", Randomisation::kStatic},
    {"hwrand", "hardware time-randomised caches", Randomisation::kHardware},
};

} // namespace

void register_default_scenarios(ScenarioRegistry& registry) {
  // The paper's two measurement protocols, for every randomisation
  // technology under comparison.
  for (const NamedRandomisation& r : kRandomisations) {
    registry.add(Scenario{
        std::string("control/operation-") + r.key,
        std::string("control task, operation-like inputs, ") + r.label,
        [randomisation = r.randomisation](std::uint32_t runs) {
          return operation_base(randomisation, runs);
        }});
    registry.add(Scenario{
        std::string("control/analysis-") + r.key,
        std::string("control task, pinned stress input (MBPTA), ") + r.label,
        [randomisation = r.randomisation](std::uint32_t runs) {
          return analysis_base(randomisation, runs);
        }});
  }

  // Layout sweep: the engineered bad-and-rare COTS layout vs a
  // conflict-free placement (ablation baseline).
  registry.add(Scenario{
      "control/layout-neutral",
      "control task on the deliberately conflict-free link layout",
      [](std::uint32_t runs) {
        CampaignConfig config = operation_base(Randomisation::kNone, runs);
        config.layout = Layout::kNeutral;
        return config;
      }});

  // PRNG sweep: the paper selects MWC; LFSR is the qualified alternative
  // (ablation A4).
  registry.add(Scenario{
      "control/prng-lfsr",
      "DSR with the LFSR random source instead of MWC",
      [](std::uint32_t runs) {
        CampaignConfig config = operation_base(Randomisation::kDsr, runs);
        config.prng = PrngKind::kLfsr;
        return config;
      }});

  // Lazy relocation scheme: per-function first-call traps instead of the
  // eager start-up loop (the trade-off of Section III.B.1).  Also the
  // scenario that rewrites code *mid-activation*, which is what the fast
  // VM core's decode-cache coherence is differentially tested against.
  registry.add(Scenario{
      "control/dsr-lazy",
      "DSR with lazy first-call relocation instead of the eager loop",
      [](std::uint32_t runs) {
        CampaignConfig config = operation_base(Randomisation::kDsr, runs);
        config.pass_options.lazy_stubs = true;
        config.dsr_options.eager = false;
        return config;
      }});

  // Offset-range sweep: shrinking the random-offset range to the L1 way
  // size shows what randomising only the L1 layout would lose (ablation).
  registry.add(Scenario{
      "control/offset-l1",
      "DSR with the offset range shrunk to the L1 way size (4 KiB)",
      [](std::uint32_t runs) {
        CampaignConfig config = operation_base(Randomisation::kDsr, runs);
        config.dsr_options.offset_range = 4 * 1024;
        return config;
      }});

  // Fixed-input stress without randomisation: the validation expert's
  // worst-case scenario on the bare COTS platform, with the recovery path
  // pinned on but inputs still varying run to run.
  registry.add(Scenario{
      "control/stress-corrupt",
      "control task with every activation carrying a corrupt packet",
      [](std::uint32_t runs) {
        CampaignConfig config = operation_base(Randomisation::kNone, runs);
        config.control.corrupt_rate = 1.0;
        return config;
      }});

  // On-demand re-randomisation (MARDU-style, ISSUE 10): the DSR arm that
  // also reseeds MID-RUN whenever the configured trigger fires — a taint
  // sink-store on the bare platform (the runner forces taint tracking on),
  // a partition switch under the hypervisor.  The control task never
  // stores a layout-derived value into its observable outputs, so this
  // scenario prices the always-armed trigger machinery itself; the
  // leak/beacon-ondemand scenario below is the one where the bare trigger
  // actually fires.
  registry.add(Scenario{
      "control/dsr-ondemand",
      "DSR with the on-demand reseed trigger armed (taint sink-store)",
      [](std::uint32_t runs) {
        return operation_base(Randomisation::kDsrOnDemand, runs);
      }});

  // Hypervisor campaigns (Section IV's PikeOS setting): the control task
  // measured on the cyclic schedule, solo and under guest interference.
  // hv/control-solo reproduces the bare analysis protocol (no guests run
  // before the measured activation), so the solo-vs-guest delta isolates
  // the interference itself.
  registry.add(Scenario{
      "hv/control-solo",
      "control task alone on the cyclic schedule (interference baseline)",
      [](std::uint32_t runs) { return hv_base(Randomisation::kNone, runs); }});
  registry.add(Scenario{
      "hv/control+image",
      "control task with the image task as guest partition, COTS layout",
      [](std::uint32_t runs) {
        CampaignConfig config = hv_base(Randomisation::kNone, runs);
        config.hypervisor->image_guest = true;
        config.image = hv_image_params();
        return config;
      }});
  registry.add(Scenario{
      "hv/control+image-dsr",
      "control task with the image guest, DSR-randomised per reboot",
      [](std::uint32_t runs) {
        CampaignConfig config = hv_base(Randomisation::kDsr, runs);
        config.hypervisor->image_guest = true;
        config.image = hv_image_params();
        return config;
      }});
  registry.add(Scenario{
      "hv/control+image-ondemand",
      "control task with the image guest, layout reseeded at every "
      "partition switch (on-demand DSR)",
      [](std::uint32_t runs) {
        CampaignConfig config = hv_base(Randomisation::kDsrOnDemand, runs);
        config.hypervisor->image_guest = true;
        config.image = hv_image_params();
        return config;
      }});
  registry.add(Scenario{
      "hv/control+stress",
      "control task with the synthetic L2-evicting stressor guest",
      [](std::uint32_t runs) {
        CampaignConfig config = hv_base(Randomisation::kNone, runs);
        config.hypervisor->stressor_guest = true;
        return config;
      }});

  // The image task as a MEASURED workload (ROADMAP: the second case-study
  // axis): input-dependent duration under each randomisation technology,
  // operation- and analysis-like (static re-link works on the bare
  // platform; the hv variants below exclude it as always).
  for (const NamedRandomisation& r : kRandomisations) {
    if (r.randomisation == Randomisation::kStatic) {
      continue; // keep the family at the techs the paper compares for it
    }
    registry.add(Scenario{
        std::string("image/operation-") + r.key,
        std::string("image task (input-dependent duration), fresh frames, ") +
            r.label,
        [randomisation = r.randomisation](std::uint32_t runs) {
          return image_operation_base(randomisation, runs);
        }});
    registry.add(Scenario{
        std::string("image/analysis-") + r.key,
        std::string("image task, pinned all-lenses-lit frame (MBPTA), ") +
            r.label,
        [randomisation = r.randomisation](std::uint32_t runs) {
          return image_analysis_base(randomisation, runs);
        }});
  }

  // The address-leak beacon family (ISSUE 8: `proxima lint` subjects).
  // beacon-* publish their own return address in an observable status
  // field — under DSR that address is the per-reboot layout, the secrecy
  // violation the analyzer exists to catch; hardened-dsr is the fixed
  // variant (constant in the same field) and must lint clean.
  registry.add(Scenario{
      "leak/beacon-dsr",
      "leaky beacon (return address in lk_status) under DSR — lint flags it",
      [](std::uint32_t runs) {
        return leak_base(MeasuredTargetKind::kLeakyBeacon, Randomisation::kDsr,
                         runs);
      }});
  registry.add(Scenario{
      "leak/hardened-dsr",
      "hardened beacon (constant in the status field) under DSR — lint clean",
      [](std::uint32_t runs) {
        return leak_base(MeasuredTargetKind::kHardenedBeacon,
                         Randomisation::kDsr, runs);
      }});
  registry.add(Scenario{
      "leak/beacon-cots",
      "leaky beacon on the fixed COTS layout (leak exists, nothing secret)",
      [](std::uint32_t runs) {
        return leak_base(MeasuredTargetKind::kLeakyBeacon, Randomisation::kNone,
                         runs);
      }});

  // The leaky beacon under on-demand DSR: every detected sink-store
  // reseeds the layout mid-run, so the published address is stale by the
  // time an observer could read it — the MARDU-style moving-target answer
  // to the leak the lint verb reports.
  registry.add(Scenario{
      "leak/beacon-ondemand",
      "leaky beacon with on-demand DSR: each detected leak reseeds the "
      "layout mid-run",
      [](std::uint32_t runs) {
        return leak_base(MeasuredTargetKind::kLeakyBeacon,
                         Randomisation::kDsrOnDemand, runs);
      }});

  // Cross-partition exposure: the leaky beacon measured on the cyclic
  // schedule with the control task riding as an observer guest — the
  // quantified version of "another partition can read the layout bits the
  // beacon publishes" (the beacon's status block lives in shared guest
  // memory).
  registry.add(Scenario{
      "leak/observer-hv",
      "leaky beacon under DSR with a control-task observer partition",
      [](std::uint32_t runs) {
        CampaignConfig config =
            leak_base(MeasuredTargetKind::kLeakyBeacon, Randomisation::kDsr,
                      runs);
        casestudy::HvCampaignConfig hv;
        hv.frames = 10;
        hv.control_guest = true;
        config.hypervisor = hv;
        return config;
      }});

  // Hypervisor campaigns with the IMAGE partition measured under
  // control-task interference (ROADMAP "measured-partition selection"):
  // the mirror image of hv/control+image.
  registry.add(Scenario{
      "hv/image+control",
      "image task measured under control-task interference, COTS layout",
      [](std::uint32_t runs) { return hv_image_base(Randomisation::kNone,
                                                    runs); }});
  registry.add(Scenario{
      "hv/image+control-dsr",
      "image task measured under control-task interference, DSR per reboot",
      [](std::uint32_t runs) { return hv_image_base(Randomisation::kDsr,
                                                    runs); }});
}

} // namespace proxima::exec
