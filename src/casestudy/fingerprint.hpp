// Campaign-config fingerprinting for the on-disk campaign store.
//
// `config_fingerprint` folds every field of a `CampaignConfig` that
// influences *sample values* into a 64-bit FNV-1a digest.  Two configs with
// the same fingerprint produce bit-identical `RunSample`s at every run
// index (each run is a pure function of its index — campaign_runner.hpp),
// so stored results keyed by the fingerprint can serve any later campaign
// of the same config, at any requested length and any worker count.
//
// Deliberately EXCLUDED from the fold:
//   * `runs`          — the store serves prefixes of any length; the run
//                       count changes how many samples exist, never their
//                       values.
//   * `vm_core`       — both cores (fast, reference) are
//                       bit-identical by the differential-test contract
//                       (vm_differential), so any core may fill or read
//                       the same cell.
//   * `fault_at_run`  — fault injection aborts a campaign early; the
//                       samples collected before the fault are exactly the
//                       uninjected campaign's prefix.
//   * `collect_metrics` / `timeline` — observability never changes samples.
//   * `dsr_options.batched_relocation` — the batched and per-word reseed
//                       paths are bit-identical (dsr_rerandomise_test), so
//                       either may fill or read the same cell.
//   * `leak.hardened` — the target kind (kLeakyBeacon / kHardenedBeacon,
//                       folded as `measured`) overrides it.
//
// Every field is folded with a name tag, so adding a field (or reordering
// the struct) changes the fingerprint only when the fold itself is updated
// — and forgetting to update it is caught by the store tests' "new config
// knob must change the fingerprint" convention.
#pragma once

#include "casestudy/campaign.hpp"

#include <cstdint>
#include <string>

namespace proxima::casestudy {

/// 64-bit FNV-1a fold over the sample-determining fields of `config`.
std::uint64_t config_fingerprint(const CampaignConfig& config);

/// "0x%016x" rendering used for cell file names and manifests.
std::string fingerprint_hex(std::uint64_t fingerprint);

} // namespace proxima::casestudy
