// Command-line parsing for the `proxima` CLI.
//
// Kept free of I/O and of campaign execution so the parser is unit-testable
// in isolation: `parse_command_line` maps argv to a `Command` or throws
// `UsageError` with the offending flag in the message.
#pragma once

#include "casestudy/campaign.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace proxima::cli {

/// A malformed invocation (unknown flag, missing value, bad number).  The
/// driver prints the message plus the usage text and exits non-zero.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class OutputFormat : std::uint8_t { kText, kJson, kCsv };

/// Options shared by `run` and `report` (and `--format` by `list`).
struct CampaignOptions {
  /// Scenarios named via repeated `--scenario`; `--all` selects the whole
  /// registry catalogue instead.
  std::vector<std::string> scenarios;
  bool all = false;
  /// Measured runs; under `--adaptive` this is the campaign budget the
  /// convergence loop may stop short of.
  std::uint32_t runs = 1000;
  bool adaptive = false;
  /// Adaptive growth quantum (`--batch`); 0 picks max(50, runs/10).
  std::uint64_t batch_runs = 0;
  unsigned workers = 0; // 0: hardware concurrency
  /// `--seed S`: input seed S, layout seed splitmix64_mix(S) — one knob
  /// reseeds the whole campaign deterministically.
  std::optional<std::uint64_t> seed;
  vm::VmCore vm_core = vm::VmCore::kFast;
  /// `--randomisation R`: override the scenario's randomisation technology
  /// (cots|dsr|dsr-ondemand|static|hwrand); unset keeps the scenario's
  /// registered arm.
  std::optional<casestudy::Randomisation> randomisation;
  OutputFormat format = OutputFormat::kText;
  /// `report`: pWCET curve depth in decades.
  int decades = 16;
  /// `--frames N`: minor frames per measured run of an hv/ scenario
  /// (rejected for bare-platform scenarios); unset keeps the scenario's
  /// default schedule.
  std::optional<std::uint32_t> frames;
  /// `--partition NAME`: restrict the per-partition report sections to one
  /// partition (hv/ scenarios emit all partitions by default).
  std::optional<std::string> partition;
  /// `--trace-out FILE`: write a Chrome trace_event JSON timeline of the
  /// campaign (engine worker runs, adaptive batches, hv partition frames)
  /// — load it in chrome://tracing or Perfetto.  Empty: tracing off.
  std::string trace_out;
  /// `--progress`: live completed/total progress line on stderr while the
  /// campaigns execute (stderr so piped --format json/csv stays clean).
  bool progress = false;
  /// `--store DIR`: run campaigns through the on-disk campaign store —
  /// stored runs are served without simulating, fresh runs are persisted
  /// per completed shard (interrupted campaigns resume bit-identically).
  /// Empty: no persistence.  Required by `sweep`.
  std::string store_dir;
};

/// Options specific to `proxima sweep` (combined with CampaignOptions for
/// the shared campaign knobs).
struct SweepOptions {
  /// `--seed S` (repeatable): the seed axis of the scenario × seed grid.
  /// Empty: every scenario runs once at its default seeds.
  std::vector<std::uint64_t> seeds;
  /// `--manifest FILE`: where the machine-readable sweep manifest goes
  /// (default `<store>/sweep-manifest.json`).
  std::string manifest;
  /// `--baseline FILE`: gate the sweep against a stored report document
  /// with the diff engine; drift exits 1 (same contract as `proxima
  /// diff`).
  std::string baseline;
  /// Tolerance for the `--baseline` gate (same semantics as diff).
  double tolerance = 0.0;
};

/// Options for `proxima diff <baseline.json> <candidate.json>`: compare
/// two saved JSON reports and flag pWCET/MOET/counter shifts beyond the
/// tolerance.
struct DiffOptions {
  std::string baseline;
  std::string candidate;
  /// `--against SCENARIO`: instead of a baseline file, run the named
  /// registry scenario on the fly — mirroring the candidate report's
  /// runs/seed/frames/vm-core — and diff the candidate against the fresh
  /// result.  Mutually exclusive with a second positional path.
  std::string against;
  /// Maximum relative shift |a-b| / max(|a|,|b|) that still counts as
  /// equal.  0 (default) demands bit-exact numbers AND matching digests;
  /// with a tolerance > 0 the digests are informational only (times may
  /// legitimately differ within the band).
  double tolerance = 0.0;
  /// `--format json`: machine-readable drift report (per-drift records +
  /// summary) instead of the human text.  Exit codes are identical.
  OutputFormat format = OutputFormat::kText;
};

struct Command {
  enum class Kind : std::uint8_t {
    kHelp,
    kList,
    kRun,
    kReport,
    kDiff,
    kProfile,
    kSweep,
    kLint,
  };
  Kind kind = Kind::kHelp;
  CampaignOptions options;
  DiffOptions diff;
  SweepOptions sweep;
};

/// Parse `args` (argv without the program name).  Throws UsageError.
Command parse_command_line(std::span<const char* const> args);

/// The core named `text` (fast|reference): the one table of core names
/// behind `--vm-core` and `diff --against`.  Throws UsageError prefixed
/// with `context` (the flag or document field), listing the names and
/// the closest matches.
vm::VmCore parse_vm_core(std::string_view context, std::string_view text);

/// The `--vm-core` spelling of `core`, read back from the same table.
const char* vm_core_name(vm::VmCore core);

/// The full usage text (also the `help` command's output).
std::string usage();

} // namespace proxima::cli
