#include "options.hpp"

#include "exec/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

namespace proxima::cli {

namespace {

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw UsageError(std::string(flag) + ": expected a number, got '" +
                     std::string(text) + "'");
  }
  return value;
}

OutputFormat parse_format(std::string_view text) {
  if (text == "text") {
    return OutputFormat::kText;
  }
  if (text == "json") {
    return OutputFormat::kJson;
  }
  if (text == "csv") {
    return OutputFormat::kCsv;
  }
  throw UsageError("--format: expected text|json|csv, got '" +
                   std::string(text) + "'");
}

/// The entry of `choices` that `name_of` spells `text`: the one parser
/// behind --randomisation and --vm-core.  An unknown spelling throws a
/// UsageError prefixed with `context` that lists every spelling, in table
/// order, and the closest matches.
template <typename T, std::size_t N, typename NameOf>
const T& parse_choice(std::string_view context, std::string_view text,
                      const T (&choices)[N], NameOf name_of) {
  std::vector<std::string> names;
  for (const T& choice : choices) {
    if (text == name_of(choice)) {
      return choice;
    }
    names.emplace_back(name_of(choice));
  }
  std::string message = std::string(context) + ": expected ";
  for (std::size_t i = 0; i < names.size(); ++i) {
    message += (i == 0 ? "" : "|") + names[i];
  }
  message += ", got '" + std::string(text) + "'";
  const std::vector<std::string> closest = exec::closest_names(text, names);
  if (!closest.empty()) {
    message += "; did you mean:";
    for (const std::string& name : closest) {
      message += ' ';
      message += name;
    }
    message += '?';
  }
  throw UsageError(message);
}

casestudy::Randomisation parse_randomisation(std::string_view text) {
  static constexpr casestudy::Randomisation kArms[] = {
      casestudy::Randomisation::kNone,
      casestudy::Randomisation::kDsr,
      casestudy::Randomisation::kDsrOnDemand,
      casestudy::Randomisation::kStatic,
      casestudy::Randomisation::kHardware,
  };
  return parse_choice("--randomisation", text, kArms,
                      casestudy::randomisation_name);
}

/// The --vm-core spellings, in the order its usage errors list them.
constexpr std::pair<const char*, vm::VmCore> kVmCores[] = {
    {"fast", vm::VmCore::kFast},
    {"reference", vm::VmCore::kReference},
};

} // namespace

vm::VmCore parse_vm_core(std::string_view context, std::string_view text) {
  return parse_choice(context, text, kVmCores,
                      [](const auto& entry) { return entry.first; })
      .second;
}

const char* vm_core_name(vm::VmCore core) {
  for (const auto& [name, value] : kVmCores) {
    if (value == core) {
      return name;
    }
  }
  return "?";
}

Command parse_command_line(std::span<const char* const> args) {
  Command command;
  if (args.empty()) {
    throw UsageError("missing command: expected "
                     "list|run|report|profile|lint|sweep|diff|help");
  }
  const std::string_view verb = args[0];
  if (verb == "help" || verb == "--help" || verb == "-h") {
    command.kind = Command::Kind::kHelp;
    return command;
  }
  if (verb == "list") {
    command.kind = Command::Kind::kList;
  } else if (verb == "run") {
    command.kind = Command::Kind::kRun;
  } else if (verb == "report") {
    command.kind = Command::Kind::kReport;
  } else if (verb == "diff") {
    command.kind = Command::Kind::kDiff;
  } else if (verb == "profile") {
    command.kind = Command::Kind::kProfile;
  } else if (verb == "sweep") {
    command.kind = Command::Kind::kSweep;
  } else if (verb == "lint") {
    command.kind = Command::Kind::kLint;
  } else {
    throw UsageError(
        "unknown command '" + std::string(verb) +
        "': expected list|run|report|profile|lint|sweep|diff|help");
  }

  if (command.kind == Command::Kind::kDiff) {
    // diff takes two positional report paths (or one plus --against) and
    // --tolerance; none of the campaign flags apply.
    std::vector<std::string> paths;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string_view flag = args[i];
      if (flag == "--against") {
        if (i + 1 >= args.size()) {
          throw UsageError("--against: missing value");
        }
        command.diff.against = std::string(args[++i]);
        if (command.diff.against.empty()) {
          throw UsageError("--against: expected a scenario name");
        }
      } else if (flag == "--tolerance") {
        if (i + 1 >= args.size()) {
          throw UsageError("--tolerance: missing value");
        }
        command.diff.tolerance = parse_number<double>(flag, args[++i]);
        // from_chars accepts nan/inf: nan makes every comparison a drift,
        // inf disables them all — both are operator mistakes.
        if (!std::isfinite(command.diff.tolerance) ||
            command.diff.tolerance < 0.0) {
          throw UsageError("--tolerance: must be a finite number >= 0");
        }
      } else if (flag == "--format") {
        if (i + 1 >= args.size()) {
          throw UsageError("--format: missing value");
        }
        command.diff.format = parse_format(args[++i]);
        if (command.diff.format == OutputFormat::kCsv) {
          throw UsageError("diff --format: expected text|json");
        }
      } else if (flag.rfind("--", 0) == 0) {
        throw UsageError("unknown flag '" + std::string(flag) + "'");
      } else {
        paths.emplace_back(flag);
      }
    }
    if (!command.diff.against.empty()) {
      if (paths.size() != 1) {
        throw UsageError(
            "diff --against: expected exactly one report path "
            "(proxima diff <candidate.json> --against SCENARIO)");
      }
      command.diff.candidate = std::move(paths[0]);
      return command;
    }
    if (paths.size() != 2) {
      throw UsageError(
          "diff: expected exactly two report paths "
          "(proxima diff <baseline.json> <candidate.json>), or one plus "
          "--against SCENARIO");
    }
    command.diff.baseline = std::move(paths[0]);
    command.diff.candidate = std::move(paths[1]);
    return command;
  }

  CampaignOptions& options = command.options;
  const bool is_sweep = command.kind == Command::Kind::kSweep;
  bool saw_decades = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string_view flag = args[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= args.size()) {
        throw UsageError(std::string(flag) + ": missing value");
      }
      return args[++i];
    };
    const auto sweep_only = [&]() {
      if (!is_sweep) {
        throw UsageError(std::string(flag) + ": only applicable to sweep");
      }
    };
    if (flag == "--scenario") {
      options.scenarios.emplace_back(value());
    } else if (flag == "--all") {
      options.all = true;
    } else if (flag == "--runs") {
      options.runs = parse_number<std::uint32_t>(flag, value());
    } else if (flag == "--adaptive") {
      options.adaptive = true;
    } else if (flag == "--batch") {
      options.batch_runs = parse_number<std::uint64_t>(flag, value());
      if (options.batch_runs == 0) {
        throw UsageError("--batch: must be >= 1");
      }
    } else if (flag == "--workers") {
      options.workers = parse_number<unsigned>(flag, value());
      // 0 means "pick the hardware concurrency"; an explicit count is a
      // thread-spawn request, and a typo like `--workers 100000` would
      // honour it literally in execute_shards.
      if (options.workers > 512) {
        throw UsageError("--workers: expected 0..512 (0: hardware "
                         "concurrency)");
      }
    } else if (flag == "--seed") {
      if (is_sweep) {
        // Repeatable under sweep: each seed is a grid axis value.
        command.sweep.seeds.push_back(
            parse_number<std::uint64_t>(flag, value()));
      } else {
        options.seed = parse_number<std::uint64_t>(flag, value());
      }
    } else if (flag == "--store") {
      if (command.kind == Command::Kind::kList) {
        throw UsageError("--store: not applicable to list");
      }
      options.store_dir = std::string(value());
      if (options.store_dir.empty()) {
        throw UsageError("--store: expected a directory path");
      }
    } else if (flag == "--manifest") {
      sweep_only();
      command.sweep.manifest = std::string(value());
      if (command.sweep.manifest.empty()) {
        throw UsageError("--manifest: expected a file path");
      }
    } else if (flag == "--baseline") {
      sweep_only();
      command.sweep.baseline = std::string(value());
      if (command.sweep.baseline.empty()) {
        throw UsageError("--baseline: expected a file path");
      }
    } else if (flag == "--tolerance") {
      sweep_only(); // diff parses its own --tolerance above
      command.sweep.tolerance = parse_number<double>(flag, value());
      if (!std::isfinite(command.sweep.tolerance) ||
          command.sweep.tolerance < 0.0) {
        throw UsageError("--tolerance: must be a finite number >= 0");
      }
    } else if (flag == "--vm-core") {
      options.vm_core = parse_vm_core(flag, value());
    } else if (flag == "--randomisation") {
      options.randomisation = parse_randomisation(value());
    } else if (flag == "--format") {
      options.format = parse_format(value());
    } else if (flag == "--decades") {
      saw_decades = true;
      options.decades = parse_number<int>(flag, value());
      if (options.decades < 1 || options.decades > 18) {
        throw UsageError("--decades: expected 1..18");
      }
    } else if (flag == "--frames") {
      options.frames = parse_number<std::uint32_t>(flag, value());
      // Upper bound keeps the control period (frames * minor frame, ms)
      // inside 32 bits for any scenario clock — and a million frames per
      // run is already far past any sensible schedule.
      if (*options.frames == 0 || *options.frames > 1'000'000) {
        throw UsageError("--frames: expected 1..1000000");
      }
    } else if (flag == "--partition") {
      options.partition = std::string(value());
    } else if (flag == "--trace-out") {
      options.trace_out = std::string(value());
      if (options.trace_out.empty()) {
        throw UsageError("--trace-out: expected a file path");
      }
    } else if (flag == "--progress") {
      options.progress = true;
    } else {
      throw UsageError("unknown flag '" + std::string(flag) + "'");
    }
  }

  // Flags that parse fine but do nothing in this invocation used to be
  // silently ignored — an operator asking for them got a campaign that
  // quietly ran with different settings than requested.  Reject instead.
  if (options.batch_runs != 0 && !options.adaptive) {
    throw UsageError("--batch: only meaningful with --adaptive "
                     "(fixed campaigns have no growth quantum)");
  }
  if (saw_decades && command.kind != Command::Kind::kReport && !is_sweep) {
    throw UsageError("--decades: only applicable to report/sweep "
                     "(run/profile emit no pWCET curve)");
  }

  if (is_sweep) {
    if (options.store_dir.empty()) {
      throw UsageError("sweep: --store DIR is required (the store is what "
                       "makes re-invocations skip finished cells)");
    }
    if (options.format == OutputFormat::kCsv) {
      throw UsageError("sweep --format: expected text|json");
    }
    if (options.scenarios.empty() && !options.all) {
      options.all = true; // sweep default: the whole registry
    }
  }

  if (command.kind == Command::Kind::kLint) {
    if (options.adaptive) {
      throw UsageError("--adaptive: not applicable to lint (the dynamic "
                       "confirmation runs a fixed-size campaign)");
    }
    if (!options.store_dir.empty()) {
      throw UsageError("--store: not applicable to lint (taint-mode "
                       "campaigns are not persisted)");
    }
    if (options.format == OutputFormat::kCsv) {
      throw UsageError("lint --format: expected text|json");
    }
  }

  if (command.kind != Command::Kind::kList) {
    if (options.scenarios.empty() && !options.all) {
      throw UsageError("expected --scenario NAME (repeatable) or --all");
    }
    if (!options.scenarios.empty() && options.all) {
      throw UsageError("--scenario and --all are mutually exclusive");
    }
    if (options.runs == 0) {
      throw UsageError("--runs: must be >= 1");
    }
  }
  return command;
}

std::string usage() {
  return
      "proxima — campaign driver for the DSR case-study reproduction\n"
      "\n"
      "usage: proxima <command> [options]\n"
      "\n"
      "commands:\n"
      "  list                 enumerate the scenario registry\n"
      "  run                  execute campaigns, print timing summaries\n"
      "  report               execute campaigns + full MBPTA report\n"
      "                       (i.i.d. verdict, pWCET curve, Figure-3 plot)\n"
      "  profile              execute campaigns, render the merged metrics\n"
      "                       registry (instruction mix, hierarchy, DSR,\n"
      "                       hv occupancy, engine) as text/json/csv\n"
      "  lint                 address-leak analysis of the selected\n"
      "                       scenarios: static taint pass over the guest\n"
      "                       program + dynamic taint campaign; exit 1 on\n"
      "                       any confirmed leak of layout-derived bits\n"
      "                       into the observable outputs\n"
      "  sweep                run the scenario × seed grid through the\n"
      "                       campaign store: stored cells are re-rendered\n"
      "                       without simulating, fresh cells are persisted;\n"
      "                       writes a machine-readable sweep manifest\n"
      "  diff A.json B.json   compare two saved JSON reports; exit 1 when\n"
      "                       pWCET/MOET/counter shifts exceed --tolerance\n"
      "                       (or: diff B.json --against SCENARIO to run\n"
      "                       the baseline scenario on the fly)\n"
      "  help                 this text\n"
      "\n"
      "options (run/report):\n"
      "  --scenario NAME      registry scenario to run (repeatable)\n"
      "  --all                run every registry scenario instead\n"
      "  --runs N             measured runs, or the budget under --adaptive\n"
      "                       (default 1000)\n"
      "  --adaptive           grow the campaign until the MBPTA convergence\n"
      "                       criterion holds (deterministic batch\n"
      "                       boundaries: bit-identical at any --workers)\n"
      "  --batch N            adaptive growth quantum (default max(50, runs/10))\n"
      "  --workers W          engine worker threads (default: hardware)\n"
      "  --seed S             campaign seed (input seed S, layout seed\n"
      "                       splitmix64(S); default: the paper's 2017/611085)\n"
      "  --vm-core C          fast|reference (default fast, the predecoded\n"
      "                       core; both are bit-identical)\n"
      "  --randomisation R    cots|dsr|dsr-ondemand|static|hwrand: override\n"
      "                       the scenario's randomisation technology\n"
      "                       (default: the scenario's registered arm)\n"
      "  --format F           text|json|csv (default text; list: text|json)\n"
      "  --decades D          report: pWCET curve depth (default 16)\n"
      "  --frames N           hv/ scenarios: minor frames per measured run\n"
      "                       (default: the scenario's schedule, 10)\n"
      "  --partition NAME     restrict per-partition sections to NAME\n"
      "  --trace-out FILE     write a Chrome trace_event JSON timeline\n"
      "                       (worker runs, adaptive batches, hv partition\n"
      "                       frames) for chrome://tracing / Perfetto\n"
      "  --progress           live progress line on stderr\n"
      "  --store DIR          persist/resume campaigns via the on-disk\n"
      "                       campaign store in DIR (interrupted campaigns\n"
      "                       resume bit-identically; finished ones render\n"
      "                       without re-simulating)\n"
      "\n"
      "options (sweep):\n"
      "  --store DIR          required: the campaign store backing the sweep\n"
      "  --seed S             repeatable: seed axis of the scenario × seed\n"
      "                       grid (default: each scenario's default seeds)\n"
      "  --manifest FILE      sweep manifest path\n"
      "                       (default <store>/sweep-manifest.json)\n"
      "  --baseline FILE      gate against a stored sweep/report document;\n"
      "                       drift beyond --tolerance exits 1\n"
      "  --tolerance F        baseline gate tolerance (default 0: bit-exact)\n"
      "\n"
      "options (diff):\n"
      "  --against SCENARIO   run SCENARIO fresh as the baseline (mirrors\n"
      "                       the candidate's runs/seed/frames/vm-core)\n"
      "                       instead of reading a baseline file\n"
      "  --tolerance F        max relative metric shift treated as equal\n"
      "                       (default 0: bit-exact, digests included)\n"
      "  --format F           text|json (default text; exit codes identical)\n"
      "\n"
      "options (lint):\n"
      "  --scenario/--all, --runs, --workers, --seed, --vm-core as above\n"
      "  --format F           text|json (default text)\n"
      "                       (--runs sizes the dynamic confirmation\n"
      "                       campaign only; the static pass needs none)\n"
      "\n"
      "examples:\n"
      "  proxima list\n"
      "  proxima run --scenario control/operation-dsr --runs 500 --workers 8\n"
      "  proxima run --scenario control/analysis-dsr --adaptive --seed 42 \\\n"
      "              --format json\n"
      "  proxima run --scenario hv/image+control --runs 200 --format json\n"
      "  proxima run --scenario control/operation-dsr --runs 200 \\\n"
      "              --trace-out trace.json --progress\n"
      "  proxima profile --scenario control/operation-dsr --runs 200\n"
      "  proxima report --all --runs 300 --format csv\n"
      "  proxima run --scenario control/operation-dsr --runs 500 \\\n"
      "              --store .proxima-store\n"
      "  proxima sweep --store .proxima-store --runs 200 --seed 1 --seed 2 \\\n"
      "              --manifest sweep.json --format json > sweep-report.json\n"
      "  proxima sweep --store .proxima-store --runs 200 \\\n"
      "              --baseline sweep-report.json --tolerance 0.001\n"
      "  proxima diff golden.json candidate.json --tolerance 0.001\n"
      "  proxima diff golden.json candidate.json --format json\n"
      "  proxima diff candidate.json --against control/operation-dsr\n"
      "  proxima lint --scenario leak/beacon-dsr --runs 40\n"
      "  proxima lint --scenario leak/hardened-dsr --runs 40 --format json\n";
}

} // namespace proxima::cli
