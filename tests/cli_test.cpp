// CLI smoke tests: drive `proxima list|run|report` in-process through
// cli::run_cli and validate the machine-readable output — the JSON is
// checked for well-formedness with a minimal recursive-descent parser and
// for the documented schema keys, the CSV for its header and row shape.
#include "cli/cli.hpp"

#include "cli/json_writer.hpp"
#include "exec/registry.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h> // getpid: unique temp-file names for the diff tests

namespace {

using namespace proxima;

// ---------------------------------------------------------------------------
// A minimal JSON validity checker (no values kept, structure only).
// ---------------------------------------------------------------------------

class JsonChecker {
public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

private:
  bool parse_value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
    case '{': return parse_object();
    case '[': return parse_array();
    case '"': return parse_string();
    case 't': return parse_literal("true");
    case 'f': return parse_literal("false");
    case 'n': return parse_literal("null");
    default: return parse_number();
    }
  }

  bool parse_object() {
    ++pos_; // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_array() {
    ++pos_; // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_; // escaped char (coarse: skips the escape introducer)
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_; // closing quote
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Run the CLI in-process; returns {exit code, stdout, stderr}.
struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<const char*> args) {
  args.insert(args.begin(), "proxima");
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = cli::run_cli(static_cast<int>(args.size()), args.data(), out,
                             err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// The first "value" after a JSON key, as raw text (string values keep
/// their quotes).  Good enough for flat schema spot-checks.
std::string field_after(const std::string& json, const std::string& key) {
  const std::size_t at = json.find('"' + key + "\": ");
  if (at == std::string::npos) {
    return {};
  }
  std::size_t start = at + key.size() + 4;
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '\n' &&
         json[end] != '}') {
    ++end;
  }
  return json.substr(start, end - start);
}

// ---------------------------------------------------------------------------
// list
// ---------------------------------------------------------------------------

TEST(CliList, EnumeratesTheRegistryCatalogue) {
  const CliResult result = invoke({"list"});
  EXPECT_EQ(result.code, 0);
  for (const std::string& name : exec::ScenarioRegistry::global().names()) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(CliList, JsonIsWellFormed) {
  const CliResult result = invoke({"list", "--format", "json"});
  EXPECT_EQ(result.code, 0);
  EXPECT_TRUE(JsonChecker(result.out).valid()) << result.out;
  EXPECT_EQ(field_after(result.out, "command"), "\"list\"");
  EXPECT_NE(result.out.find("control/operation-dsr"), std::string::npos);
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

TEST(CliRun, JsonSchemaOnASmallScenario) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "12",
              "--workers", "2", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  ASSERT_TRUE(JsonChecker(result.out).valid()) << result.out;
  EXPECT_EQ(field_after(result.out, "command"), "\"run\"");
  EXPECT_EQ(field_after(result.out, "name"), "\"control/operation-cots\"");
  EXPECT_EQ(field_after(result.out, "runs"), "12");
  EXPECT_EQ(field_after(result.out, "workers"), "2")
      << "the resolved worker count, not the raw flag";
  EXPECT_EQ(field_after(result.out, "n"), "12");
  EXPECT_EQ(field_after(result.out, "verified_runs"), "12");
  EXPECT_EQ(field_after(result.out, "adaptive"), "null");
  EXPECT_NE(result.out.find("\"digest\": \"0x"), std::string::npos);
  for (const char* key : {"min", "mean", "max", "stddev", "wall_seconds",
                          "guest_instructions", "minstr_per_second"}) {
    EXPECT_FALSE(field_after(result.out, key).empty()) << key;
  }
}

TEST(CliRun, JsonCarriesTheMeasuredTarget) {
  // The schema's "measured" field labels which program's UoA the
  // times/digest describe; hv/ partition sections flag the measured one.
  const CliResult control =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "3",
              "--format", "json"});
  ASSERT_EQ(control.code, 0) << control.err;
  EXPECT_EQ(field_after(control.out, "measured"), "\"control\"");

  const CliResult image =
      invoke({"run", "--scenario", "image/operation-cots", "--runs", "3",
              "--format", "json"});
  ASSERT_EQ(image.code, 0) << image.err;
  EXPECT_EQ(field_after(image.out, "measured"), "\"image\"");
  EXPECT_EQ(field_after(image.out, "verified_runs"), "3");

  const CliResult hv =
      invoke({"run", "--scenario", "hv/image+control", "--runs", "2",
              "--frames", "3", "--format", "json"});
  ASSERT_EQ(hv.code, 0) << hv.err;
  ASSERT_TRUE(JsonChecker(hv.out).valid()) << hv.out;
  EXPECT_EQ(field_after(hv.out, "measured"), "\"image\"");
  // The partition sections flag the measured one: the first "measured"
  // after a partition's "name" key is its flag.
  const auto partition_flag = [&](const char* name) {
    const std::size_t at = hv.out.find(std::string("\"name\": \"") + name);
    EXPECT_NE(at, std::string::npos) << name;
    return field_after(hv.out.substr(at), "measured");
  };
  EXPECT_EQ(partition_flag("processing"), "true");
  EXPECT_EQ(partition_flag("control"), "false")
      << "the interference guest is not the measured partition";
}

TEST(CliRun, PartitionFlagComposesWithMeasuredSelection) {
  // --partition can pick the interference guest of an image-measured
  // scenario: the filter operates on partition names regardless of which
  // one is measured.
  const CliResult result =
      invoke({"run", "--scenario", "hv/image+control", "--runs", "2",
              "--frames", "3", "--partition", "control", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"name\": \"control\""), std::string::npos);
  EXPECT_EQ(result.out.find("\"name\": \"processing\""), std::string::npos)
      << "--partition must filter out the measured partition's section";
}

TEST(CliRun, SeedAndVmCoreFlagsReachTheConfig) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "8",
              "--seed", "7", "--vm-core", "reference", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(field_after(result.out, "vm_core"), "\"reference\"");
  EXPECT_EQ(field_after(result.out, "input"), "7");
  EXPECT_NE(field_after(result.out, "layout"), "7")
      << "layout stream must get a mixed companion seed";
  // The default core is the predecoded fast core; both are bit-identical,
  // so the --vm-core choice shows up in the header and nowhere else.
  const CliResult default_core =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "8",
              "--seed", "7", "--format", "json"});
  ASSERT_EQ(default_core.code, 0) << default_core.err;
  EXPECT_EQ(field_after(default_core.out, "vm_core"), "\"fast\"");
  EXPECT_EQ(field_after(default_core.out, "digest"),
            field_after(result.out, "digest"))
      << "fast and reference must produce the same times digest";
}

TEST(CliErrors, UnknownVmCoreSuggestsClosestMatch) {
  // The did-you-mean treatment the scenario names get, applied to
  // --vm-core: a typo exits 2 with the expected values and a suggestion.
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "2",
              "--vm-core", "fsat"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("expected fast|reference"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("did you mean: fast?"), std::string::npos)
      << result.err;
  const CliResult typo = invoke({"run", "--scenario", "control/operation-cots",
                                 "--runs", "2", "--vm-core", "fastsb"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("did you mean: fast?"), std::string::npos)
      << typo.err;
  // The removed superblock tier's name is an unknown core like any other.
  const CliResult removed =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "2",
              "--vm-core", "fast-sb"});
  EXPECT_EQ(removed.code, 2);
  EXPECT_NE(removed.err.find("--vm-core: expected fast|reference, got "
                             "'fast-sb'"),
            std::string::npos)
      << removed.err;
}

TEST(CliErrors, UnknownRandomisationSuggestsClosestMatch) {
  // Same did-you-mean treatment for --randomisation: a typo exits 2 with
  // the expected values and the closest arm.
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "2",
              "--randomisation", "dsr-ondemnd"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("expected cots|dsr|dsr-ondemand|static|hwrand"),
            std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("did you mean: dsr-ondemand?"), std::string::npos)
      << result.err;
  const CliResult hw = invoke({"run", "--scenario", "control/operation-cots",
                               "--runs", "2", "--randomisation", "hwrnd"});
  EXPECT_EQ(hw.code, 2);
  EXPECT_NE(hw.err.find("hwrand"), std::string::npos) << hw.err;
}

TEST(CliRun, RandomisationOverrideReachesTheConfig) {
  // The operation-family scenarios differ only in their randomisation arm,
  // so overriding the cots scenario to dsr must reproduce the registered
  // dsr scenario bit-exactly.
  const CliResult overridden =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "8",
              "--randomisation", "dsr", "--format", "json"});
  ASSERT_EQ(overridden.code, 0) << overridden.err;
  const CliResult registered =
      invoke({"run", "--scenario", "control/operation-dsr", "--runs", "8",
              "--format", "json"});
  ASSERT_EQ(registered.code, 0) << registered.err;
  EXPECT_EQ(field_after(overridden.out, "digest"),
            field_after(registered.out, "digest"));
}

TEST(CliRun, AdaptiveIsBitIdenticalAcrossWorkerCounts) {
  // The CLI-level acceptance check: same seed, workers 1 vs 8 -> same stop
  // count and bit-identical times (visible as the digest).
  const std::vector<const char*> base = {
      "run",     "--scenario", "control/operation-dsr",
      "--adaptive", "--runs", "120",
      "--batch", "40",         "--seed",
      "42",      "--format",   "json"};
  std::vector<const char*> one = base;
  one.insert(one.end(), {"--workers", "1"});
  std::vector<const char*> eight = base;
  eight.insert(eight.end(), {"--workers", "8"});

  const CliResult sequential = invoke(one);
  const CliResult parallel = invoke(eight);
  ASSERT_EQ(sequential.code, 0) << sequential.err;
  ASSERT_EQ(parallel.code, 0) << parallel.err;
  ASSERT_TRUE(JsonChecker(sequential.out).valid());
  const std::string digest = field_after(sequential.out, "digest");
  EXPECT_FALSE(digest.empty());
  EXPECT_EQ(digest, field_after(parallel.out, "digest"));
  EXPECT_EQ(field_after(sequential.out, "runs"),
            field_after(parallel.out, "runs"));
  EXPECT_EQ(field_after(sequential.out, "batches"),
            field_after(parallel.out, "batches"));
}

TEST(CliRun, HvScenarioEmitsPerPartitionJsonSections) {
  const CliResult result =
      invoke({"run", "--scenario", "hv/control+image", "--runs", "5",
              "--workers", "2", "--frames", "5", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  ASSERT_TRUE(JsonChecker(result.out).valid()) << result.out;
  EXPECT_EQ(field_after(result.out, "frames"), "5");
  EXPECT_NE(result.out.find("\"partitions\": ["), std::string::npos);
  EXPECT_NE(result.out.find("\"name\": \"control\""), std::string::npos);
  EXPECT_NE(result.out.find("\"name\": \"processing\""), std::string::npos);
  for (const char* key :
       {"activations", "moet", "overruns", "iid_passes", "pwcet"}) {
    EXPECT_FALSE(field_after(result.out, key).empty()) << key;
  }
  EXPECT_EQ(field_after(result.out, "verified_runs"), "5");
}

TEST(CliRun, PartitionFlagRestrictsTheSections) {
  const CliResult result =
      invoke({"run", "--scenario", "hv/control+image", "--runs", "3",
              "--partition", "control", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"name\": \"control\""), std::string::npos);
  EXPECT_EQ(result.out.find("\"name\": \"processing\""), std::string::npos)
      << "--partition must filter the sections";

  // A name matching no partition is a usage error (exit 2), not a
  // well-formed document with a silently empty section.
  const CliResult typo =
      invoke({"run", "--scenario", "hv/control+image", "--runs", "2",
              "--partition", "contrl", "--format", "json"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("no partition named 'contrl'"), std::string::npos);
  EXPECT_TRUE(typo.out.empty()) << "nothing may be emitted before the error";
}

TEST(CliRun, BareScenariosEmitNullPartitions) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "4",
              "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(field_after(result.out, "partitions"), "null");
  EXPECT_EQ(field_after(result.out, "frames"), "null");
}

TEST(CliRun, HvIsBitIdenticalAcrossWorkerCounts) {
  // The acceptance check of the hypervisor family: same seed, workers 1
  // vs 8 -> bit-identical times (visible as the digest).
  const std::vector<const char*> base = {"run",    "--scenario",
                                         "hv/control+image", "--runs",
                                         "8",      "--seed",
                                         "7",      "--format",
                                         "json"};
  std::vector<const char*> one = base;
  one.insert(one.end(), {"--workers", "1"});
  std::vector<const char*> eight = base;
  eight.insert(eight.end(), {"--workers", "8"});
  const CliResult sequential = invoke(one);
  const CliResult parallel = invoke(eight);
  ASSERT_EQ(sequential.code, 0) << sequential.err;
  ASSERT_EQ(parallel.code, 0) << parallel.err;
  const std::string digest = field_after(sequential.out, "digest");
  EXPECT_FALSE(digest.empty());
  EXPECT_EQ(digest, field_after(parallel.out, "digest"));
}

TEST(CliRun, CsvHasHeaderAndOneRowPerScenario) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--scenario",
              "control/layout-neutral", "--runs", "8", "--format", "csv"});
  ASSERT_EQ(result.code, 0) << result.err;
  std::istringstream lines(result.out);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "scenario,runs,min,mean,max,stddev,digest,converged,"
                  "wall_seconds,minstr_per_second");
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    EXPECT_NE(line.find("control/"), std::string::npos);
  }
  EXPECT_EQ(rows, 2);
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

TEST(CliReport, JsonCarriesAnalysisAndCurve) {
  const CliResult result =
      invoke({"report", "--scenario", "control/analysis-dsr", "--runs", "150",
              "--workers", "2", "--format", "json", "--decades", "15"});
  ASSERT_EQ(result.code, 0) << result.err;
  ASSERT_TRUE(JsonChecker(result.out).valid()) << result.out;
  EXPECT_EQ(field_after(result.out, "command"), "\"report\"");
  for (const char* key :
       {"independence_p", "identical_distribution_p", "passes", "location",
        "scale", "exceedance", "pwcet_cycles"}) {
    EXPECT_FALSE(field_after(result.out, key).empty()) << key;
  }
}

TEST(CliReport, CsvEmitsTheCurve) {
  const CliResult result =
      invoke({"report", "--scenario", "control/analysis-dsr", "--runs", "150",
              "--format", "csv", "--decades", "6"});
  ASSERT_EQ(result.code, 0) << result.err;
  std::istringstream lines(result.out);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "scenario,exceedance_probability,pwcet_cycles");
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
  }
  // Decade 1e-1 is outside the block-maxima valid range (clamp bugfix):
  // 6 decades render at most 5 rows.
  EXPECT_GT(rows, 0);
  EXPECT_LE(rows, 5);
}

TEST(CliReport, TooShortCampaignReportsAnalysisError) {
  const CliResult result = invoke({"report", "--scenario",
                                   "control/operation-cots", "--runs", "20"});
  EXPECT_EQ(result.code, 1) << "analysis failure must be visible in the code";
  EXPECT_NE(result.out.find("MBPTA analysis not possible"), std::string::npos);
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Write `text` to a unique temp file; removed on destruction.
class TempReport {
public:
  TempReport(const char* tag, const std::string& text)
      : path_(std::filesystem::temp_directory_path() /
              ("proxima_cli_test_" + std::to_string(::getpid()) + "_" + tag +
               ".json")) {
    std::ofstream file(path_, std::ios::binary);
    file << text;
  }
  ~TempReport() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path() const { return path_.string(); }

private:
  std::filesystem::path path_;
};

std::string run_json(const char* scenario, const char* runs,
                     const char* seed) {
  const CliResult result = invoke({"run", "--scenario", scenario, "--runs",
                                   runs, "--seed", seed, "--workers", "2",
                                   "--format", "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  return result.out;
}

TEST(CliDiff, SelfCompareIsClean) {
  const std::string report = run_json("control/operation-cots", "8", "5");
  const TempReport baseline("self_a", report);
  const TempReport candidate("self_b", report);
  const CliResult result =
      invoke({"diff", baseline.path().c_str(), candidate.path().c_str()});
  EXPECT_EQ(result.code, 0) << result.out << result.err;
  EXPECT_NE(result.out.find("0 drift(s)"), std::string::npos) << result.out;
}

TEST(CliDiff, FlagsDriftAndHonoursTolerance) {
  const TempReport baseline("drift_a",
                            run_json("control/operation-cots", "8", "5"));
  const TempReport candidate("drift_b",
                             run_json("control/operation-cots", "8", "6"));
  // Different seed -> different times: bit-exact mode must flag the shift
  // (digest included) and exit 1.
  const CliResult strict =
      invoke({"diff", baseline.path().c_str(), candidate.path().c_str()});
  EXPECT_EQ(strict.code, 1);
  EXPECT_NE(strict.out.find("drift:"), std::string::npos) << strict.out;
  EXPECT_NE(strict.out.find("times digest"), std::string::npos)
      << strict.out;
  // A 100% relative tolerance accepts any same-sign shift (and stops
  // comparing digests).
  const CliResult loose =
      invoke({"diff", baseline.path().c_str(), candidate.path().c_str(),
              "--tolerance", "1.0"});
  EXPECT_EQ(loose.code, 0) << loose.out;
}

TEST(CliDiff, AgainstRunsTheBaselineScenarioOnTheFly) {
  // No baseline file: `--against` re-runs the scenario mirroring the
  // candidate's runs/seed (the candidate above ran with --workers 2; the
  // fresh baseline uses the default worker count — bit-identity across
  // worker counts is part of the contract being exercised).
  const TempReport candidate("against_ok",
                             run_json("control/operation-cots", "8", "5"));
  const CliResult clean = invoke(
      {"diff", candidate.path().c_str(), "--against",
       "control/operation-cots"});
  EXPECT_EQ(clean.code, 0) << clean.out << clean.err;
  EXPECT_NE(clean.out.find("0 drift(s)"), std::string::npos) << clean.out;

  // Same exit-code contract as the two-file form: a drift exits 1.
  const CliResult drift = invoke(
      {"diff", candidate.path().c_str(), "--against",
       "control/operation-dsr"});
  EXPECT_EQ(drift.code, 1) << drift.out;
  EXPECT_NE(drift.out.find("drift:"), std::string::npos) << drift.out;
}

TEST(CliDiff, AgainstJsonFormatAndUsageErrors) {
  const TempReport candidate("against_json",
                             run_json("control/operation-cots", "8", "5"));
  const CliResult json =
      invoke({"diff", candidate.path().c_str(), "--against",
              "control/operation-cots", "--format", "json"});
  EXPECT_EQ(json.code, 0) << json.out << json.err;
  EXPECT_EQ(field_after(json.out, "command"), "\"diff\"");
  EXPECT_EQ(field_after(json.out, "baseline"),
            "\"--against control/operation-cots\"");
  EXPECT_EQ(field_after(json.out, "drift_count"), "0") << json.out;

  // Unknown scenario: usage-error exit 2, like every bad name.
  EXPECT_EQ(invoke({"diff", candidate.path().c_str(), "--against",
                    "no/such-scenario"})
                .code,
            2);
  // --against replaces the baseline path: two positionals reject it.
  EXPECT_EQ(invoke({"diff", candidate.path().c_str(),
                    candidate.path().c_str(), "--against",
                    "control/operation-cots"})
                .code,
            2);
  EXPECT_EQ(invoke({"diff", "--against", "control/operation-cots"}).code, 2)
      << "--against still needs the candidate path";
}

TEST(CliDiff, AgainstRejectsACandidateWithAnUnknownCore) {
  // --against mirrors the candidate's vm_core through the same core table
  // as --vm-core.  A document naming a core this build does not have —
  // such as the removed "fast-sb" tier — is a usage error, not a silent
  // fallback to the default core.
  std::string report = run_json("control/operation-cots", "8", "5");
  const std::string recorded = "\"vm_core\": \"fast\"";
  const std::size_t at = report.find(recorded);
  ASSERT_NE(at, std::string::npos) << report;
  report.replace(at, recorded.size(), "\"vm_core\": \"fast-sb\"");
  const TempReport candidate("against_core", report);
  const CliResult result = invoke(
      {"diff", candidate.path().c_str(), "--against",
       "control/operation-cots"});
  EXPECT_EQ(result.code, 2) << result.out;
  EXPECT_NE(result.err.find("diff --against: candidate vm_core: expected "
                            "fast|reference, got 'fast-sb'"),
            std::string::npos)
      << result.err;
}

TEST(CliDiff, ComparesPerPartitionRowsAndMeasuredTarget) {
  const TempReport baseline("hv_a", run_json("hv/image+control", "3", "5"));
  const TempReport candidate("hv_b", run_json("hv/image+control", "3", "6"));
  const CliResult result =
      invoke({"diff", baseline.path().c_str(), candidate.path().c_str()});
  EXPECT_EQ(result.code, 1);
  // The measured image times are seed-invariant here (analysis protocol,
  // every lens lit -> same work, same fixed layout), but the control
  // GUEST's inputs follow the seed: the drift must surface in its
  // per-partition row.
  EXPECT_NE(result.out.find("partition control"), std::string::npos)
      << "per-partition rows must be compared:\n" + result.out;
}

TEST(CliDiff, UsageErrorsExitTwo) {
  EXPECT_EQ(invoke({"diff"}).code, 2);
  EXPECT_EQ(invoke({"diff", "only-one.json"}).code, 2);
  EXPECT_EQ(invoke({"diff", "/nonexistent/a.json", "/nonexistent/b.json"})
                .code,
            2);
  const TempReport garbage("garbage", "{not json");
  const TempReport empty_doc("empty", "{}");
  EXPECT_EQ(invoke({"diff", garbage.path().c_str(), garbage.path().c_str()})
                .code,
            2)
      << "malformed JSON is a usage error, not a drift";
  EXPECT_EQ(
      invoke({"diff", empty_doc.path().c_str(), empty_doc.path().c_str()})
          .code,
      2)
      << "a JSON document without scenarios is not a proxima report";
  // `proxima list` emits command + scenarios too; comparing a catalogue
  // dump would pass on null-vs-null metrics, so it must be rejected.
  const CliResult list = invoke({"list", "--format", "json"});
  ASSERT_EQ(list.code, 0);
  const TempReport catalogue("catalogue", list.out);
  EXPECT_EQ(invoke({"diff", catalogue.path().c_str(),
                    catalogue.path().c_str()})
                .code,
            2)
      << "a scenario catalogue carries no measurements to compare";
  const TempReport ok("ok", run_json("control/operation-cots", "4", "5"));
  EXPECT_EQ(invoke({"diff", ok.path().c_str(), ok.path().c_str(),
                    "--tolerance", "-0.5"})
                .code,
            2);
  // from_chars parses nan/inf: nan would flag identical reports, inf
  // would disable every numeric comparison — both are usage errors.
  EXPECT_EQ(invoke({"diff", ok.path().c_str(), ok.path().c_str(),
                    "--tolerance", "nan"})
                .code,
            2);
  EXPECT_EQ(invoke({"diff", ok.path().c_str(), ok.path().c_str(),
                    "--tolerance", "inf"})
                .code,
            2);
}

TEST(CliDiff, JsonFormatCarriesDriftRecordsAndSameExitCodes) {
  const std::string report = run_json("control/operation-cots", "6", "5");
  const TempReport baseline("json_a", report);
  const TempReport candidate("json_b", report);
  const CliResult clean =
      invoke({"diff", baseline.path().c_str(), candidate.path().c_str(),
              "--format", "json"});
  EXPECT_EQ(clean.code, 0) << clean.out;
  ASSERT_TRUE(JsonChecker(clean.out).valid()) << clean.out;
  EXPECT_EQ(field_after(clean.out, "command"), "\"diff\"");
  EXPECT_EQ(field_after(clean.out, "drift_count"), "0");

  const TempReport shifted("json_c",
                           run_json("control/operation-cots", "6", "6"));
  const CliResult drifted =
      invoke({"diff", baseline.path().c_str(), shifted.path().c_str(),
              "--format", "json"});
  EXPECT_EQ(drifted.code, 1) << "drift exit code must not change with "
                                "--format json";
  ASSERT_TRUE(JsonChecker(drifted.out).valid()) << drifted.out;
  EXPECT_NE(field_after(drifted.out, "drift_count"), "0");
  for (const char* key : {"context", "metric", "baseline", "candidate",
                          "relative_shift", "detail"}) {
    EXPECT_FALSE(field_after(drifted.out, key).empty()) << key;
  }

  // csv is not a diff format.
  EXPECT_EQ(invoke({"diff", baseline.path().c_str(),
                    candidate.path().c_str(), "--format", "csv"})
                .code,
            2);
}

// ---------------------------------------------------------------------------
// metrics / trace / progress / profile
// ---------------------------------------------------------------------------

TEST(CliRun, JsonCarriesTheMetricsRegistry) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-dsr", "--runs", "6",
              "--workers", "2", "--format", "json"});
  ASSERT_EQ(result.code, 0) << result.err;
  ASSERT_TRUE(JsonChecker(result.out).valid()) << result.out;
  const std::size_t metrics_at = result.out.find("\"metrics\":");
  ASSERT_NE(metrics_at, std::string::npos);
  const std::string metrics = result.out.substr(metrics_at);
  // The digest inside "metrics" is the registry digest: 0x + 16 hex.
  const std::string digest = field_after(metrics, "digest");
  EXPECT_EQ(digest.size(), 20u) << digest; // "0x...." with quotes
  EXPECT_EQ(digest.substr(0, 3), "\"0x");
  for (const char* key :
       {"counters", "histograms", "series", "wall", "runs",
        "mem.instructions", "time.uoa_cycles", "dsr.reseeds",
        "engine.workers"}) {
    EXPECT_NE(metrics.find('"' + std::string(key) + '"'), std::string::npos)
        << key;
  }
  EXPECT_EQ(field_after(metrics, "runs"), "6");
}

TEST(CliRun, MetricsDigestIsBitIdenticalAcrossWorkerCounts) {
  auto digest_of = [](const char* workers) {
    const CliResult result =
        invoke({"run", "--scenario", "hv/control+image", "--runs", "6",
                "--workers", workers, "--format", "json"});
    EXPECT_EQ(result.code, 0) << result.err;
    const std::size_t at = result.out.find("\"metrics\":");
    EXPECT_NE(at, std::string::npos);
    return field_after(result.out.substr(at), "digest");
  };
  const std::string sequential = digest_of("1");
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, digest_of("8"));
}

TEST(CliRun, TraceOutWritesAParseableTimeline) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("proxima_cli_test_trace_" + std::to_string(::getpid()) + ".json");
  const std::string path_text = path.string();
  const CliResult result =
      invoke({"run", "--scenario", "hv/control+image", "--runs", "4",
              "--workers", "2", "--trace-out", path_text.c_str()});
  EXPECT_EQ(result.code, 0) << result.err;
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "trace file missing: " << path_text;
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_TRUE(JsonChecker(text.str()).valid()) << text.str().substr(0, 400);
  EXPECT_NE(text.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(text.str().find("process_name"), std::string::npos);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(CliRun, TraceOutToAnUnwritablePathIsACampaignFault) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "2",
              "--trace-out", "/nonexistent-dir/trace.json"});
  EXPECT_EQ(result.code, 3) << result.err;
  EXPECT_NE(result.err.find("--trace-out"), std::string::npos) << result.err;
}

TEST(CliRun, ProgressWritesLiveLineToStderrOnly) {
  const CliResult result =
      invoke({"run", "--scenario", "control/operation-cots", "--runs", "4",
              "--workers", "2", "--progress", "--format", "json"});
  EXPECT_EQ(result.code, 0);
  EXPECT_TRUE(JsonChecker(result.out).valid())
      << "progress output must not corrupt piped JSON";
  EXPECT_EQ(result.out.find('\r'), std::string::npos);
  EXPECT_NE(result.err.find('\r'), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("control/operation-cots: 4/4 runs"),
            std::string::npos)
      << "the final count must always be delivered: " << result.err;
}

TEST(CliProfile, TextRendersTheRegistry) {
  const CliResult result = invoke(
      {"profile", "--scenario", "control/operation-dsr", "--runs", "4"});
  EXPECT_EQ(result.code, 0) << result.err;
  for (const char* needle :
       {"metrics digest 0x", "counters:", "histograms:", "wall:",
        "vm.mix.", "dsr.reseeds", "time.uoa_cycles"}) {
    EXPECT_NE(result.out.find(needle), std::string::npos)
        << needle << " missing from:\n"
        << result.out;
  }
}

TEST(CliProfile, JsonSchemaAndCsvRows) {
  const CliResult json =
      invoke({"profile", "--scenario", "control/operation-cots", "--runs",
              "3", "--format", "json"});
  EXPECT_EQ(json.code, 0) << json.err;
  ASSERT_TRUE(JsonChecker(json.out).valid()) << json.out;
  EXPECT_EQ(field_after(json.out, "command"), "\"profile\"");
  EXPECT_EQ(field_after(json.out, "name"), "\"control/operation-cots\"");
  EXPECT_NE(json.out.find("\"metrics\":"), std::string::npos);

  const CliResult csv =
      invoke({"profile", "--scenario", "control/operation-cots", "--runs",
              "3", "--format", "csv"});
  EXPECT_EQ(csv.code, 0) << csv.err;
  EXPECT_EQ(csv.out.rfind("scenario,class,metric,value\n", 0), 0u)
      << csv.out.substr(0, 120);
  for (const char* needle :
       {",digest,metrics_digest,0x", ",counter,runs,3",
        ",histogram,time.uoa_cycles.count,3", ",wall,engine.workers,"}) {
    EXPECT_NE(csv.out.find(needle), std::string::npos)
        << needle << " missing from:\n"
        << csv.out;
  }
}

TEST(CliProfile, RequiresAScenarioSelection) {
  EXPECT_EQ(invoke({"profile"}).code, 2);
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--trace-out", ""}).code, 2)
      << "--trace-out needs a non-empty path";
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

TEST(CliErrors, UnknownScenarioListsTheCatalogue) {
  const CliResult result = invoke({"run", "--scenario", "nope", "--runs", "5"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown scenario 'nope'"), std::string::npos);
  EXPECT_NE(result.err.find("control/operation-dsr"), std::string::npos);
}

TEST(CliErrors, UnknownScenarioSuggestsClosestMatches) {
  // The discovery satellite: a typo near a real name leads with "did you
  // mean" and the family map, usage-error exit 2.
  const CliResult result =
      invoke({"run", "--scenario", "hv/control+imge", "--runs", "5"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("did you mean:"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("hv/control+image"), std::string::npos);
  EXPECT_NE(result.err.find("families:"), std::string::npos);
  EXPECT_NE(result.err.find("image/(6)"), std::string::npos);
}

TEST(CliErrors, UsageErrorsExitTwo) {
  EXPECT_EQ(invoke({}).code, 2);
  EXPECT_EQ(invoke({"frobnicate"}).code, 2);
  EXPECT_EQ(invoke({"run"}).code, 2) << "run needs --scenario or --all";
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--runs", "abc"}).code, 2);
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--all"}).code, 2);
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--batch", "0"}).code, 2)
      << "--batch 0 must be rejected, not silently replaced by the default";
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--runs", "0"}).code, 2)
      << "--runs 0 must be rejected, not silently replaced by the default";
  EXPECT_EQ(invoke({"report", "--scenario", "x", "--runs", "0"}).code, 2);
  EXPECT_EQ(invoke({"lint", "--scenario", "x", "--runs", "0"}).code, 2);
  EXPECT_EQ(invoke({"run", "--scenario", "x", "--frames", "0"}).code, 2);
  EXPECT_EQ(invoke({"run", "--scenario", "control/operation-cots", "--runs",
                    "2", "--frames", "4"})
                .code,
            2)
      << "--frames only applies to hv/ scenarios";
  EXPECT_EQ(invoke({"list", "--bogus"}).code, 2);
  const CliResult help = invoke({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: proxima"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON writer -> reader round trip (the \b/\f escape bugfix).
// ---------------------------------------------------------------------------

TEST(CliJson, BackspaceAndFormfeedEscapesDecode) {
  // \b and \f used to fall into the reader's pass-through default and
  // decode to literal 'b'/'f'.
  const cli::JsonValue doc = cli::JsonValue::parse(R"({"s": "\b\f"})");
  const cli::JsonValue* s = doc.get("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "\b\f");
}

TEST(CliJson, WriterReaderRoundTripsHostileStrings) {
  // Every escape the writer can emit, in names AND values: quotes,
  // backslashes, the named control escapes, and a raw control byte that
  // round-trips through .
  const std::string hostile = "a\"b\\c/d\ne\tf\rg\bh\fi\x01j";
  std::ostringstream out;
  {
    cli::JsonWriter json(out);
    json.begin_object();
    json.key(hostile).value(hostile);
    json.key("plain").value("partition/control@seed=7");
    json.end_object();
  }
  const cli::JsonValue doc = cli::JsonValue::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 2u);
  EXPECT_EQ(doc.object[0].first, hostile) << "key must round-trip";
  EXPECT_EQ(doc.object[0].second.string, hostile) << "value must round-trip";
  EXPECT_EQ(doc.object[1].second.string, "partition/control@seed=7");
}

// ---------------------------------------------------------------------------
// Silently-ignored flags are now rejected (options bugfix sweep).
// ---------------------------------------------------------------------------

TEST(CliErrors, FlagsWithNoEffectAreRejectedNotIgnored) {
  // --batch without --adaptive configured nothing: the campaign ran fixed.
  EXPECT_EQ(invoke({"run", "--scenario", "control/operation-cots", "--runs",
                    "4", "--batch", "50"})
                .code,
            2);
  // --decades outside report/sweep rendered no curve to deepen.
  EXPECT_EQ(invoke({"run", "--scenario", "control/operation-cots", "--runs",
                    "4", "--decades", "6"})
                .code,
            2);
  EXPECT_EQ(invoke({"profile", "--scenario", "control/operation-cots",
                    "--runs", "4", "--decades", "6"})
                .code,
            2);
  // A worker-count typo used to spawn that many threads, literally.
  EXPECT_EQ(invoke({"run", "--scenario", "control/operation-cots", "--runs",
                    "4", "--workers", "100000"})
                .code,
            2);
  // Sweep-only flags outside sweep, and sweep without its store.
  EXPECT_EQ(invoke({"run", "--scenario", "control/operation-cots", "--runs",
                    "4", "--manifest", "m.json"})
                .code,
            2);
  EXPECT_EQ(invoke({"sweep", "--scenario", "control/operation-cots"}).code,
            2)
      << "sweep requires --store";
  EXPECT_EQ(invoke({"list", "--store", "/tmp/x"}).code, 2);
}

// ---------------------------------------------------------------------------
// Diff bugfixes: zero baselines and a vanished metrics digest.
// ---------------------------------------------------------------------------

/// A minimal but shape-complete run document with one scenario.
std::string synthetic_run_doc(const char* min_time, bool metrics_digest) {
  std::string doc = R"({
  "command": "run",
  "scenarios": [
    {
      "name": "synthetic",
      "measured": "control",
      "runs": 4,
      "times": {"n": 4, "min": )" +
                    std::string(min_time) +
                    R"(, "mean": 10, "max": 20, "stddev": 1,
                "digest": "0xfeed"},
)";
  if (metrics_digest) {
    doc += R"(      "metrics": {"digest": "0xbeef"},
)";
  }
  doc += R"(      "verified_runs": 4
    }
  ]
})";
  return doc;
}

TEST(CliDiff, ZeroBaselinePassesOnlyBitEqual) {
  const TempReport zero("zero_a", synthetic_run_doc("0", true));
  const TempReport nonzero("zero_b", synthetic_run_doc("5", true));
  // tolerance 1.0 with scale = max(|lo|,|hi|) used to accept ANY candidate
  // against a zero baseline: |0 - 5| <= 1.0 * 5.  A value moving off zero
  // is structural and must drift regardless of tolerance.
  const CliResult result = invoke({"diff", zero.path().c_str(),
                                   nonzero.path().c_str(), "--tolerance",
                                   "1.0"});
  EXPECT_EQ(result.code, 1) << result.out;
  EXPECT_NE(result.out.find("only bit-equality passes"), std::string::npos)
      << result.out;
  // Bit-equal zeros stay clean.
  const TempReport zero2("zero_c", synthetic_run_doc("0", true));
  EXPECT_EQ(
      invoke({"diff", zero.path().c_str(), zero2.path().c_str()}).code, 0);
}

TEST(CliDiff, CandidateMissingMetricsDigestIsADrift) {
  const TempReport with("md_a", synthetic_run_doc("1", true));
  const TempReport without("md_b", synthetic_run_doc("1", false));
  // Candidate lost the digest its baseline had: metrics stopped being
  // collected — this used to be skipped silently.
  const CliResult regression =
      invoke({"diff", with.path().c_str(), without.path().c_str()});
  EXPECT_EQ(regression.code, 1) << regression.out;
  EXPECT_NE(regression.out.find("absent in candidate"), std::string::npos)
      << regression.out;
  // The reverse stays the single tolerated absence: legacy golden reports
  // predate the metrics registry.
  EXPECT_EQ(invoke({"diff", without.path().c_str(), with.path().c_str()})
                .code,
            0);
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// A unique, self-cleaning store root.
class TempStoreDir {
public:
  explicit TempStoreDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              ("proxima_cli_sweep_" + std::to_string(::getpid()) + "_" +
               tag)) {
    std::filesystem::remove_all(path_);
  }
  ~TempStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path() const { return path_.string(); }

private:
  std::filesystem::path path_;
};

TEST(CliSweep, SecondPassSimulatesNothingAndGatesAgainstItself) {
  TempStoreDir store("warm");
  // The path strings must outlive the argv vectors that point into them.
  const std::string store_path = store.path();
  const std::vector<const char*> sweep_args = {
      "sweep",   "--store", store_path.c_str(),
      "--scenario", "control/analysis-dsr", "--runs", "150",
      "--workers", "2", "--seed", "7", "--format", "json"};

  const CliResult cold = invoke(sweep_args);
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_TRUE(JsonChecker(cold.out).valid()) << cold.out;
  EXPECT_EQ(field_after(cold.out, "command"), "\"sweep\"");
  EXPECT_EQ(field_after(cold.out, "name"),
            "\"control/analysis-dsr@seed=7\"")
      << "explicit seeds must be part of the cell identity";

  // The manifest is the machine-checkable witness of what was simulated.
  std::ifstream manifest_file(store.path() + "/sweep-manifest.json");
  ASSERT_TRUE(manifest_file.good());
  std::stringstream manifest;
  manifest << manifest_file.rdbuf();
  EXPECT_NE(manifest.str().find("\"total_simulated_runs\": 150"),
            std::string::npos)
      << manifest.str();

  // Second pass: everything served from the store, and the baseline gate
  // (against the first pass) reports zero drift.  The documents are not
  // byte-identical — store counters and wall-clock gauges legitimately
  // differ — but every determinism digest must match.
  const TempReport baseline("sweep_base", cold.out);
  const std::string baseline_path = baseline.path();
  std::vector<const char*> warm_args = sweep_args;
  warm_args.insert(warm_args.end(),
                   {"--baseline", baseline_path.c_str()});
  const CliResult warm = invoke(warm_args);
  EXPECT_EQ(warm.code, 0) << warm.err;
  const auto digests = [](const std::string& doc) {
    std::vector<std::string> found;
    std::size_t at = 0;
    while ((at = doc.find("\"digest\": ", at)) != std::string::npos) {
      const std::size_t end = doc.find('\n', at);
      found.push_back(doc.substr(at, end - at));
      at = end;
    }
    return found;
  };
  EXPECT_EQ(digests(warm.out), digests(cold.out))
      << "re-rendered times/metrics digests must match the live sweep";
  EXPECT_NE(warm.err.find("0 drift(s)"), std::string::npos) << warm.err;

  std::ifstream manifest2_file(store.path() + "/sweep-manifest.json");
  std::stringstream manifest2;
  manifest2 << manifest2_file.rdbuf();
  EXPECT_NE(manifest2.str().find("\"total_simulated_runs\": 0"),
            std::string::npos)
      << "warm sweep must not re-simulate:\n" + manifest2.str();
  EXPECT_NE(manifest2.str().find("\"total_stored_runs\": 150"),
            std::string::npos);
}

TEST(CliSweep, DriftAgainstTheBaselineExitsOne) {
  TempStoreDir store("drift");
  const CliResult first =
      invoke({"sweep", "--store", store.path().c_str(), "--scenario",
              "control/analysis-dsr", "--runs", "150", "--workers", "2",
              "--seed", "7", "--format", "json"});
  ASSERT_EQ(first.code, 0) << first.err;
  const TempReport baseline("sweep_drift_base", first.out);
  // A different seed is a different cell name: structural drift.
  const CliResult drifted =
      invoke({"sweep", "--store", store.path().c_str(), "--scenario",
              "control/analysis-dsr", "--runs", "150", "--workers", "2",
              "--seed", "8", "--baseline", baseline.path().c_str()});
  EXPECT_EQ(drifted.code, 1);
  EXPECT_NE(drifted.out.find("drift"), std::string::npos) << drifted.out;
}

TEST(CliRun, StoreBackedRunRerendersBitIdentically) {
  TempStoreDir store("runstore");
  const std::string store_path = store.path();
  const std::vector<const char*> args = {
      "run", "--scenario", "control/operation-cots", "--runs", "12",
      "--seed", "3", "--format", "json", "--store", store_path.c_str()};
  const CliResult live = invoke(args);
  ASSERT_EQ(live.code, 0) << live.err;
  EXPECT_NE(live.out.find("\"simulated_runs\": 12"), std::string::npos)
      << live.out;
  const CliResult rerender = invoke(args);
  ASSERT_EQ(rerender.code, 0) << rerender.err;
  EXPECT_NE(rerender.out.find("\"simulated_runs\": 0"), std::string::npos)
      << rerender.out;
  // The only JSON difference between live and re-rendered is the store
  // section's counters and the wall-clock gauges: the digests — times AND
  // metrics — must match exactly.
  EXPECT_EQ(field_after(live.out, "digest"),
            field_after(rerender.out, "digest"));
}

// ---------------------------------------------------------------------------
// lint — the address-leak gate (static taint pass + dynamic taint runs).
// ---------------------------------------------------------------------------

TEST(CliLint, LeakyBeaconExitsOneWithAgreeingDetectors) {
  const CliResult result = invoke({"lint", "--scenario", "leak/beacon-dsr",
                                   "--runs", "8", "--workers", "2"});
  EXPECT_EQ(result.code, 1) << result.out << result.err;
  EXPECT_NE(result.out.find("LEAK"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("lk_status+4"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("return-address"), std::string::npos);
  EXPECT_NE(result.out.find("static/dynamic agree: yes"), std::string::npos)
      << result.out;
}

TEST(CliLint, HardenedBeaconExitsZeroClean) {
  const CliResult result = invoke({"lint", "--scenario", "leak/hardened-dsr",
                                   "--runs", "8", "--workers", "2"});
  EXPECT_EQ(result.code, 0) << result.out << result.err;
  EXPECT_NE(result.out.find("clean"), std::string::npos) << result.out;
  EXPECT_EQ(result.out.find("LEAK"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("static/dynamic agree: yes"), std::string::npos);
}

TEST(CliLint, JsonShapeCarriesBothDetectors) {
  const CliResult result =
      invoke({"lint", "--scenario", "leak/beacon-cots", "--runs", "6",
              "--workers", "2", "--format", "json"});
  EXPECT_EQ(result.code, 1) << result.out << result.err;
  EXPECT_EQ(field_after(result.out, "kind"), "\"lint\"");
  EXPECT_EQ(field_after(result.out, "leak"), "true");
  EXPECT_EQ(field_after(result.out, "agree"), "true");
  EXPECT_EQ(field_after(result.out, "source_kind"), "\"return-address\"");
  EXPECT_EQ(field_after(result.out, "sink_symbol"), "\"lk_status\"");
  EXPECT_EQ(field_after(result.out, "runs"), "6");
  // Dynamic counters confirmed the leak: one beacon store per run.
  EXPECT_EQ(field_after(result.out, "sink_stores"), "6");
  EXPECT_NE(field_after(result.out, "pc_taints"), "0");
}

TEST(CliLint, CleanControlScenarioAgreesCleanly) {
  // The full DSR-transformed control task: the DSR machinery moves layout
  // values constantly, none into the observable outputs.  Both detectors
  // must say clean — the static pass with zero false positives.
  const CliResult result =
      invoke({"lint", "--scenario", "control/operation-dsr", "--runs", "4",
              "--workers", "2", "--format", "json"});
  EXPECT_EQ(result.code, 0) << result.out << result.err;
  EXPECT_EQ(field_after(result.out, "leak"), "false");
  EXPECT_EQ(field_after(result.out, "agree"), "true");
  EXPECT_EQ(field_after(result.out, "sink_stores"), "0");
}

TEST(CliLint, UsageErrorsExitTwo) {
  EXPECT_EQ(invoke({"lint"}).code, 2) << "lint needs --scenario or --all";
  EXPECT_EQ(invoke({"lint", "--scenario", "no/such"}).code, 2);
  EXPECT_EQ(invoke({"lint", "--scenario", "leak/beacon-dsr", "--adaptive"})
                .code,
            2);
  EXPECT_EQ(invoke({"lint", "--scenario", "leak/beacon-dsr", "--store", "d"})
                .code,
            2);
  EXPECT_EQ(invoke({"lint", "--scenario", "leak/beacon-dsr", "--format",
                    "csv"})
                .code,
            2);
}

} // namespace
