#include "bench.hpp"

#include <utility>

namespace campaign_bench {

namespace {

// Enough messages to diagnose a failing invocation without flooding it.
constexpr std::size_t kMaxErrors = 8;

} // namespace

OutputCheck::OutputCheck(std::optional<Digests> expected, bool compare_metrics)
    : reference_(std::move(expected)), compare_metrics_(compare_metrics) {}

void OutputCheck::fail(std::uint64_t runs, const std::string& why) {
  failed_ += runs;
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(why);
  }
}

bool OutputCheck::matches_reference(const Digests& got) {
  if (!reference_) {
    reference_ = got;
    return true;
  }
  return got.times == reference_->times &&
         (!compare_metrics_ || got.metrics == reference_->metrics);
}

bool OutputCheck::pass(std::uint64_t runs,
                       const proxima::casestudy::CampaignResult& result) {
  attempted_ += runs;
  if (result.times.size() != runs) {
    fail(runs, "pass returned " + std::to_string(result.times.size()) +
                   " of " + std::to_string(runs) + " runs");
    return false;
  }
  const Digests got = digests_of(result);
  if (!matches_reference(got)) {
    fail(runs, "pass digests " + got.times + "/" + got.metrics +
                   " differ from the reference " + reference_->times + "/" +
                   reference_->metrics);
    return false;
  }
  if (result.verified_runs < runs) {
    fail(runs - result.verified_runs,
         std::to_string(runs - result.verified_runs) +
             " runs not verified by the golden model");
    return false;
  }
  return true;
}

void OutputCheck::threw(std::uint64_t runs, const std::string& what) {
  attempted_ += runs;
  fail(runs, "pass threw: " + what);
}

bool OutputCheck::rerender(std::uint64_t runs,
                           const proxima::casestudy::CampaignResult& result,
                           std::uint64_t simulated_runs, const Digests& cold) {
  attempted_ += runs;
  if (simulated_runs != 0) {
    fail(runs, "warm store pass simulated " + std::to_string(simulated_runs) +
                   " runs instead of 0");
    return false;
  }
  const Digests got = digests_of(result);
  if (result.times.size() != runs || got != cold) {
    fail(runs, "warm store pass digests " + got.times + "/" + got.metrics +
                   " differ from the cold pass's " + cold.times + "/" +
                   cold.metrics);
    return false;
  }
  if (result.verified_runs < runs) {
    fail(runs - result.verified_runs,
         "warm store pass served unverified runs");
    return false;
  }
  return true;
}

void OutputCheck::record(std::uint64_t attempted, std::uint64_t failed,
                         const std::string& why) {
  attempted_ += attempted;
  if (failed != 0) {
    fail(failed, why);
  }
}

void OutputCheck::absorb(const OutputCheck& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& error : other.errors_) {
    if (errors_.size() < kMaxErrors) {
      errors_.push_back(error);
    }
  }
}

} // namespace campaign_bench
