// Tests for the convergence-driven adaptive campaign pipeline: the stop
// decision is taken only at deterministic batch boundaries, so for a given
// config + options the collected sample set is bit-identical at any worker
// count, and equal to a fixed campaign of the same length — the property
// that makes an adaptive pWCET reproducible.
#include "casestudy/campaign.hpp"
#include "casestudy/campaign_runner.hpp"
#include "cli/json_reader.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;
using exec::AdaptiveCampaignResult;
using exec::ConvergenceOptions;

CampaignConfig dsr_config(std::uint32_t runs) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  return registry.at("control/operation-dsr").make_config(runs);
}

exec::EngineOptions worker_options(unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  return options;
}

/// Quick-converging criterion for small test campaigns.
ConvergenceOptions loose_convergence(std::uint64_t batch,
                                     std::uint64_t budget) {
  ConvergenceOptions options;
  options.batch_runs = batch;
  options.max_runs = budget;
  options.controller.target_exceedance = 1e-12;
  options.controller.epsilon = 0.5; // generous: stabilises in a few batches
  options.controller.stable_rounds = 1;
  options.controller.min_samples = 40;
  options.controller.mbpta.block_size = 10;
  return options;
}

/// Equal element by element, NaN (a failed i.i.d. verdict) matching NaN.
void expect_same_estimates(const std::vector<double>& a,
                           const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "estimate " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "estimate " << i;
    }
  }
}

void expect_identical(const AdaptiveCampaignResult& a,
                      const AdaptiveCampaignResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.batches, b.batches);
  ASSERT_EQ(a.runs(), b.runs());
  for (std::size_t i = 0; i < a.campaign.times.size(); ++i) {
    EXPECT_EQ(a.campaign.times[i], b.campaign.times[i]) << "run " << i;
  }
  expect_same_estimates(a.estimates, b.estimates);
  EXPECT_EQ(a.campaign.verified_runs, b.campaign.verified_runs);
  EXPECT_EQ(a.campaign.code_bytes, b.campaign.code_bytes);
}

TEST(AdaptiveCampaign, StopsAtABatchBoundaryOnceConverged) {
  const ConvergenceOptions options = loose_convergence(40, 400);
  const AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(worker_options(2))
          .run_adaptive(dsr_config(400), options);
  EXPECT_TRUE(adaptive.converged);
  EXPECT_FALSE(adaptive.capped);
  EXPECT_LT(adaptive.runs(), 400u) << "adaptive must stop short of the budget";
  EXPECT_EQ(adaptive.runs() % 40, 0u) << "stop only at batch boundaries";
  EXPECT_EQ(adaptive.batches, adaptive.runs() / 40);
  EXPECT_EQ(adaptive.campaign.samples.size(), adaptive.runs());
  EXPECT_EQ(adaptive.campaign.verified_runs, adaptive.runs());
}

TEST(AdaptiveCampaign, StopDecisionIsIndependentOfWorkerCount) {
  // The acceptance property: --workers 8 stops at the same run count and
  // produces bit-identical times as --workers 1 (same seed, same config).
  const ConvergenceOptions options = loose_convergence(40, 400);
  const CampaignConfig config = dsr_config(400);
  const AdaptiveCampaignResult sequential =
      exec::CampaignEngine(worker_options(1)).run_adaptive(config, options);
  const AdaptiveCampaignResult parallel =
      exec::CampaignEngine(worker_options(8)).run_adaptive(config, options);
  expect_identical(sequential, parallel);
}

TEST(AdaptiveCampaign, MatchesAFixedCampaignOfTheStopLength) {
  // An adaptive stop at N runs is the SAME campaign as a fixed N-run one:
  // times bit-identical, so the downstream pWCET fit is too.
  const ConvergenceOptions options = loose_convergence(40, 400);
  const AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(worker_options(4))
          .run_adaptive(dsr_config(400), options);
  ASSERT_GT(adaptive.runs(), 0u);

  CampaignConfig fixed_config =
      dsr_config(static_cast<std::uint32_t>(adaptive.runs()));
  const CampaignResult fixed =
      exec::CampaignEngine(worker_options(1)).run(fixed_config);
  ASSERT_EQ(fixed.times.size(), adaptive.campaign.times.size());
  for (std::size_t i = 0; i < fixed.times.size(); ++i) {
    EXPECT_EQ(fixed.times[i], adaptive.campaign.times[i]) << "run " << i;
  }
  EXPECT_EQ(fixed.verified_runs, adaptive.campaign.verified_runs);
}

TEST(AdaptiveCampaign, BudgetCapsANonConvergingCampaign) {
  ConvergenceOptions options = loose_convergence(25, 60);
  options.controller.epsilon = 0.0;      // never "stable"
  options.controller.stable_rounds = 99; // unreachable
  const AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(worker_options(2))
          .run_adaptive(dsr_config(60), options);
  EXPECT_FALSE(adaptive.converged);
  EXPECT_TRUE(adaptive.capped);
  EXPECT_EQ(adaptive.runs(), 60u) << "budget exhausted: 25 + 25 + 10";
  EXPECT_EQ(adaptive.batches, 3u) << "final batch truncated to the budget";
}

TEST(AdaptiveCampaign, ControllerCapStopsBeforeTheEngineBudget) {
  ConvergenceOptions options = loose_convergence(25, 500);
  options.controller.epsilon = 0.0;
  options.controller.stable_rounds = 99;
  options.controller.max_samples = 50; // the controller's own budget
  const AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(worker_options(2))
          .run_adaptive(dsr_config(500), options);
  EXPECT_FALSE(adaptive.converged);
  EXPECT_TRUE(adaptive.capped);
  EXPECT_EQ(adaptive.runs(), 50u);
}

TEST(AdaptiveCampaign, DefaultBudgetIsTheConfigsRunCount) {
  ConvergenceOptions options = loose_convergence(25, 0); // max_runs unset
  options.controller.epsilon = 0.0;
  options.controller.stable_rounds = 99;
  const AdaptiveCampaignResult adaptive =
      exec::CampaignEngine(worker_options(1))
          .run_adaptive(dsr_config(50), options);
  EXPECT_EQ(adaptive.runs(), 50u) << "config.runs is the default budget";
}

/// Span labels on the timeline's engine/batches track, in time order.
std::vector<std::string> batch_spans(const obs::Timeline& timeline) {
  std::ostringstream json;
  timeline.write_json(json);
  const cli::JsonValue document = cli::JsonValue::parse(json.str());
  // Track metadata precedes the spans: the process first, then its
  // threads.
  double engine = -1.0;
  double batches = -1.0;
  std::vector<std::string> spans;
  for (const cli::JsonValue& event : document.get("traceEvents")->array) {
    const std::string& kind = event.get("name")->string;
    const double pid = event.get("pid")->number;
    const double tid = event.get("tid")->number;
    if (event.get("ph")->string == "X") {
      if (pid == engine && tid == batches) {
        spans.push_back(kind);
      }
    } else if (kind == "process_name" &&
               event.get("args", "name")->string == "engine") {
      engine = pid;
    } else if (kind == "thread_name" && pid == engine &&
               event.get("args", "name")->string == "batches") {
      batches = tid;
    }
  }
  return spans;
}

/// Runs [0, runs) of `config` with their per-run metric deltas, as the
/// store would hold them.
struct Prefix {
  std::vector<casestudy::RunSample> samples;
  std::vector<obs::MetricsShard> run_metrics;

  Prefix(const CampaignConfig& config, std::uint64_t runs) {
    casestudy::CampaignRunner runner(config);
    for (std::uint64_t index = 0; index < runs; ++index) {
      samples.push_back(runner.run(index));
      run_metrics.push_back(runner.last_run_metrics());
    }
  }

  exec::StoredPrefix view() const { return {samples, run_metrics, {}}; }
};

TEST(AdaptiveOutputs, AFixedCampaignHasNone) {
  // No convergence series, no batch-count gauge, no batch spans — live or
  // served entirely from a stored prefix.  The loop's own engine.* gauges
  // are there either way.
  CampaignConfig config = dsr_config(60);
  config.collect_metrics = true;
  const Prefix stored(config, 60);

  for (const bool resumed : {false, true}) {
    obs::Timeline timeline;
    config.timeline = &timeline;
    const exec::CampaignEngine engine(worker_options(2));
    const CampaignResult fixed =
        resumed ? engine.run(config, stored.view()) : engine.run(config);
    ASSERT_EQ(fixed.times.size(), 60u);
    EXPECT_FALSE(fixed.metrics.series.contains("engine.pwcet_estimates"))
        << "resumed " << resumed;
    EXPECT_FALSE(fixed.metrics.gauges.contains("engine.batches"))
        << "resumed " << resumed;
    EXPECT_TRUE(fixed.metrics.gauges.contains("engine.wall_seconds"))
        << "resumed " << resumed;
    EXPECT_TRUE(batch_spans(timeline).empty()) << "resumed " << resumed;
    EXPECT_EQ(timeline.size(), resumed ? 0u : 60u) << "one span per run";
  }
}

TEST(AdaptiveOutputs, AnAdaptiveCampaignRecordsItsBatches) {
  const ConvergenceOptions options = loose_convergence(40, 400);
  CampaignConfig config = dsr_config(400);
  config.collect_metrics = true;

  obs::Timeline live_timeline;
  config.timeline = &live_timeline;
  const AdaptiveCampaignResult live =
      exec::CampaignEngine(worker_options(2)).run_adaptive(config, options);
  ASSERT_GE(live.batches, 2u);
  expect_same_estimates(
      live.campaign.metrics.series.at("engine.pwcet_estimates"),
      live.estimates);
  EXPECT_EQ(live.campaign.metrics.gauges.at("engine.batches"),
            static_cast<double>(live.batches));
  std::vector<std::string> expected;
  for (std::size_t batch = 0; batch < live.batches; ++batch) {
    expected.push_back("batch " + std::to_string(batch) + " [" +
                       std::to_string(40 * batch) + ", " +
                       std::to_string(40 * batch + 40) + ")");
  }
  EXPECT_EQ(batch_spans(live_timeline), expected) << "one per batch";

  // Resume from 60 stored runs: batch 0 is served entirely from the
  // prefix and executes nothing, so it leaves no span; batch 1 executes
  // only its uncovered tail.
  config.timeline = nullptr;
  const Prefix stored(config, 60);
  obs::Timeline resumed_timeline;
  config.timeline = &resumed_timeline;
  const AdaptiveCampaignResult resumed =
      exec::CampaignEngine(worker_options(2))
          .run_adaptive(config, options, stored.view());
  EXPECT_EQ(resumed.runs(), live.runs());
  EXPECT_EQ(resumed.batches, live.batches);
  expect_same_estimates(
      resumed.campaign.metrics.series.at("engine.pwcet_estimates"),
      live.estimates);
  EXPECT_EQ(resumed.campaign.metrics.gauges.at("engine.batches"),
            static_cast<double>(live.batches));
  expected.erase(expected.begin());
  expected.front() = "batch 1 [60, 80)";
  EXPECT_EQ(batch_spans(resumed_timeline), expected);
}

TEST(AdaptiveCampaign, RejectsDegenerateOptions) {
  ConvergenceOptions zero_batch;
  zero_batch.batch_runs = 0;
  EXPECT_THROW(exec::CampaignEngine(worker_options(1))
                   .run_adaptive(dsr_config(10), zero_batch),
               std::invalid_argument);
  ConvergenceOptions zero_budget;
  zero_budget.max_runs = 0;
  EXPECT_THROW(exec::CampaignEngine(worker_options(1))
                   .run_adaptive(dsr_config(0), zero_budget),
               std::invalid_argument);
}

} // namespace
