// E4 — Figure 3: "pWCET curve of the DSR version of the application".
//
// The paper shows the RVS-Viewer screenshot: execution time on the X axis,
// exceedance probability (log scale) on the Y axis; the pWCET prediction (a
// straight line in that scale) "tightly upper-bounds the measured execution
// times values (MET)".  This bench regenerates the same picture as an
// ASCII plot plus the underlying CSV series.
#include "bench_util.hpp"
#include "trace/report.hpp"

#include <algorithm>
#include <span>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

int main() {
  const std::uint32_t runs = campaign_runs(1000);
  print_header("Figure 3 — pWCET curve of the DSR version (" +
               std::to_string(runs) + " measurement runs)");

  // The campaign runs on the parallel engine.  The finished campaign is
  // then replayed into the MBPTA convergence controller in fixed batches —
  // the incremental measure-test-extend loop of Section V.  The
  // controller's stable-round accounting is order-sensitive, so the batch
  // boundaries are fixed run indices, never shard completions: the verdict
  // is the same at any worker count.
  exec::EngineOptions engine_options;
  engine_options.workers = campaign_workers();
  const auto campaign_start = std::chrono::steady_clock::now();
  const CampaignResult dsr =
      exec::CampaignEngine(engine_options)
          .run(exec::ScenarioRegistry::global()
                   .at("control/analysis-dsr")
                   .make_config(runs));
  const double campaign_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    campaign_start)
          .count();

  constexpr std::size_t kBatchRuns = 100;
  mbpta::ConvergenceController::Config convergence;
  convergence.target_exceedance = 1e-15;
  convergence.mbpta = analysis_mbpta(runs);
  mbpta::ConvergenceController controller(convergence);
  for (std::size_t begin = 0; begin < dsr.times.size(); begin += kBatchRuns) {
    controller.add_batch(std::span<const double>(dsr.times).subspan(
        begin, std::min(kBatchRuns, dsr.times.size() - begin)));
  }
  std::printf("convergence controller: %zu samples in %zu-run batches, "
              "pWCET estimate %s after the campaign\n",
              controller.samples_used(), kBatchRuns,
              controller.converged() ? "stable" : "still moving");
  print_throughput("analysis-dsr campaign", dsr, campaign_seconds);

  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(dsr.times, analysis_mbpta(runs));

  std::printf("i.i.d.: LB p=%.3f, KS p=%.3f -> %s (EVT %s)\n",
              analysis.iid.independence.p_value,
              analysis.iid.identical_distribution.p_value,
              analysis.iid.passes() ? "pass" : "FAIL",
              analysis.applicable() ? "applicable" : "NOT applicable");
  std::printf("measurements: min=%.0f avg=%.1f MOET=%.0f\n",
              analysis.summary.min, analysis.summary.mean,
              analysis.summary.max);
  std::printf("Gumbel tail fit: location=%.1f scale=%.2f (block size %u)\n\n",
              analysis.model.info().gumbel.location,
              analysis.model.info().gumbel.scale,
              analysis.model.info().block_size);

  std::printf("%s\n",
              trace::ascii_exceedance_plot(analysis.model, dsr.times).c_str());

  std::printf("%s", trace::pwcet_curve_csv(analysis.model).c_str());

  // The curve must upper-bound every measurement at its empirical rate.
  const double pwcet_1e15 = analysis.pwcet(1e-15);
  const bool bounds = pwcet_1e15 > analysis.summary.max;
  std::printf("\npWCET(1e-15) = %.0f cycles, %.2f%% above the DSR MOET "
              "(paper: +0.2%%)\n",
              pwcet_1e15, 100.0 * (pwcet_1e15 / analysis.summary.max - 1.0));
  std::printf("shape check: curve tightly upper-bounds the MET: %s\n",
              bounds ? "yes" : "NO");
  return analysis.applicable() && bounds ? 0 : 1;
}
