// Dispatch-core comparison: the reference switch interpreter against the
// predecoded fast core on the same control-task campaigns, sequentially.
//
// Reports guest instructions per wall second for each core plus the
// speedup ratio.  The campaigns must be *bit-identical* across both
// cores — any divergence in UoA cycles or counters fails the bench
// outright — so the numbers this bench prints are pure dispatch-speed
// deltas, not behaviour changes.
//
// Exit status: 0 iff results are identical on every workload AND, on the
// operation-like control-task workload, the fast core sustains >= 1.5x the
// reference core's instructions/second.
#include "bench_util.hpp"
#include "casestudy/control_task.hpp"

#include <chrono>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

struct CoreRun {
  CampaignResult result;
  double seconds = 0.0;
};

CoreRun run_core(const CampaignConfig& base, vm::VmCore core) {
  CampaignConfig config = base;
  config.vm_core = core;
  CoreRun run;
  const auto start = std::chrono::steady_clock::now();
  // Sequential on purpose: worker scheduling must not pollute the timing.
  run.result = run_control_campaign(config);
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

bool identical(const CampaignResult& a, const CampaignResult& b) {
  return a.times == b.times && a.samples == b.samples;
}

double mips(const CoreRun& run) {
  return static_cast<double>(guest_instructions(run.result)) / run.seconds /
         1e6;
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(300);
  print_header("VM dispatch: reference vs fast (" +
               std::to_string(runs) + " runs each, sequential)");
  std::printf("control program: %zu static instructions (predecode slots)\n\n",
              build_control_program(ControlParams{}).total_instructions());

  bool all_identical = true;
  double control_fast_ratio = 0.0;

  std::printf("%-26s %10s %10s %7s  %s\n", "workload", "ref Mi/s",
              "fast Mi/s", "fast/ref", "bit-identical");
  for (const char* name :
       {"control/operation-cots", "control/analysis-dsr",
        "control/operation-hwrand"}) {
    const CampaignConfig config =
        exec::ScenarioRegistry::global().at(name).make_config(runs);
    const CoreRun reference = run_core(config, vm::VmCore::kReference);
    const CoreRun fast = run_core(config, vm::VmCore::kFast);

    const double ref_mips = mips(reference);
    const double fast_mips = mips(fast);
    const double fast_ratio = fast_mips / ref_mips;
    const bool same = identical(fast.result, reference.result);
    all_identical = all_identical && same;
    if (std::string_view(name) == "control/operation-cots") {
      control_fast_ratio = fast_ratio;
    }
    std::printf("%-26s %10.1f %10.1f %6.2fx  %s\n", name, ref_mips,
                fast_mips, fast_ratio, same ? "yes" : "NO — DIVERGENCE");
  }

  std::printf("\nshape check: bit-identical on all workloads: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("shape check: fast core >= 1.5x reference on the control task: "
              "%s (%.2fx)\n",
              control_fast_ratio >= 1.5 ? "yes" : "NO", control_fast_ratio);
  return all_identical && control_fast_ratio >= 1.5 ? 0 : 1;
}
