#include "bench.hpp"

#include "exec/registry.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <stdexcept>

namespace campaign_bench {

Digests digests_of(const proxima::casestudy::CampaignResult& result) {
  return Digests{proxima::trace::times_digest_hex(result.times),
                 proxima::obs::metrics_digest_hex(result.metrics)};
}

// Why each workload is here, and which layer it stresses, is in README.md.
// Pass sizes keep one pass between a few tens and a few hundred
// milliseconds on a 4-vCPU host: interference there comes in bursts, and
// the fastest of many short passes finds the gaps between them far more
// reliably than the fastest of a few long ones.  Each pass still holds
// enough runs that the guest work differs by about 1% between seeds.
// The frozen digests are the program's outputs at this
// revision (`campaign_bench --freeze` prints them); a change that alters
// simulated results must re-freeze them and say so.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"control-dsr", "control/operation-dsr", 1, 20, false,
       {"0x03d21c7577c0149a", "0x347e35a7d79685ee"}},
      {"hv-image-dsr", "hv/control+image-dsr", 1, 2, false,
       {"0xbe194b7fc122763f", "0xbd2ed787c3e67c8e"}},
      {"leak-ondemand", "leak/beacon-ondemand", 2, 1000, false,
       {"0x3acf6ec55fc9f98d", "0x9395a249902fc389"}},
      {"store-roundtrip", "leak/beacon-dsr", 1, 500, true,
       {"0x5ce6c1d8faadc4b1", "0x14a2e00685788b25"}},
  };
  return table;
}

const Workload& find_workload(std::string_view name) {
  std::string known;
  for (const Workload& workload : workloads()) {
    if (name == workload.name) {
      return workload;
    }
    known += known.empty() ? "" : ", ";
    known += workload.name;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (known: " + known + ")");
}

proxima::casestudy::CampaignConfig
make_config(const Workload& workload, std::uint64_t seed, std::uint32_t runs) {
  proxima::casestudy::CampaignConfig config =
      proxima::exec::ScenarioRegistry::global()
          .at(workload.scenario)
          .make_config(runs);
  if (seed != 0) {
    config.input_seed = seed;
    config.layout_seed = proxima::exec::splitmix64_mix(seed);
  }
  config.collect_metrics = true;
  return config;
}

std::optional<Digests> expected_digests(const Workload& workload,
                                        std::uint64_t seed) {
  if (seed != 0) {
    return std::nullopt;
  }
  return workload.frozen;
}

} // namespace campaign_bench
