#include "bench.hpp"

#include "casestudy/measured_target.hpp"
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "exec/seed.hpp"
#include "isa/linker.hpp"
#include "mbpta/mbpta.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "store/cell.hpp"
#include "vm/vm.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace campaign_bench {

namespace {

using proxima::casestudy::CampaignConfig;

// Each probe times `kRounds` identical rounds and keeps the fastest, for
// the same reason the campaign passes do: the work is deterministic, so
// interference can only add time.
constexpr int kRounds = 5;

volatile std::uint64_t read_sink = 0;

/// The measured program as a campaign runner links it: target program
/// with its UoA instrumented, DSR pass, base layout.
proxima::isa::LinkedImage link_measured_program(const CampaignConfig& config) {
  const auto target = proxima::casestudy::make_measured_target(config);
  proxima::isa::Program program = target->build_program();
  if (proxima::casestudy::uses_dsr(config.randomisation)) {
    proxima::dsr::apply_pass(program, config.pass_options);
  }
  proxima::isa::LinkOptions options = target->layout_options();
  options.function_order = config.function_order;
  return proxima::isa::link(program, options);
}

/// The measured program's platform, assembled from public parts the way
/// a campaign runner assembles its own (the runner keeps its platform
/// private): program + DSR pass, base link, image load, predecode, DSR
/// runtime attached.  Hypervisor guests are not loaded; the probes touch
/// only the measured partition.
struct ProbePlatform {
  explicit ProbePlatform(const CampaignConfig& campaign)
      : config(campaign), image(link_measured_program(config)),
        hierarchy(proxima::mem::leon3_hierarchy_config()),
        cpu(memory, hierarchy, vm_config(config)), layout_rng(1) {
    image.load_into(memory);
    cpu.predecode(image.code_begin(), image.code_end() - image.code_begin());
    if (!proxima::casestudy::uses_dsr(config.randomisation)) {
      throw std::invalid_argument("probe: the workload does not use DSR");
    }
    runtime = std::make_unique<proxima::dsr::DsrRuntime>(
        memory, hierarchy, image, layout_rng, config.dsr_options);
    runtime->attach(cpu);
  }

  /// Partition reboot `index` of the campaign's layout stream.
  void reseed(std::uint64_t index) {
    layout_rng.seed(proxima::exec::derive_run_seed(
        config.layout_seed, proxima::exec::SeedStream::kLayout, index));
    runtime->rerandomise();
  }

  static proxima::vm::VmConfig vm_config(const CampaignConfig& config) {
    proxima::vm::VmConfig vm;
    vm.core = config.vm_core;
    return vm;
  }

  CampaignConfig config;
  proxima::isa::LinkedImage image;
  proxima::mem::GuestMemory memory;
  proxima::mem::MemoryHierarchy hierarchy;
  proxima::vm::Vm cpu;
  proxima::rng::Mwc layout_rng;
  std::unique_ptr<proxima::dsr::DsrRuntime> runtime;
};

/// Fastest of kRounds timings of `round()`, in seconds.
template <typename Round> double fastest_round(Round&& round) {
  double fastest = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    const Clock::time_point start = Clock::now();
    round(r);
    fastest = std::min(fastest, seconds_since(start));
  }
  return fastest;
}

} // namespace

double probe_reseed_us(const CampaignConfig& config, std::uint32_t reseeds) {
  ProbePlatform platform(config);
  platform.reseed(0); // initialise() happens on the first reboot
  const double seconds = fastest_round([&](int round) {
    const std::uint64_t first = 1 + static_cast<std::uint64_t>(round) * reseeds;
    for (std::uint64_t i = first; i < first + reseeds; ++i) {
      platform.reseed(i);
    }
  });
  return seconds * 1e6 / reseeds;
}

GuestMemoryProbe probe_guest_memory(const CampaignConfig& config,
                                    std::uint64_t seed) {
  ProbePlatform platform(config);
  platform.reseed(0);

  // The measured program's pages: the linked image (code + data) and the
  // relocated copies of every function.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {platform.image.code_begin(), platform.image.code_end()},
      {platform.image.data_begin(), platform.image.data_end()}};
  for (const proxima::isa::FunctionRecord& record :
       platform.image.functions()) {
    const std::uint32_t addr = platform.runtime->function_address(record.id);
    ranges.emplace_back(addr, addr + record.size_bytes);
  }
  std::uint64_t total = 0;
  for (const auto& [begin, end] : ranges) {
    total += end - begin;
  }
  constexpr std::size_t kReads = 1 << 16;
  std::vector<std::uint32_t> addresses(kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    std::uint64_t offset =
        proxima::exec::splitmix64_mix(seed ^ (i * 0x9e3779b97f4a7c15ULL)) %
        total;
    for (const auto& [begin, end] : ranges) {
      if (offset < end - begin) {
        addresses[i] = (begin + static_cast<std::uint32_t>(offset)) & ~3U;
        break;
      }
      offset -= end - begin;
    }
  }
  std::uint64_t sink = 0;
  const double read_seconds = fastest_round([&](int) {
    for (const std::uint32_t addr : addresses) {
      sink += platform.memory.read_u8(addr + (addr >> 2 & 3U));
      sink += platform.memory.read_u32(addr);
    }
  });

  // The reseed's table flush: one span per DSR table, as many words as
  // the program has functions.
  const proxima::isa::Symbol& functab =
      platform.image.symbol(proxima::dsr::kFunctabSymbol);
  const proxima::isa::Symbol& stackoff =
      platform.image.symbol(proxima::dsr::kStackoffSymbol);
  const std::uint32_t words = std::min(functab.size, stackoff.size) / 4;
  std::vector<std::uint32_t> values(words);
  for (std::uint32_t i = 0; i < words; ++i) {
    values[i] = static_cast<std::uint32_t>(
        proxima::exec::splitmix64_mix(seed + i));
  }
  constexpr int kSpans = 4096;
  const double write_seconds = fastest_round([&](int) {
    for (int i = 0; i < kSpans; ++i) {
      platform.memory.write_u32_span(i % 2 == 0 ? functab.addr : stackoff.addr,
                                     values.data(), words);
    }
  });
  read_sink = sink; // keeps the timed reads observable
  return GuestMemoryProbe{read_seconds * 1e9 / (2.0 * kReads),
                          write_seconds * 1e9 /
                              (static_cast<double>(kSpans) * words)};
}

StoreProbe probe_store(const std::string& source_cell,
                       const std::string& probe_cell, OutputCheck& check) {
  const proxima::store::CellData source = proxima::store::load_cell(source_cell);
  std::vector<proxima::casestudy::RunSample> samples;
  std::vector<proxima::obs::MetricsShard> metrics;
  for (const proxima::store::StoredRun& run : source.runs) {
    samples.push_back(run.sample);
    metrics.push_back(run.metrics);
  }
  const auto runs = static_cast<double>(samples.size());
  std::size_t loaded_runs = 0;
  const double append_seconds = [&] {
    double fastest = std::numeric_limits<double>::infinity();
    for (int round = 0; round < kRounds; ++round) {
      std::filesystem::remove(probe_cell);
      proxima::store::CellWriter writer(probe_cell, source.header);
      const Clock::time_point start = Clock::now();
      writer.append(0, samples, metrics, true);
      fastest = std::min(fastest, seconds_since(start));
    }
    return fastest;
  }();
  const double load_seconds = fastest_round([&](int) {
    loaded_runs = proxima::store::load_cell(probe_cell).contiguous_prefix();
  });
  if (loaded_runs != samples.size() ||
      source.contiguous_prefix() != samples.size()) {
    check.record(1, 1, "store probe: the probe cell holds " +
                       std::to_string(loaded_runs) + " of " +
                       std::to_string(samples.size()) + " runs");
  }
  return StoreProbe{append_seconds * 1e6 / runs, load_seconds * 1e6 / runs,
                    static_cast<double>(std::filesystem::file_size(probe_cell)) /
                        runs};
}

double probe_mbpta_ms(const std::vector<double>& times, OutputCheck& check) {
  proxima::mbpta::MbptaConfig config;
  config.block_size = proxima::mbpta::auto_block_size(times.size());
  std::size_t points = 0;
  try {
    const double seconds = fastest_round([&](int) {
      const proxima::mbpta::MbptaAnalysis analysis =
          proxima::mbpta::analyse(times, config);
      points = analysis.model.curve().size();
    });
    if (points == 0) {
      check.record(1, 1, "mbpta probe: empty pWCET curve");
    }
    return seconds * 1e3;
  } catch (const std::exception& error) {
    check.record(1, 1, std::string("mbpta probe: ") + error.what());
    return 0.0;
  }
}

} // namespace campaign_bench
