// A7 — Component microbenchmarks (google-benchmark).
//
// Host-side performance of the reproduction's building blocks: simulator
// instruction throughput, cache-model access rate, the MWC/LFSR sources,
// and the statistical machinery.  These bound how large a measurement
// campaign the harness can sustain.
#include "casestudy/control_task.hpp"
#include "isa/builder.hpp"
#include "isa/linker.hpp"
#include "mbpta/mbpta.hpp"
#include "mem/hierarchy.hpp"
#include "rng/distributions.hpp"
#include "rng/lfsr.hpp"
#include "rng/mwc.hpp"
#include "vm/vm.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace proxima;

void BM_MwcNextU32(benchmark::State& state) {
  rng::Mwc mwc(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mwc.next_u32());
  }
}
BENCHMARK(BM_MwcNextU32);

void BM_LfsrNextU32(benchmark::State& state) {
  rng::Lfsr lfsr(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lfsr.next_u32());
  }
}
BENCHMARK(BM_LfsrNextU32);

void BM_CacheReadHit(benchmark::State& state) {
  mem::Cache cache(mem::leon3_hierarchy_config().dl1);
  cache.read(0x1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(0x1000));
  }
}
BENCHMARK(BM_CacheReadHit);

void BM_HierarchyLoadStream(benchmark::State& state) {
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  std::uint32_t addr = 0x40000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.load(addr));
    addr += 32;
  }
}
BENCHMARK(BM_HierarchyLoadStream);

void BM_VmInstructionThroughput(benchmark::State& state) {
  // A tight arithmetic loop: measures simulated instructions per second.
  isa::Program program;
  isa::FunctionBuilder fb("main");
  fb.li(isa::kO0, 1000000000);
  fb.label("top");
  fb.subcci(isa::kO0, 1);
  fb.subi(isa::kO0, isa::kO0, 1);
  fb.bg("top");
  fb.halt();
  program.functions.push_back(std::move(fb).build());
  program.entry = "main";
  const isa::LinkedImage image = isa::link(program);

  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);
  cpu.reset(image.entry_addr(), 0x40800000);

  std::uint64_t executed = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000 && !cpu.halted(); ++i) {
      cpu.step();
    }
    executed += 1000;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmInstructionThroughput);

void BM_ControlTaskActivation(benchmark::State& state) {
  using namespace proxima::casestudy;
  const ControlParams params;
  isa::Program program = build_control_program(params);
  const isa::LinkedImage image =
      isa::link(program, control_layout(params, Layout::kCotsBad, 0x40800000));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);
  rng::Mwc random(1);
  ControlInputs inputs = initial_control_inputs(params);
  refresh_control_inputs(random, params, inputs);
  stage_control_inputs(memory, hierarchy, image, inputs);
  for (auto _ : state) {
    hierarchy.flush_all();
    cpu.reset(image.entry_addr(), 0x40800000);
    benchmark::DoNotOptimize(cpu.run());
  }
}
BENCHMARK(BM_ControlTaskActivation)->Unit(benchmark::kMillisecond);

void BM_LjungBox(benchmark::State& state) {
  rng::Mwc mwc(1);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(rng::sample_gumbel(mwc, 1000.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbpta::ljung_box(samples, 20));
  }
}
BENCHMARK(BM_LjungBox);

void BM_GumbelFit(benchmark::State& state) {
  rng::Mwc mwc(2);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(rng::sample_gumbel(mwc, 1000.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbpta::PwcetModel::fit_block_maxima(samples, 50));
  }
}
BENCHMARK(BM_GumbelFit);

} // namespace

BENCHMARK_MAIN();
