// Differential tests for the batched re-randomisation fast path (ISSUE
// 10): the MARDU-style reseed — host-word block moves, staged metadata
// tables flushed as bulk spans, one coalesced invalidation-routine batch —
// must be BIT-IDENTICAL to the original per-word sequence: same RNG
// draws, same layouts, same final memory and cache state, same
// DsrRuntime::Stats, same execution times.  Plus the two properties the
// fast path's plumbing rests on: pool-chunk reuse across reboots must not
// shift the layout stream, and the on-demand reseed arm must stay a pure
// function of the run index at any worker count.
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "exec/seed.hpp"
#include "isa/builder.hpp"
#include "isa/linker.hpp"
#include "mem/cache.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "trace/report.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace proxima;
using namespace proxima::isa;
using dsr::DsrRuntime;
using dsr::PassOptions;
using dsr::RuntimeOptions;

constexpr std::uint32_t kStackTop = 0x4080'0000;

/// Same shape as the dsr_runtime_test workload: nested calls, stack
/// locals, recursion, loops — enough code that relocation spans multiple
/// cache lines and pool pages.
Program workload_program() {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.prologue(96);
    fb.li(kO0, 9);
    fb.call("fact");
    fb.mov(kL0, kO0);
    fb.li(kO0, 20);
    fb.call("sum_upto");
    fb.add(kL0, kL0, kO0);
    fb.load_address(kO1, "result");
    fb.st(kL0, kO1, 0);
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("fact");
    fb.prologue(96);
    fb.subcci(kI0, 1);
    fb.ble("base");
    fb.subi(kO0, kI0, 1);
    fb.call("fact");
    fb.mul(kI0, kI0, kO0);
    fb.ba("done");
    fb.label("base");
    fb.li(kI0, 1);
    fb.label("done");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("sum_upto");
    fb.prologue(104);
    fb.st(kG0, kSp, 96);
    fb.label("loop");
    fb.subcci(kI0, 0);
    fb.ble("end");
    fb.ld(kO1, kSp, 96);
    fb.add(kO1, kO1, kI0);
    fb.st(kO1, kSp, 96);
    fb.subi(kI0, kI0, 1);
    fb.ba("loop");
    fb.label("end");
    fb.ld(kI0, kSp, 96);
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.data.push_back(DataObject{.name = "result", .size = 4, .align = 4});
  program.entry = "main";
  return program;
}

constexpr std::uint32_t kExpectedResult = 362880 + 210;

struct DsrMachine {
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy;
  vm::Vm cpu;
  rng::Mwc random;
  LinkedImage image;
  DsrRuntime runtime;

  DsrMachine(vm::VmCore core, const PassOptions& pass_options,
             RuntimeOptions runtime_options)
      : hierarchy(mem::leon3_hierarchy_config()),
        cpu(memory, hierarchy,
            [core] {
              vm::VmConfig config;
              config.core = core;
              return config;
            }()),
        random(1), image(make_image(workload_program(), pass_options)),
        runtime(memory, hierarchy, image, random, runtime_options) {
    image.load_into(memory);
    cpu.predecode(image.code_begin(), image.code_end() - image.code_begin());
    runtime.attach(cpu);
  }

  static LinkedImage make_image(Program program,
                                const PassOptions& pass_options) {
    dsr::apply_pass(program, pass_options);
    return link(program);
  }

  void reseed(std::uint64_t round) {
    random.seed(exec::derive_run_seed(611085, exec::SeedStream::kLayout,
                                      round));
    runtime.rerandomise();
  }

  vm::RunResult run() {
    constexpr std::uint32_t kTrampoline = 0x40f0'0000;
    memory.write_u32(kTrampoline, isa::encode(make_b(Opcode::kHalt, 0)));
    cpu.reset(runtime.entry_address(), kStackTop);
    cpu.set_reg(kO7, kTrampoline - 4);
    return cpu.run();
  }

  std::uint32_t result() {
    return memory.read_u32(image.symbol("result").addr);
  }

  std::vector<std::uint32_t> layout() const {
    std::vector<std::uint32_t> snapshot;
    for (const FunctionRecord& record : image.functions()) {
      snapshot.push_back(runtime.function_address(record.id));
      snapshot.push_back(runtime.stack_offset(record.id));
    }
    return snapshot;
  }

  /// The guest-visible metadata tables, word by word.
  std::vector<std::uint32_t> tables() {
    std::vector<std::uint32_t> words;
    const std::uint32_t count =
        static_cast<std::uint32_t>(image.functions().size());
    for (const char* symbol : {"__dsr_functab", "__dsr_stackoff"}) {
      const std::uint32_t base = image.symbol(symbol).addr;
      for (std::uint32_t id = 0; id < count; ++id) {
        words.push_back(memory.read_u32(base + 4 * id));
      }
    }
    return words;
  }
};

void expect_same_stats(const DsrRuntime::Stats& a, const DsrRuntime::Stats& b) {
  EXPECT_EQ(a.reseeds, b.reseeds);
  EXPECT_EQ(a.ondemand_reseeds, b.ondemand_reseeds);
  EXPECT_EQ(a.relocations, b.relocations);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.lines_invalidated, b.lines_invalidated);
  EXPECT_EQ(a.lazy_traps, b.lazy_traps);
  EXPECT_EQ(a.lazy_cycles, b.lazy_cycles);
}

// ---------------------------------------------------------------------------
// Batched == per-word, at the runtime level: layouts, tables, stats, and
// the execution cycles that witness the whole cache state.
// ---------------------------------------------------------------------------

class RelocationPathSweep
    : public ::testing::TestWithParam<std::pair<vm::VmCore, bool>> {};

TEST_P(RelocationPathSweep, BatchedReseedIsBitIdenticalToPerWord) {
  const auto [core, lazy] = GetParam();
  PassOptions pass_options;
  pass_options.lazy_stubs = lazy;
  RuntimeOptions batched_options;
  batched_options.eager = !lazy;
  RuntimeOptions per_word_options = batched_options;
  per_word_options.batched_relocation = false;

  DsrMachine batched(core, pass_options, batched_options);
  DsrMachine per_word(core, pass_options, per_word_options);
  for (std::uint64_t round = 0; round < 8; ++round) {
    batched.reseed(round);
    per_word.reseed(round);
    EXPECT_EQ(batched.layout(), per_word.layout()) << "round " << round;
    EXPECT_EQ(batched.tables(), per_word.tables()) << "round " << round;
    // Executing the workload witnesses every cache level and the decode
    // cache: any divergent line state shows up as divergent cycles (and
    // a stale line as a coherence violation).
    const vm::RunResult a = batched.run();
    const vm::RunResult b = per_word.run();
    EXPECT_EQ(a.cycles, b.cycles) << "round " << round;
    EXPECT_EQ(batched.result(), kExpectedResult);
    EXPECT_EQ(per_word.result(), kExpectedResult);
    EXPECT_EQ(batched.hierarchy.counters().coherence_violations, 0u);
    EXPECT_EQ(per_word.hierarchy.counters().coherence_violations, 0u);
  }
  expect_same_stats(batched.runtime.stats(), per_word.runtime.stats());
}

INSTANTIATE_TEST_SUITE_P(
    CoresAndSchemes, RelocationPathSweep,
    ::testing::Values(std::pair{vm::VmCore::kFast, false},
                      std::pair{vm::VmCore::kFast, true},
                      std::pair{vm::VmCore::kReference, false}));

// ---------------------------------------------------------------------------
// Batched == per-word, at the campaign level: whole-scenario digests and
// merged metrics through the engine.
// ---------------------------------------------------------------------------

std::string engine_digest(casestudy::CampaignConfig config, unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  return trace::times_digest_hex(
      exec::CampaignEngine(options).run(config).times);
}

TEST(BatchedReseed, CampaignDigestsMatchPerWordPath) {
  for (const char* name :
       {"control/operation-dsr", "control/dsr-lazy", "hv/control+image-dsr",
        "leak/beacon-ondemand"}) {
    casestudy::CampaignConfig config =
        exec::ScenarioRegistry::global().at(name).make_config(12);
    config.dsr_options.batched_relocation = false;
    EXPECT_EQ(engine_digest(config, 4),
              engine_digest(
                  exec::ScenarioRegistry::global().at(name).make_config(12),
                  4))
        << name;
  }
}

TEST(BatchedReseed, CampaignCountersMatchPerWordPath) {
  casestudy::CampaignConfig config =
      exec::ScenarioRegistry::global().at("control/operation-dsr")
          .make_config(8);
  config.collect_metrics = true;
  casestudy::CampaignConfig per_word = config;
  per_word.dsr_options.batched_relocation = false;
  exec::EngineOptions options;
  options.workers = 4;
  const auto batched = exec::CampaignEngine(options).run(config);
  const auto baseline = exec::CampaignEngine(options).run(per_word);
  EXPECT_EQ(batched.metrics.counters, baseline.metrics.counters);
}

// ---------------------------------------------------------------------------
// Pool-chunk reuse: a runtime reseeding over a recycled pool must draw the
// same layout stream as a freshly constructed runtime given the same seed.
// ---------------------------------------------------------------------------

TEST(BatchedReseed, PoolChunkReuseDoesNotShiftTheLayoutStream) {
  PassOptions pass_options;
  DsrMachine recycled(vm::VmCore::kFast, pass_options, RuntimeOptions{});
  for (std::uint64_t round = 0; round < 12; ++round) {
    recycled.reseed(round);
    // Fresh machine: brand-new pool, no free-list history, same seed.
    DsrMachine fresh(vm::VmCore::kFast, pass_options, RuntimeOptions{});
    fresh.reseed(round);
    EXPECT_EQ(recycled.layout(), fresh.layout()) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Cache-level equivalence of the coalesced invalidation batch, including
// the tag-walk fast path for batches wider than the cache.
// ---------------------------------------------------------------------------

TEST(BatchedReseed, InvalidateRangesMatchesPerRangeCalls) {
  mem::CacheConfig config;
  config.name = "L2";
  config.size_bytes = 32 * 1024;
  config.line_bytes = 32;
  config.ways = 1;
  config.write_policy = mem::WritePolicy::kWriteBackAllocate;
  mem::Cache per_range(config);
  mem::Cache batched(config);
  // Populate both identically: reads spread over several way-sized spans,
  // writes making a subset dirty.
  for (std::uint32_t addr = 0; addr < 96 * 1024; addr += 64) {
    per_range.read(addr);
    batched.read(addr);
    if (addr % 256 == 0) {
      per_range.write(addr);
      batched.write(addr);
    }
  }
  // Sorted disjoint ranges spanning more lines than the cache holds — the
  // batched side takes the tag walk.  The populating loop above leaves each
  // direct-mapped set holding its LAST occupant, i.e. tags from the final
  // 32 KiB span (0x10000..0x17fff); the middle range covers them all, the
  // outer two cover none (exercising the no-op membership probes).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {0x100, 64}, {0x10000, 32 * 1024}, {0x20000, 2048}};
  mem::Invalidated per_range_dropped;
  for (const auto& [addr, length] : ranges) {
    per_range_dropped += per_range.invalidate_range(addr, length);
  }
  const mem::Invalidated batched_dropped = batched.invalidate_ranges(ranges);

  EXPECT_EQ(per_range_dropped.lines, batched_dropped.lines);
  EXPECT_EQ(per_range_dropped.dirty, batched_dropped.dirty);
  EXPECT_GT(batched_dropped.lines, 0u);
  EXPECT_GT(batched_dropped.dirty, 0u);
  // Both caches started identical, so equal residency afterwards means
  // both dropped the same lines.
  for (std::uint32_t addr = 0; addr < 96 * 1024; addr += 32) {
    ASSERT_EQ(per_range.contains(addr), batched.contains(addr))
        << "line 0x" << std::hex << addr;
    ASSERT_EQ(per_range.line_dirty(addr), batched.line_dirty(addr))
        << "line 0x" << std::hex << addr;
  }
}

// ---------------------------------------------------------------------------
// On-demand reseed determinism: the mid-run reseed consumes the same
// per-run layout stream, so digests are a pure function of the run index
// at ANY worker count.
// ---------------------------------------------------------------------------

TEST(OnDemandReseed, DigestsAreWorkerCountInvariant) {
  for (const char* name : {"control/dsr-ondemand", "leak/beacon-ondemand"}) {
    const auto make = [&] {
      return exec::ScenarioRegistry::global().at(name).make_config(16);
    };
    const std::string w1 = engine_digest(make(), 1);
    EXPECT_EQ(w1, engine_digest(make(), 3)) << name;
    EXPECT_EQ(w1, engine_digest(make(), 8)) << name;
  }
  const auto hv = [] {
    return exec::ScenarioRegistry::global()
        .at("hv/control+image-ondemand")
        .make_config(8);
  };
  const std::string w1 = engine_digest(hv(), 1);
  EXPECT_EQ(w1, engine_digest(hv(), 8)) << "hv/control+image-ondemand";
}

TEST(OnDemandReseed, TriggersFireWhereTheEventExists) {
  exec::EngineOptions options;
  options.workers = 4;
  // The leak beacon stores layout bits to an observable sink: the bare
  // trigger fires mid-run.
  casestudy::CampaignConfig beacon =
      exec::ScenarioRegistry::global().at("leak/beacon-ondemand")
          .make_config(8);
  beacon.collect_metrics = true;
  const auto fired = exec::CampaignEngine(options).run(beacon);
  EXPECT_GT(fired.metrics.counters.at("dsr.ondemand_reseeds"), 0u);
  // The control task never stores to a sink: armed, never fired.
  casestudy::CampaignConfig control =
      exec::ScenarioRegistry::global().at("control/dsr-ondemand")
          .make_config(8);
  control.collect_metrics = true;
  const auto silent = exec::CampaignEngine(options).run(control);
  EXPECT_EQ(silent.metrics.counters.at("dsr.ondemand_reseeds"), 0u);
  EXPECT_GT(silent.metrics.counters.at("dsr.reseeds"), 0u);
}

} // namespace
