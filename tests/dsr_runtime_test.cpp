// End-to-end tests for the DSR runtime: relocation, stack offsets, cache
// invalidation, lazy traps, re-randomisation (Section III.B).
//
// The central property: DSR must change WHERE code and stack frames live —
// and therefore the timing — while never changing WHAT the program
// computes, for any seed.
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "isa/builder.hpp"
#include "isa/linker.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/mwc.hpp"
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace proxima;
using namespace proxima::isa;
using dsr::DsrRuntime;
using dsr::PassOptions;
using dsr::RuntimeOptions;

constexpr std::uint32_t kStackTop = 0x4080'0000;

/// A program exercising every DSR-relevant mechanism: nested calls, stack
/// frames with locals, recursion deep enough to spill windows, and loops.
Program workload_program() {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.prologue(96);
    fb.li(kO0, 9);
    fb.call("fact"); // 9! = 362880
    fb.mov(kL0, kO0);
    fb.li(kO0, 20);
    fb.call("sum_upto"); // 210
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
    FunctionBuilder fb("sum_upto"); // iterative, uses a stack local
    fb.prologue(104);
    fb.st(kG0, kSp, 96); // local accumulator at [sp+96]
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

/// Entry wrapper: the RTOS-side jump into the randomised entry needs a halt
/// after main returns; we add a tiny launcher calling through the runtime.
struct DsrMachine {
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy;
  vm::Vm cpu;
  rng::Mwc random;
  LinkedImage image;
  DsrRuntime runtime;

  DsrMachine(Program program, std::uint64_t seed,
             const PassOptions& pass_options = {},
             RuntimeOptions runtime_options = {})
      : hierarchy(mem::leon3_hierarchy_config()), cpu(memory, hierarchy),
        random(seed),
        image(make_image(std::move(program), pass_options)),
        runtime(memory, hierarchy, image, random, runtime_options) {
    image.load_into(memory);
    runtime.initialise();
    runtime.attach(cpu);
  }

  static LinkedImage make_image(Program program,
                                const PassOptions& pass_options) {
    dsr::apply_pass(program, pass_options);
    return link(program);
  }

  vm::RunResult run() {
    // main() ends with a RESTORE+JMPL into the launcher's address space;
    // emulate the RTOS by running until main returns to a halt trampoline.
    // We place a HALT at a fixed scratch address and set %o7 to it - 4.
    constexpr std::uint32_t kTrampoline = 0x40f0'0000;
    memory.write_u32(kTrampoline, isa::encode(make_b(Opcode::kHalt, 0)));
    cpu.reset(runtime.entry_address(), kStackTop);
    cpu.set_reg(kO7, kTrampoline - 4);
    return cpu.run();
  }

  std::uint32_t result() {
    return memory.read_u32(image.symbol("result").addr);
  }
};

// ---------------------------------------------------------------------------
// Functional invariance across seeds — THE DSR correctness property.
// ---------------------------------------------------------------------------

class DsrSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DsrSeedSweep, EagerRelocationPreservesSemantics) {
  DsrMachine machine(workload_program(), GetParam());
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
  EXPECT_EQ(machine.hierarchy.counters().coherence_violations, 0u);
}

TEST_P(DsrSeedSweep, LazyRelocationPreservesSemantics) {
  PassOptions pass_options;
  pass_options.lazy_stubs = true;
  RuntimeOptions runtime_options;
  runtime_options.eager = false;
  DsrMachine machine(workload_program(), GetParam(), pass_options,
                     runtime_options);
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
  EXPECT_EQ(machine.hierarchy.counters().coherence_violations, 0u);
}

TEST_P(DsrSeedSweep, StackOffsetsAlignedAndBounded) {
  DsrMachine machine(workload_program(), GetParam());
  for (std::uint32_t id = 0; id < machine.runtime.managed_functions(); ++id) {
    const std::uint32_t offset = machine.runtime.stack_offset(id);
    EXPECT_EQ(offset % 8, 0u);
    EXPECT_LT(offset, machine.runtime.options().offset_range);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsrSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

// ---------------------------------------------------------------------------
// Layout properties.
// ---------------------------------------------------------------------------

TEST(DsrRuntime, FunctionsMoveIntoThePool) {
  DsrMachine machine(workload_program(), 7);
  const RuntimeOptions& options = machine.runtime.options();
  for (const FunctionRecord& record : machine.image.functions()) {
    const std::uint32_t addr = machine.runtime.function_address(record.id);
    EXPECT_NE(addr, record.addr) << record.name;
    EXPECT_GE(addr, options.code_pool.base);
    EXPECT_LT(addr, options.code_pool.base + options.code_pool.size);
    EXPECT_EQ(addr % 8, 0u);
  }
}

TEST(DsrRuntime, RelocatedCodeIsBitIdentical) {
  DsrMachine machine(workload_program(), 11);
  for (const FunctionRecord& record : machine.image.functions()) {
    const std::uint32_t new_addr = machine.runtime.function_address(record.id);
    for (std::uint32_t i = 0; i < record.size_bytes; i += 4) {
      ASSERT_EQ(machine.memory.read_u32(new_addr + i),
                machine.memory.read_u32(record.addr + i))
          << record.name << "+" << i;
    }
  }
}

TEST(DsrRuntime, LayoutsDifferAcrossSeeds) {
  DsrMachine a(workload_program(), 100);
  DsrMachine b(workload_program(), 200);
  bool any_difference = false;
  for (std::uint32_t id = 0; id < a.runtime.managed_functions(); ++id) {
    if (a.runtime.function_address(id) != b.runtime.function_address(id) ||
        a.runtime.stack_offset(id) != b.runtime.stack_offset(id)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(DsrRuntime, RerandomiseChangesLayout) {
  DsrMachine machine(workload_program(), 42);
  std::vector<std::uint32_t> before;
  for (std::uint32_t id = 0; id < machine.runtime.managed_functions(); ++id) {
    before.push_back(machine.runtime.function_address(id));
  }
  machine.runtime.rerandomise();
  bool changed = false;
  for (std::uint32_t id = 0; id < machine.runtime.managed_functions(); ++id) {
    if (machine.runtime.function_address(id) != before[id]) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
  // And the program still works under the new layout.
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
}

TEST(DsrRuntime, OffsetsSpanTheConfiguredRange) {
  // Across many re-randomisations the code offsets must explore the whole
  // L2 way (32 KiB), not just a corner of it.
  DsrMachine machine(workload_program(), 9);
  std::set<std::uint32_t> l2_sets;
  for (int round = 0; round < 200; ++round) {
    machine.runtime.rerandomise();
    const std::uint32_t addr = machine.runtime.function_address(0u);
    l2_sets.insert((addr / 32) % 1024); // L2 set of the first line
  }
  EXPECT_GT(l2_sets.size(), 120u); // ~200 draws over 1024 sets
}

TEST(DsrRuntime, EntryAddressTracksRelocation) {
  DsrMachine machine(workload_program(), 3);
  const FunctionRecord& main_record = machine.image.function("main");
  EXPECT_EQ(machine.runtime.entry_address(),
            machine.runtime.function_address(main_record.id));
  EXPECT_NE(machine.runtime.entry_address(), machine.image.entry_addr());
}

// ---------------------------------------------------------------------------
// Ablation switches.
// ---------------------------------------------------------------------------

TEST(DsrRuntime, CodeRandomisationCanBeDisabled) {
  RuntimeOptions options;
  options.randomise_code = false;
  DsrMachine machine(workload_program(), 5, {}, options);
  for (const FunctionRecord& record : machine.image.functions()) {
    EXPECT_EQ(machine.runtime.function_address(record.id), record.addr);
  }
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
}

TEST(DsrRuntime, StackRandomisationCanBeDisabled) {
  RuntimeOptions options;
  options.randomise_stack = false;
  DsrMachine machine(workload_program(), 5, {}, options);
  for (std::uint32_t id = 0; id < machine.runtime.managed_functions(); ++id) {
    EXPECT_EQ(machine.runtime.stack_offset(id), 0u);
  }
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
}

TEST(DsrRuntime, OffsetRangeRespectedWhenShrunk) {
  RuntimeOptions options;
  options.offset_range = 4096; // L1 way size (ablation A1)
  DsrMachine machine(workload_program(), 5, {}, options);
  for (std::uint32_t id = 0; id < machine.runtime.managed_functions(); ++id) {
    EXPECT_LT(machine.runtime.stack_offset(id), 4096u);
  }
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
}

// ---------------------------------------------------------------------------
// Lazy relocation.
// ---------------------------------------------------------------------------

TEST(DsrRuntime, LazyRelocatesOnFirstCallOnly) {
  PassOptions pass_options;
  pass_options.lazy_stubs = true;
  RuntimeOptions runtime_options;
  runtime_options.eager = false;
  DsrMachine machine(workload_program(), 17, pass_options, runtime_options);

  // Before running: nothing relocated, entry points at main's stub.
  EXPECT_EQ(machine.runtime.stats().relocations, 0u);
  const FunctionRecord& stub = machine.image.function("__dsr_stub_main");
  EXPECT_EQ(machine.runtime.entry_address(), stub.addr);

  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
  // All three functions were called, each relocated exactly once even
  // though fact() is invoked 9 times.
  EXPECT_EQ(machine.runtime.stats().relocations, 3u);
  EXPECT_EQ(machine.runtime.stats().lazy_traps, 3u);
}

TEST(DsrRuntime, LazyChargesRelocationCycles) {
  PassOptions pass_options;
  pass_options.lazy_stubs = true;
  RuntimeOptions lazy_options;
  lazy_options.eager = false;

  DsrMachine lazy(workload_program(), 23, pass_options, lazy_options);
  lazy.run();
  const std::uint64_t lazy_first_run = lazy.cpu.cycles();

  // Same seed stream, eager: the relocation cost is paid before execution,
  // so the measured run is shorter.
  DsrMachine eager(workload_program(), 23);
  eager.run();
  EXPECT_GT(lazy_first_run, eager.cpu.cycles() / 2); // sanity
  EXPECT_GT(lazy.runtime.stats().lazy_traps, 0u);
}

TEST(DsrRuntime, LazyWithoutStubsRejected) {
  RuntimeOptions options;
  options.eager = false;
  EXPECT_THROW(DsrMachine(workload_program(), 1, {}, options),
               proxima::dsr::DsrError);
}

// ---------------------------------------------------------------------------
// Cache invalidation routine (Section III.B.1) and failure injection.
// ---------------------------------------------------------------------------

TEST(DsrRuntime, InvalidationRoutineKeepsCoherence) {
  DsrMachine machine(workload_program(), 31);
  machine.hierarchy.set_strict_coherence(true);
  // Two measurement runs with a re-randomisation in between and WITHOUT a
  // cache flush: only the invalidation routine protects coherence.
  machine.run();
  machine.runtime.rerandomise();
  EXPECT_NO_THROW(machine.run());
  EXPECT_EQ(machine.result(), kExpectedResult);
  EXPECT_EQ(machine.hierarchy.counters().coherence_violations, 0u);
}

TEST(DsrRuntime, SkippingInvalidationIsDetected) {
  RuntimeOptions options;
  options.run_invalidation_routine = false; // failure injection
  DsrMachine machine(workload_program(), 31, {}, options);
  machine.hierarchy.set_strict_coherence(true);
  machine.run(); // first run: caches were empty, loads cached the tables
  machine.runtime.rerandomise();
  // The stale metadata/table or code lines must now be caught.
  EXPECT_THROW(machine.run(), proxima::mem::CoherenceError);
}

TEST(DsrRuntime, StatsAccountForWork) {
  DsrMachine machine(workload_program(), 37);
  const DsrRuntime::Stats& stats = machine.runtime.stats();
  EXPECT_EQ(stats.relocations, 3u);
  std::uint64_t code_bytes = 0;
  for (const FunctionRecord& record : machine.image.functions()) {
    code_bytes += record.size_bytes;
  }
  EXPECT_EQ(stats.bytes_copied, code_bytes);
}

// A code pool over the image would let the first reseed copy code over
// the measured program or its DSR tables.
TEST(DsrRuntime, CodePoolOverTheImageRejected) {
  const LinkedImage image = DsrMachine::make_image(workload_program(), {});
  ASSERT_LT(image.code_end(), image.data_begin());
  constexpr std::uint32_t kMiB = 1024 * 1024;
  const auto expect_rejected = [](alloc::Region pool, const char* section) {
    RuntimeOptions options;
    options.code_pool = pool;
    try {
      DsrMachine machine(workload_program(), 1, {}, options);
      ADD_FAILURE() << "pool over the " << section << " accepted";
    } catch (const proxima::dsr::DsrError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("code pool"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string(section) + " section"),
                std::string::npos)
          << what;
    }
  };
  // Starts inside the code.
  expect_rejected({image.code_begin(), kMiB}, "code");
  // Ends inside the data's page, below it all clear of the code.
  expect_rejected({image.data_begin() - kMiB / 2, kMiB / 2 + 4096}, "data");
  // Ends exactly where the code begins: abutting is fine.
  RuntimeOptions abutting;
  abutting.code_pool = {image.code_begin() - kMiB, kMiB};
  DsrMachine machine(workload_program(), 1, {}, abutting);
  machine.run();
  EXPECT_EQ(machine.result(), kExpectedResult);
  for (const FunctionRecord& record : machine.image.functions()) {
    const std::uint32_t addr = machine.runtime.function_address(record.id);
    EXPECT_GE(addr, abutting.code_pool.base) << record.name;
    EXPECT_LT(addr, image.code_begin()) << record.name;
  }
}

TEST(DsrRuntime, MissingMetadataRejected) {
  Program program = workload_program(); // NOT passed through apply_pass
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  rng::Mwc random(1);
  const LinkedImage image = link(program);
  EXPECT_THROW(
      DsrRuntime(memory, hierarchy, image, random, RuntimeOptions{}),
      proxima::dsr::DsrError);
}

} // namespace
