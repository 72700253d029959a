// Differential testing of the predecoded fast-dispatch core against the
// reference switch interpreter — the behaviour-equivalence discipline the
// randomisation literature demands of any transformed/variant execution
// path, applied to our own VM rebuild.
//
// Every scenario-registry workload is executed once per core (reference,
// fast), at multiple seeds, and the results must be
// *bit-identical*: UoA cycle counts, per-run instruction counts, and the
// full mem::PerfCounters snapshot (cache/TLB misses, DRAM traffic, window
// traps, coherence violations).  This covers all four randomisation modes
// — COTS, DSR (eager and lazy first-call relocation, which rewrites code
// mid-run), static per-run re-link (image reload), and hardware
// time-randomised caches — plus the layout/PRNG/offset sweeps.
#include "casestudy/campaign.hpp"
#include "exec/registry.hpp"
#include "isa/builder.hpp"
#include "obs/metrics.hpp"
#include "vm/taint.hpp"
#include "vm_harness.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;
using casestudy::RunSample;

CampaignResult run_with_core(CampaignConfig config, vm::VmCore core) {
  config.vm_core = core;
  return casestudy::run_control_campaign(config);
}

void expect_bit_identical(const CampaignResult& fast,
                          const CampaignResult& reference,
                          const std::string& label) {
  ASSERT_EQ(fast.times.size(), reference.times.size()) << label;
  ASSERT_EQ(fast.samples.size(), reference.samples.size()) << label;
  for (std::size_t run = 0; run < fast.times.size(); ++run) {
    // Cycle counts are integers carried in doubles: exact equality.
    EXPECT_EQ(fast.times[run], reference.times[run])
        << label << " run " << run << ": UoA cycles diverge";
    const RunSample& f = fast.samples[run];
    const RunSample& r = reference.samples[run];
    EXPECT_EQ(f.counters.instructions, r.counters.instructions)
        << label << " run " << run;
    EXPECT_EQ(f.counters.icache_miss, r.counters.icache_miss)
        << label << " run " << run;
    EXPECT_EQ(f.counters.dcache_miss, r.counters.dcache_miss)
        << label << " run " << run;
    EXPECT_EQ(f.counters.l2_miss, r.counters.l2_miss) << label << " run " << run;
    // ... and everything else via the defaulted equality.
    EXPECT_TRUE(f == r) << label << " run " << run
                        << ": sample snapshot diverges";
  }
  EXPECT_EQ(fast.code_bytes, reference.code_bytes) << label;
  EXPECT_EQ(fast.verified_runs, reference.verified_runs) << label;
}

TEST(VmDifferential, EveryRegistryScenarioAtMultipleSeeds) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  constexpr std::uint32_t kRuns = 4;
  // (input_seed, layout_seed) pairs: the defaults plus a shifted pair, so
  // both the input stream and the layout stream are exercised twice.
  constexpr std::pair<std::uint64_t, std::uint64_t> kSeeds[] = {
      {2017, 611085},
      {0xdead'beef, 0x5eed'f00d},
  };
  for (const std::string& name : registry.names()) {
    for (const auto& [input_seed, layout_seed] : kSeeds) {
      CampaignConfig config = registry.at(name).make_config(kRuns);
      config.input_seed = input_seed;
      config.layout_seed = layout_seed;
      const std::string label =
          name + " @ seed " + std::to_string(input_seed);
      const CampaignResult fast = run_with_core(config, vm::VmCore::kFast);
      const CampaignResult reference =
          run_with_core(config, vm::VmCore::kReference);
      expect_bit_identical(fast, reference, label + " [fast]");
    }
  }
}

TEST(VmDifferential, LazyRelocationRewritesCodeMidRun) {
  // The lazy DSR scheme patches code and the function table from inside a
  // kTrapReloc handler — the hardest case for the fast core's decode-cache
  // coherence.  More runs here so several layouts (and trap orders) occur.
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  CampaignConfig config = registry.at("control/dsr-lazy").make_config(8);
  const CampaignResult fast = run_with_core(config, vm::VmCore::kFast);
  const CampaignResult reference =
      run_with_core(config, vm::VmCore::kReference);
  expect_bit_identical(fast, reference, "control/dsr-lazy x8 [fast]");
  // The scenario must really be running the lazy scheme for this test to
  // mean anything: the DSR pass emitted first-call stubs.
  EXPECT_GT(fast.pass_report.stubs_emitted, 0u)
      << "control/dsr-lazy no longer produces lazy-relocation stubs";
}

// The decode cache drops every page at DecodeCache::kMaxPages and recycles
// the pages through a free list, resetting only the slots each one
// decoded.  A stale DecodedOp left in a recycled page is live memory, not
// freed memory, so no sanitizer can see it: only a differential run that
// crosses the cap can.  leak/beacon-ondemand moves its code onto fresh
// pool pages three times a run, about 3.6 new decode pages per run, so
// kMaxPages runs on one runner cross the cap three times or more; the test
// fails if they stop crossing it twice.
TEST(VmDifferential, DecodePageRecyclingAcrossTheCap) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  CampaignConfig config = registry.at("leak/beacon-ondemand")
                              .make_config(vm::DecodeCache::kMaxPages);
  config.collect_metrics = true;
  const CampaignResult fast = run_with_core(config, vm::VmCore::kFast);
  const CampaignResult reference =
      run_with_core(config, vm::VmCore::kReference);
  expect_bit_identical(fast, reference, "leak/beacon-ondemand [fast]");
  EXPECT_EQ(obs::metrics_digest_hex(fast.metrics),
            obs::metrics_digest_hex(reference.metrics));
  EXPECT_GE(fast.metrics.gauges.at("vm.decode.full_invalidations"), 2.0)
      << "the campaign no longer crosses the decode-page cap";
}

// The observability registry is part of the equivalence contract: both
// cores must publish bit-identical deterministic metrics — instruction mix,
// memory-hierarchy counters, DSR activity, UoA-cycle histograms — for the
// same campaign.  Gauges (decode-cache activity, wall clock) legitimately
// differ between cores (the reference core HAS no decode cache) and are
// excluded from the digest, so the digest comparison is exact.
TEST(VmDifferential, MetricRegistryAgreesAcrossCores) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  for (const char* name :
       {"control/operation-cots", "control/operation-dsr",
        "control/dsr-lazy", "image/operation-cots"}) {
    CampaignConfig config = registry.at(name).make_config(4);
    config.collect_metrics = true;
    const CampaignResult fast = run_with_core(config, vm::VmCore::kFast);
    const CampaignResult reference =
        run_with_core(config, vm::VmCore::kReference);
    EXPECT_EQ(fast.metrics.counters, reference.metrics.counters) << name;
    EXPECT_EQ(fast.metrics.histograms, reference.metrics.histograms) << name;
    EXPECT_EQ(fast.metrics.series, reference.metrics.series) << name;
    EXPECT_EQ(obs::metrics_digest_hex(fast.metrics),
              obs::metrics_digest_hex(reference.metrics))
        << name;
    EXPECT_GT(fast.metrics.counters.at("mem.instructions"), 0u) << name;
  }
}

// Locked totals for control/operation-cots x 4 runs at the paper seeds:
// any change to the instruction mix, the hierarchy model, or the metric
// capture shows up here as a diff against known-good constants (the
// telemetry analogue of seed_stability_test).  The digest locks the full
// registry; the spot-checked counters make a regression readable.
TEST(VmDifferential, LockedMetricTotalsControlOperationCots) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  CampaignConfig config =
      registry.at("control/operation-cots").make_config(4);
  config.collect_metrics = true;
  const CampaignResult result = run_with_core(config, vm::VmCore::kFast);
  const obs::MetricsSnapshot& metrics = result.metrics;

  EXPECT_EQ(obs::metrics_digest_hex(metrics), "0xcd1fd24de8ff047c");
  EXPECT_EQ(metrics.counters.at("runs"), 4u);
  EXPECT_EQ(metrics.counters.at("mem.instructions"), 613487u);
  EXPECT_EQ(metrics.counters.at("mem.icache_access"), 613487u);
  EXPECT_EQ(metrics.counters.at("mem.dcache_access"), 90528u);
  EXPECT_EQ(metrics.counters.at("mem.fpu_ops"), 13191u);
  EXPECT_EQ(metrics.counters.at("vm.mix.Addi"), 84500u);
  EXPECT_EQ(metrics.counters.at("vm.mix.Subcci"), 78640u);
  EXPECT_EQ(metrics.counters.at("vm.mix.Ld"), 45056u);
  EXPECT_EQ(metrics.counters.at("vm.mix.Halt"), 4u);

  // Mix and hierarchy counters describe the same window (the measured
  // activation; the warm-up is re-based away), so the mix must sum to the
  // retired instruction total: every instruction attributed to exactly
  // one opcode.
  std::uint64_t mix_total = 0;
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("vm.mix.", 0) == 0) {
      mix_total += value;
    }
  }
  EXPECT_EQ(mix_total, metrics.counters.at("mem.instructions"));

  const obs::Histogram& uoa = metrics.histograms.at("time.uoa_cycles");
  EXPECT_EQ(uoa.count, 4u);
  EXPECT_EQ(uoa.min, 224807u);
  EXPECT_EQ(uoa.max, 224808u);
  EXPECT_EQ(uoa.sum, 899229u);
}

// Direct machine-level differential on a handwritten program: both cores
// execute the same image and must agree on final architectural state, not
// just counters.
TEST(VmDifferential, ArchitecturalStateMatchesOnHandwrittenProgram) {
  isa::FunctionBuilder fb("main");
  fb.li(isa::kO0, 100).li(isa::kO1, 0);
  fb.label("loop");
  fb.add(isa::kO1, isa::kO1, isa::kO0);
  fb.opi(isa::Opcode::kSubcci, isa::kO0, isa::kO0, 1);
  fb.bne("loop");
  fb.halt();
  isa::Program program;
  program.functions.push_back(std::move(fb).build());

  test::TestMachine fast(program, {}, vm::VmConfig{.core = vm::VmCore::kFast});
  test::TestMachine reference(program, {},
                              vm::VmConfig{.core = vm::VmCore::kReference});
  const vm::RunResult fast_result = fast.run();
  const vm::RunResult reference_result = reference.run();

  EXPECT_EQ(fast_result.instructions, reference_result.instructions);
  EXPECT_EQ(fast_result.cycles, reference_result.cycles);
  EXPECT_EQ(fast.cpu.reg(isa::kO1), reference.cpu.reg(isa::kO1));
  EXPECT_EQ(fast.cpu.reg(isa::kO1), 5050u);
  EXPECT_EQ(fast.cpu.icc().z, reference.cpu.icc().z);
  EXPECT_EQ(fast.cpu.pc(), reference.cpu.pc());
}

// The fast core reaches every register through a window map built from
// nwindows; the reference core computes the same slot with its own modular
// formula.  A windowed recursion deep enough to spill and fill at every
// window count must leave both cores in the same state: cycles,
// counters, taint statistics and shadows, and all 32 visible registers
// read through reg() (the reference formula) at halt.
TEST(VmDifferential, RegisterWindowsAtEveryWindowCount) {
  constexpr int kDepth = 12;
  isa::Program program;
  {
    isa::FunctionBuilder fb("main");
    // Live locals and ins in main's window: spilled by the deep recursion
    // and filled back before halt.
    for (std::uint8_t k = 0; k < 8; ++k) {
      fb.li(static_cast<std::uint8_t>(isa::kL0 + k), 100 + k);
    }
    for (std::uint8_t k = 0; k < 6; ++k) {
      fb.li(static_cast<std::uint8_t>(isa::kI0 + k), 200 + k);
    }
    fb.li(isa::kO0, kDepth);
    fb.call("fact");
    fb.load_address(isa::kO1, "result");
    fb.st(isa::kO0, isa::kO1, 0);
    fb.load_address(isa::kO2, "leak");
    fb.st(isa::kO7, isa::kO2, 0); // the call's return address: a sink store
    fb.halt();
    program.functions.push_back(std::move(fb).build());
  }
  {
    isa::FunctionBuilder fb("fact");
    fb.prologue(96);                      // n visible as %i0
    fb.mov(isa::kL0, isa::kI0);           // a live local in every frame
    fb.add(isa::kL1, isa::kL0, isa::kI7); // layout-derived (taints %l1)
    fb.load_address(isa::kL2, "table");
    fb.ld(isa::kL3, isa::kL2, 0);         // a source load (taints %l3)
    fb.subcci(isa::kI0, 1);
    fb.ble("base");
    fb.subi(isa::kO0, isa::kI0, 1);
    fb.call("fact");
    fb.mul(isa::kI0, isa::kL0, isa::kO0); // n * fact(n-1), returned in %i0
    fb.ba("done");
    fb.label("base");
    fb.li(isa::kI0, 1);
    fb.label("done");
    fb.epilogue();
    program.functions.push_back(std::move(fb).build());
  }
  program.data.push_back(
      isa::DataObject{.name = "result", .size = 4, .init = {}});
  program.data.push_back(
      isa::DataObject{.name = "leak", .size = 4, .init = {}});
  program.data.push_back(
      isa::DataObject{.name = "table", .size = 4, .init = {}});
  program.entry = "main";

  for (const std::uint32_t nwindows : {3U, 5U, 8U}) {
    for (const bool taint : {false, true}) {
      const std::string label = "nwindows " + std::to_string(nwindows) +
                                (taint ? " taint on" : " taint off");
      std::vector<std::unique_ptr<test::TestMachine>> machines;
      std::vector<vm::RunResult> results;
      for (const vm::VmCore core :
           {vm::VmCore::kReference, vm::VmCore::kFast}) {
        // A bounded budget: a wrong window map derails the recursion.
        auto& machine = machines.emplace_back(
            std::make_unique<test::TestMachine>(
                program, isa::LinkOptions{},
                vm::VmConfig{.core = core,
                             .nwindows = nwindows,
                             .max_instructions = 100'000,
                             .taint = taint}));
        machine->cpu.taint_add_source_range(
            machine->image.symbol("table").addr, 4);
        machine->cpu.taint_add_sink_range(machine->image.symbol("leak").addr,
                                          4);
        results.push_back(machine->run());
        ASSERT_EQ(results.back().stop, vm::RunResult::Stop::kHalt)
            << label << " core " << machines.size() - 1;
      }
      const test::TestMachine& reference = *machines.front();
      EXPECT_EQ(reference.memory.read_u32(reference.image.symbol("result").addr),
                479001600u) // 12!
          << label;
      const mem::PerfCounters& counters = reference.hierarchy.counters();
      EXPECT_GT(counters.window_overflows, 0u) << label;
      EXPECT_EQ(counters.window_overflows, counters.window_underflows)
          << label;
      const vm::TaintStats stats = reference.cpu.taint_stats();
      if (taint) {
        EXPECT_EQ(stats.sink_stores, 1u) << label;
        EXPECT_EQ(stats.source_loads, static_cast<std::uint64_t>(kDepth))
            << label;
        EXPECT_GT(stats.pc_taints, 0u) << label;
      }
      for (std::size_t m = 1; m < machines.size(); ++m) {
        const test::TestMachine& other = *machines[m];
        const std::string core_label = label + " core " + std::to_string(m);
        EXPECT_EQ(results[m].cycles, results.front().cycles) << core_label;
        EXPECT_EQ(results[m].instructions, results.front().instructions)
            << core_label;
        EXPECT_TRUE(other.hierarchy.counters() == counters) << core_label;
        const vm::TaintStats other_stats = other.cpu.taint_stats();
        EXPECT_EQ(other_stats.pc_taints, stats.pc_taints) << core_label;
        EXPECT_EQ(other_stats.source_loads, stats.source_loads) << core_label;
        EXPECT_EQ(other_stats.tainted_stores, stats.tainted_stores)
            << core_label;
        EXPECT_EQ(other_stats.sink_stores, stats.sink_stores) << core_label;
        EXPECT_EQ(other.cpu.taint_sink_bits(), reference.cpu.taint_sink_bits())
            << core_label;
        EXPECT_EQ(other.cpu.pc(), reference.cpu.pc()) << core_label;
        EXPECT_EQ(other.cpu.resident_windows(),
                  reference.cpu.resident_windows())
            << core_label;
        for (std::uint8_t index = 0; index < isa::kRegisterCount; ++index) {
          EXPECT_EQ(other.cpu.reg(index), reference.cpu.reg(index))
              << core_label << " " << isa::register_name(index);
          if (taint) {
            EXPECT_EQ(other.cpu.taint_state()->reg(index),
                      reference.cpu.taint_state()->reg(index))
                << core_label << " shadow of " << isa::register_name(index);
          }
        }
      }
      // main's locals and ins survived the spill/fill round trip.
      for (std::uint8_t k = 0; k < 8; ++k) {
        EXPECT_EQ(reference.cpu.reg(static_cast<std::uint8_t>(isa::kL0 + k)),
                  100u + k)
            << label;
      }
    }
  }
}

// Dynamic taint tracking (vm/taint.hpp) is maintained by one shared
// transfer function called from both cores at the same point of the
// dispatch loop — the reference interpreter is the taint oracle.  Every
// leak.* counter and the sink-bits histogram must be bit-identical across
// cores, on leaky and clean targets, bare and hypervisor, eager and lazy
// DSR.
TEST(VmDifferential, TaintShadowAgreesAcrossCores) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  for (const char* name :
       {"leak/beacon-dsr", "leak/hardened-dsr", "leak/beacon-cots",
        "control/operation-dsr", "control/dsr-lazy", "leak/observer-hv"}) {
    CampaignConfig config = registry.at(name).make_config(4);
    config.taint = true;
    config.collect_metrics = true;
    const CampaignResult fast = run_with_core(config, vm::VmCore::kFast);
    const CampaignResult reference =
        run_with_core(config, vm::VmCore::kReference);
    expect_bit_identical(fast, reference, std::string(name) + " [fast]");
    EXPECT_EQ(fast.metrics.counters, reference.metrics.counters) << name;
    EXPECT_EQ(fast.metrics.histograms, reference.metrics.histograms) << name;
    EXPECT_EQ(obs::metrics_digest_hex(fast.metrics),
              obs::metrics_digest_hex(reference.metrics))
        << name;
  }
}

// The leak verdict itself: the leaky beacon's tainted %i7 store reaches
// the sink every run, the hardened variant never does — on both cores.
TEST(VmDifferential, TaintVerdictLeakyVsHardened) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  for (const vm::VmCore core : {vm::VmCore::kFast, vm::VmCore::kReference}) {
    CampaignConfig leaky = registry.at("leak/beacon-dsr").make_config(4);
    leaky.taint = true;
    leaky.collect_metrics = true;
    const CampaignResult flagged = run_with_core(leaky, core);
    EXPECT_EQ(flagged.metrics.counters.at("leak.sink_stores"), 4u);
    const obs::Histogram& bits =
        flagged.metrics.histograms.at("leak.sink_bits");
    EXPECT_EQ(bits.count, 4u);
    EXPECT_EQ(bits.max, 32u); // one leaked beacon word per run

    CampaignConfig hardened = registry.at("leak/hardened-dsr").make_config(4);
    hardened.taint = true;
    hardened.collect_metrics = true;
    const CampaignResult clean = run_with_core(hardened, core);
    EXPECT_EQ(clean.metrics.counters.at("leak.sink_stores"), 0u);
    EXPECT_EQ(clean.metrics.histograms.at("leak.sink_bits").max, 0u);
    // Both still exercised the taint machinery (calls taint %o7).
    EXPECT_GT(clean.metrics.counters.at("leak.pc_taints"), 0u);
  }
}

// Taint is purely observational: enabling it must not change times,
// samples, or any pre-existing metric — only add the leak.* family.
TEST(VmDifferential, TaintOffAndOnProduceIdenticalMeasurements) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  for (const char* name : {"leak/beacon-dsr", "control/operation-cots"}) {
    CampaignConfig config = registry.at(name).make_config(4);
    config.collect_metrics = true;
    const CampaignResult off = run_with_core(config, vm::VmCore::kFast);
    config.taint = true;
    const CampaignResult on = run_with_core(config, vm::VmCore::kFast);
    ASSERT_EQ(off.times, on.times) << name;
    ASSERT_EQ(off.samples.size(), on.samples.size()) << name;
    for (std::size_t run = 0; run < off.samples.size(); ++run) {
      EXPECT_TRUE(off.samples[run] == on.samples[run]) << name << " " << run;
    }
    for (const auto& [key, value] : on.metrics.counters) {
      if (key.rfind("leak.", 0) == 0) {
        EXPECT_FALSE(off.metrics.counters.contains(key)) << key;
      } else {
        ASSERT_TRUE(off.metrics.counters.contains(key)) << name << " " << key;
        EXPECT_EQ(off.metrics.counters.at(key), value) << name << " " << key;
      }
    }
  }
}

// Self-modifying code: a guest store overwrites an instruction that was
// predecoded by the warm pass.  The guest-memory write listener must
// invalidate the decoded slot so the next dispatch sees the new word,
// exactly as the reference core's fetch-decode loop does.
TEST(VmDifferential, SelfModifyingStoreInvalidatesPredecodedSlot) {
  const std::uint32_t patched_word = isa::encode(
      isa::make_r(isa::Opcode::kAdd, isa::kO1, isa::kO1, isa::kO1));

  isa::FunctionBuilder fb("main");
  fb.li(isa::kO1, 21);
  fb.li(isa::kO2, static_cast<std::int32_t>(patched_word));
  fb.load_address(isa::kO3, "patch_target");
  fb.stx(isa::kO2, isa::kO3, isa::kG0); // overwrite patch_target's first op
  fb.flush(isa::kO3, 0);                // SPARC-compliant invalidation
  fb.call("patch_target");              // never returns: target halts
  isa::FunctionBuilder target("patch_target");
  target.nop(); // becomes "add %o1, %o1, %o1" at run time
  target.halt();

  isa::Program program;
  program.functions.push_back(std::move(fb).build());
  program.functions.push_back(std::move(target).build());

  test::TestMachine fast(program, {}, vm::VmConfig{.core = vm::VmCore::kFast});
  test::TestMachine reference(program, {},
                              vm::VmConfig{.core = vm::VmCore::kReference});
  // Warm the decode cache over the whole image so the patch overwrites an
  // already-decoded slot (the hard case), not a cold one.
  fast.cpu.predecode(fast.image.code_begin(),
                     fast.image.code_end() - fast.image.code_begin());
  const vm::RunResult fast_result = fast.run();
  const vm::RunResult reference_result = reference.run();

  EXPECT_EQ(fast.cpu.reg(isa::kO1), 42u) << "patched add must execute";
  EXPECT_EQ(fast.cpu.reg(isa::kO1), reference.cpu.reg(isa::kO1));
  EXPECT_EQ(fast_result.cycles, reference_result.cycles);
  EXPECT_EQ(fast_result.instructions, reference_result.instructions);
}

// A guest store into the IL1 line it is executing from stales that line:
// on the reference core every later fetch from it is a coherence
// violation.  The fast core must count the same violations, not take the
// rest of the line as clean hits from its same-line fetch memo.
TEST(VmDifferential, StoreIntoTheExecutingLineStalesItsRemainingFetches) {
  isa::FunctionBuilder fb("main");
  fb.load_address(isa::kO3, "main");
  fb.st(isa::kG0, isa::kO3, 0); // overwrite main's first (executed) word
  for (int k = 0; k < 5; ++k) {
    fb.nop(); // same IL1 line as the store
  }
  fb.halt();
  isa::Program program;
  program.functions.push_back(std::move(fb).build());
  isa::LinkOptions options;
  options.function_align = 32; // main starts an IL1 line

  test::TestMachine fast(program, options,
                         vm::VmConfig{.core = vm::VmCore::kFast});
  test::TestMachine reference(program, options,
                              vm::VmConfig{.core = vm::VmCore::kReference});
  ASSERT_EQ(reference.image.entry_addr() % 32, 0u);
  const vm::RunResult fast_result = fast.run();
  const vm::RunResult reference_result = reference.run();

  EXPECT_GT(reference.hierarchy.counters().coherence_violations, 0u);
  EXPECT_TRUE(fast.hierarchy.counters() == reference.hierarchy.counters());
  EXPECT_EQ(fast.hierarchy.counters().coherence_violations,
            reference.hierarchy.counters().coherence_violations);
  EXPECT_EQ(fast_result.cycles, reference_result.cycles);
  EXPECT_EQ(fast_result.instructions, reference_result.instructions);
}

// The fast core keeps its cycle and instruction counts in registers and
// writes them back when it stops.  A run that stops by throwing must leave
// them exact too: a VM fault (misaligned load) and a strict-coherence error
// from the hierarchy (a fetch from a line the program just rewrote) leave
// the same cycles, instruction count and counters on both cores.
TEST(VmDifferential, FaultsLeaveTheCountsExact) {
  isa::FunctionBuilder fb("main");
  fb.li(isa::kO0, 20);
  fb.label("loop");
  fb.opi(isa::Opcode::kSubcci, isa::kO0, isa::kO0, 1);
  fb.bne("loop");
  fb.load_address(isa::kO3, "main");
  fb.ld(isa::kO1, isa::kO3, 2); // misaligned: a VM fault
  fb.halt();
  isa::Program misaligned;
  misaligned.functions.push_back(std::move(fb).build());

  isa::FunctionBuilder rewrite("main");
  rewrite.load_address(isa::kO3, "main");
  rewrite.st(isa::kG0, isa::kO3, 0);
  rewrite.nop(); // a stale fetch: CoherenceError under strict coherence
  rewrite.halt();
  isa::Program stale;
  stale.functions.push_back(std::move(rewrite).build());
  isa::LinkOptions options;
  options.function_align = 32;

  const auto stop = [&](const isa::Program& program, vm::VmCore core,
                        bool strict) {
    auto machine = std::make_unique<test::TestMachine>(
        program, options, vm::VmConfig{.core = core});
    machine->hierarchy.set_strict_coherence(strict);
    EXPECT_ANY_THROW(machine->run());
    return machine;
  };
  for (const bool strict : {false, true}) {
    const isa::Program& program = strict ? stale : misaligned;
    const auto fast = stop(program, vm::VmCore::kFast, strict);
    const auto reference = stop(program, vm::VmCore::kReference, strict);
    const std::string label = strict ? "coherence error" : "vm fault";
    EXPECT_GT(reference->cpu.instructions(), 0u) << label;
    EXPECT_EQ(fast->cpu.cycles(), reference->cpu.cycles()) << label;
    EXPECT_EQ(fast->cpu.instructions(), reference->cpu.instructions())
        << label;
    EXPECT_TRUE(fast->hierarchy.counters() == reference->hierarchy.counters())
        << label;
    EXPECT_EQ(fast->cpu.pc(), reference->cpu.pc()) << label;
  }
}

} // namespace
