// Tests for the PikeOS-style partitioned hypervisor (Section IV): cyclic
// scheduling, flush-on-start, temporal isolation, and reboot semantics.
#include "rtos/hypervisor.hpp"
#include "vm_harness.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima;
using namespace proxima::isa;
using rtos::ActivationRecord;
using rtos::Criticality;
using rtos::Hypervisor;
using rtos::HypervisorConfig;
using rtos::PartitionApp;
using rtos::PartitionConfig;

/// A minimal partition: runs a fixed program image; counts callbacks.
class CountingApp : public rtos::PartitionApp {
public:
  CountingApp(test::TestMachine& machine, std::uint32_t entry)
      : machine_(machine), entry_(entry) {}

  std::uint32_t entry_address() override { return entry_; }
  std::uint32_t stack_top() override { return test::kStackTop; }
  void before_activation(std::uint64_t index) override {
    last_index = index;
    ++activations;
  }
  void reboot() override { ++reboots; }

  std::uint64_t activations = 0;
  std::uint64_t reboots = 0;
  std::uint64_t last_index = 0;

private:
  test::TestMachine& machine_;
  std::uint32_t entry_;
};

Program trivial_program(int work_iterations) {
  Program program;
  FunctionBuilder fb("main");
  fb.li(kO0, work_iterations);
  fb.label("spin");
  fb.subcci(kO0, 1);
  fb.subi(kO0, kO0, 1);
  fb.bg("spin");
  fb.halt();
  program.functions.push_back(fb.build());
  program.entry = "main";
  return program;
}

Program runaway_program() {
  Program program;
  FunctionBuilder fb("main");
  fb.label("forever");
  fb.ba("forever"); // a malfunctioning low-criticality task
  program.functions.push_back(fb.build());
  program.entry = "main";
  return program;
}

TEST(Hypervisor, PeriodsFollowTheCyclicSchedule) {
  // Control @ 1000 ms, processing @ 100 ms, 100 ms frames (the paper's
  // configuration): over 20 frames the control task runs twice, the
  // processing task twenty times.
  test::TestMachine machine(trivial_program(10));
  CountingApp control(machine, machine.image.entry_addr());
  CountingApp processing(machine, machine.image.entry_addr());

  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "control",
                                   .period_ms = 1000,
                                   .criticality = Criticality::kHigh},
                   control);
  hv.add_partition(PartitionConfig{.name = "processing",
                                   .period_ms = 100,
                                   .criticality = Criticality::kLow},
                   processing);

  const std::vector<ActivationRecord> records = hv.run_frames(20);
  EXPECT_EQ(control.activations, 2u);
  EXPECT_EQ(processing.activations, 20u);
  EXPECT_EQ(records.size(), 22u);
  // In frames where both run, the high-criticality partition goes first.
  EXPECT_EQ(records[0].partition, "control");
  EXPECT_EQ(records[1].partition, "processing");
}

TEST(Hypervisor, FullFlushGivesIdenticalActivations) {
  test::TestMachine machine(trivial_program(100));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p",
                                   .period_ms = 100,
                                   .flush_on_start = rtos::FlushScope::kAll},
                   app);

  const auto first = hv.run_frames(1);
  const std::uint64_t first_misses = machine.hierarchy.counters().icache_miss;
  const auto second = hv.run_frames(1);
  const std::uint64_t second_misses =
      machine.hierarchy.counters().icache_miss - first_misses;
  // Identical cold-start state => identical activation cost and identical
  // miss counts: "each period the partition executions start with the same
  // initial hardware state".
  EXPECT_EQ(first[0].cycles_used, second[0].cycles_used);
  EXPECT_EQ(first_misses, second_misses);
}

TEST(Hypervisor, L1FlushKeepsL2Warm) {
  // The PikeOS default: IL1/DL1/TLBs flushed, L2 retained.  The second
  // activation pays the same IL1 cold misses but its refills hit the warm
  // L2, so it is strictly faster.
  test::TestMachine machine(trivial_program(100));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p", .period_ms = 100}, app);

  const auto first = hv.run_frames(1);
  const std::uint64_t il1_first = machine.hierarchy.counters().icache_miss;
  const std::uint64_t l2_first = machine.hierarchy.counters().l2_miss;
  const auto second = hv.run_frames(1);
  const std::uint64_t il1_second =
      machine.hierarchy.counters().icache_miss - il1_first;
  const std::uint64_t l2_second =
      machine.hierarchy.counters().l2_miss - l2_first;
  EXPECT_EQ(il1_first, il1_second);               // IL1 cold both times
  EXPECT_LT(l2_second, l2_first);                 // L2 warm second time
  EXPECT_LT(second[0].cycles_used, first[0].cycles_used);
}

TEST(Hypervisor, WithoutFlushWarmCachesChangeTiming) {
  test::TestMachine machine(trivial_program(100));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p",
                                   .period_ms = 100,
                                   .flush_on_start = rtos::FlushScope::kNone},
                   app);
  const auto records = hv.run_frames(2);
  ASSERT_EQ(records.size(), 2u);
  // Second activation benefits from a warm IL1: strictly faster.
  EXPECT_LT(records[1].cycles_used, records[0].cycles_used);
}

TEST(Hypervisor, BudgetFenceStopsRunawayPartition) {
  test::TestMachine machine(runaway_program());
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "runaway",
                                   .period_ms = 100,
                                   .budget_ms = 10},
                   app);
  const auto records = hv.run_frames(1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].overran);
  EXPECT_FALSE(records[0].halted);
  EXPECT_EQ(hv.violations(), 1u);
  // The fence bound the damage to the configured budget.
  const std::uint64_t budget_cycles = 10ull * hv.config().cycles_per_ms;
  EXPECT_LE(records[0].cycles_used, budget_cycles + 200);
}

TEST(Hypervisor, MalfunctioningLowCritDoesNotStarveControl) {
  // The paper's mixed-criticality concern: "temporal interferences caused
  // by a malfunction in the image processing task could affect the timing
  // of the high criticality control task" — the budget fence prevents it.
  test::TestMachine machine(trivial_program(50));
  test::TestMachine runaway_machine(runaway_program());
  CountingApp control(machine, machine.image.entry_addr());

  // Load the runaway image into the same memory at a different base.
  Program bad = runaway_program();
  const LinkedImage bad_image =
      link(bad, LinkOptions{.code_base = 0x4200'0000});
  bad_image.load_into(machine.memory);
  CountingApp processing(machine, bad_image.entry_addr());

  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "control",
                                   .period_ms = 100,
                                   .budget_ms = 20,
                                   .criticality = Criticality::kHigh},
                   control);
  hv.add_partition(PartitionConfig{.name = "processing",
                                   .period_ms = 100,
                                   .budget_ms = 50,
                                   .criticality = Criticality::kLow},
                   processing);

  const auto records = hv.run_frames(5);
  ASSERT_EQ(records.size(), 10u);
  std::uint64_t control_runs = 0;
  for (const ActivationRecord& record : records) {
    if (record.partition == "control") {
      ++control_runs;
      EXPECT_TRUE(record.halted); // control always completes
    } else {
      EXPECT_TRUE(record.overran); // the malfunction is contained
    }
  }
  EXPECT_EQ(control_runs, 5u);
  EXPECT_EQ(hv.violations(), 5u);
}

TEST(Hypervisor, RebootAfterEachActivation) {
  test::TestMachine machine(trivial_program(10));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p",
                                   .period_ms = 100,
                                   .reboot_after_each_activation = true},
                   app);
  hv.run_frames(7);
  EXPECT_EQ(app.reboots, 7u); // the paper's measurement protocol
}

TEST(Hypervisor, ActivationRecordsCarryTimeline) {
  test::TestMachine machine(trivial_program(10));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p", .period_ms = 100}, app);
  const auto records = hv.run_frames(3);
  ASSERT_EQ(records.size(), 3u);
  const std::uint64_t frame_cycles = 100ull * hv.config().cycles_per_ms;
  EXPECT_EQ(records[0].start_cycle, 0u);
  EXPECT_EQ(records[1].start_cycle, frame_cycles);
  EXPECT_EQ(records[2].start_cycle, 2 * frame_cycles);
  EXPECT_EQ(records[2].activation_index, 2u);
}

TEST(Hypervisor, PartitionNamesKeepRegistrationOrder) {
  // Criticality reorders activations within a frame, not the names list
  // per-partition reports are rendered in.
  test::TestMachine machine(trivial_program(10));
  CountingApp processing(machine, machine.image.entry_addr());
  CountingApp control(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "processing", .period_ms = 100},
                   processing);
  hv.add_partition(PartitionConfig{.name = "control",
                                   .period_ms = 100,
                                   .criticality = Criticality::kHigh},
                   control);
  EXPECT_EQ(hv.partition_names(),
            (std::vector<std::string>{"processing", "control"}));
  const auto records = hv.run_frames(1);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].partition, "control") << "high criticality first";
}

TEST(Hypervisor, RejectsOvercommittedSchedule) {
  // Regression: budgets were only checked against the frame individually,
  // so two partitions whose budgets jointly exceed the frame were accepted
  // and the second silently ate the next frame's time.
  test::TestMachine machine(trivial_program(1));
  CountingApp a(machine, machine.image.entry_addr());
  CountingApp b(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "a",
                                   .period_ms = 200,
                                   .budget_ms = 60},
                   a);
  EXPECT_THROW(
      hv.add_partition(
          PartitionConfig{.name = "b", .period_ms = 100, .budget_ms = 60}, b),
      std::invalid_argument)
      << "co-occurs with 'a' in even frames: 120 ms in a 100 ms frame";
  // Same budgets in *disjoint* frames of the hyperperiod are fine: the
  // overcommit check is phase-aware, not a blanket sum.
  EXPECT_NO_THROW(hv.add_partition(PartitionConfig{.name = "c",
                                                   .period_ms = 200,
                                                   .offset_ms = 100,
                                                   .budget_ms = 60},
                                   b));
  // ...and a partition meeting 'c' in odd frames overcommits again.
  EXPECT_THROW(
      hv.add_partition(
          PartitionConfig{.name = "d", .period_ms = 100, .budget_ms = 50}, b),
      std::invalid_argument);
}

TEST(Hypervisor, ConsumedFrameZeroBudgetIsARecordedViolation) {
  // Regression: a budget_ms == 0 slot received frame_cycles -
  // used_in_frame, which is 0 once the frame is consumed — and
  // cpu_.run(0) means "no fence" to the core, an unbounded activation.
  // The denied slot must instead be recorded as a temporal violation
  // without ever starting.
  test::TestMachine machine(runaway_program());
  CountingApp hog(machine, machine.image.entry_addr());
  CountingApp starved(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "hog",
                                   .period_ms = 100,
                                   .budget_ms = 100, // the whole frame
                                   .criticality = Criticality::kHigh},
                   hog);
  hv.add_partition(PartitionConfig{.name = "starved", .period_ms = 100},
                   starved);
  const auto records = hv.run_frames(1);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].overran) << "the hog hits its own fence";
  EXPECT_EQ(records[1].partition, "starved");
  EXPECT_EQ(records[1].cycles_used, 0u);
  EXPECT_TRUE(records[1].overran);
  EXPECT_FALSE(records[1].halted);
  EXPECT_EQ(hv.violations(), 2u);
  // The denied activation never started: no before_activation callback.
  EXPECT_EQ(starved.activations, 0u);
  // The denial is still counted in the schedule's activation index.
  EXPECT_EQ(records[1].activation_index, 0u);
}

TEST(Hypervisor, OverrunClampsCyclesUsedToTheBudget) {
  // Regression: an overrunning activation stored raw result.cycles, which
  // can exceed the fence — per-partition MOET/pWCET then credits time the
  // schedule never granted.
  test::TestMachine machine(runaway_program());
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(
      PartitionConfig{.name = "runaway", .period_ms = 100, .budget_ms = 10},
      app);
  const auto records = hv.run_frames(1);
  ASSERT_EQ(records.size(), 1u);
  const std::uint64_t budget_cycles = 10ull * hv.config().cycles_per_ms;
  EXPECT_TRUE(records[0].overran);
  EXPECT_LE(records[0].cycles_used, budget_cycles)
      << "the fence must bound the recorded cycles, not just the damage";
  EXPECT_GT(records[0].cycles_used, budget_cycles - 200)
      << "the runaway consumed essentially the whole budget";
}

TEST(Hypervisor, OffsetsPhaseActivationsWithinThePeriod) {
  test::TestMachine machine(trivial_program(10));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  hv.add_partition(
      PartitionConfig{.name = "late", .period_ms = 200, .offset_ms = 100},
      app);
  const auto records = hv.run_frames(4);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].frame_index, 1u);
  EXPECT_EQ(records[1].frame_index, 3u);

  CountingApp bad(machine, machine.image.entry_addr());
  EXPECT_THROW(hv.add_partition(PartitionConfig{.name = "x",
                                                .period_ms = 200,
                                                .offset_ms = 200},
                                bad),
               std::invalid_argument)
      << "offset must lie below the period";
  EXPECT_THROW(hv.add_partition(PartitionConfig{.name = "y",
                                                .period_ms = 200,
                                                .offset_ms = 150},
                                bad),
               std::invalid_argument)
      << "offset must be a multiple of the minor frame";
}

TEST(Hypervisor, ResetScheduleReplaysTheTimeline) {
  test::TestMachine machine(trivial_program(10));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy,
                HypervisorConfig{});
  hv.add_partition(PartitionConfig{.name = "p",
                                   .period_ms = 100,
                                   .flush_on_start = rtos::FlushScope::kAll},
                   app);
  const auto first = hv.run_frames(3);
  hv.reset_schedule();
  EXPECT_EQ(hv.violations(), 0u);
  const auto second = hv.run_frames(3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].frame_index, second[i].frame_index);
    EXPECT_EQ(first[i].start_cycle, second[i].start_cycle);
    EXPECT_EQ(first[i].activation_index, second[i].activation_index);
    EXPECT_EQ(first[i].cycles_used, second[i].cycles_used)
        << "full flush + fresh timeline must replay identically";
  }
}

TEST(Hypervisor, RejectsBadConfigs) {
  test::TestMachine machine(trivial_program(1));
  CountingApp app(machine, machine.image.entry_addr());
  Hypervisor hv(machine.cpu, machine.hierarchy, HypervisorConfig{});
  EXPECT_THROW(
      hv.add_partition(PartitionConfig{.name = "x", .period_ms = 0}, app),
      std::invalid_argument);
  EXPECT_THROW(
      hv.add_partition(PartitionConfig{.name = "y", .period_ms = 150}, app),
      std::invalid_argument);
  EXPECT_THROW(hv.add_partition(
                   PartitionConfig{.name = "z", .period_ms = 100,
                                   .budget_ms = 200},
                   app),
               std::invalid_argument);
}

} // namespace
