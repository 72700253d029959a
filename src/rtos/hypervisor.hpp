// PikeOS-Native-style partitioned hypervisor model (Section IV).
//
// The case study runs two self-contained applications in separate
// partitions "to ensure spatial and temporal isolation": a high-criticality
// control task invoked every 1 s and a low-criticality image-processing
// task every 100 ms.  The paper relies on exactly four hypervisor
// behaviours, all modelled here:
//   * a static cyclic schedule of partition activations,
//   * automatic instruction/data cache flushing at partition start ("to
//     ensure that in each period the partition executions start with the
//     same initial hardware state"),
//   * no preemption during a partition's execution (activations run to
//     completion within a budget, enforced by a cycle fence),
//   * software partition reboot between measurement runs ("to guarantee
//     that each execution starts with a different memory layout").
#pragma once

#include "mem/hierarchy.hpp"
#include "vm/vm.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace proxima::rtos {

enum class Criticality : std::uint8_t { kHigh, kLow };

/// A partitioned application, as the hypervisor sees it.
class PartitionApp {
public:
  virtual ~PartitionApp() = default;

  /// Entry point for the next activation.  With DSR this changes at every
  /// reboot (the entry function moves).
  virtual std::uint32_t entry_address() = 0;
  virtual std::uint32_t stack_top() = 0;

  /// Called before each activation (e.g. to stage fresh input vectors).
  virtual void before_activation(std::uint64_t activation_index) {
    (void)activation_index;
  }

  /// Software partition reboot: reload state / re-randomise the layout.
  virtual void reboot() {}
};

/// What the partition-start cache flush covers.  PikeOS flushes the
/// instruction and data (L1) caches; the write-back L2 keeps its contents.
/// kAll is available for experiments needing a fully cold platform.
enum class FlushScope : std::uint8_t { kNone, kL1sAndTlbs, kAll };

struct PartitionConfig {
  std::string name;
  std::uint32_t period_ms = 100; // activation period (multiple of the frame)
  /// Phase of the first activation within the period (multiple of the
  /// minor frame, < period).  Hypervisor campaigns place the measured
  /// partition at the *end* of its period so the guests' interference
  /// precedes the measured activation.
  std::uint32_t offset_ms = 0;
  std::uint32_t budget_ms = 0; // 0: the whole minor frame
  Criticality criticality = Criticality::kLow;
  FlushScope flush_on_start = FlushScope::kL1sAndTlbs;
  /// Measurement protocol: reboot the partition after every activation so
  /// each run starts with a fresh random layout (Section IV).
  bool reboot_after_each_activation = false;
};

struct ActivationRecord {
  std::string partition;
  std::uint64_t frame_index = 0;
  std::uint64_t activation_index = 0; // per-partition counter
  std::uint64_t start_cycle = 0;      // global timeline
  /// Cycles the schedule actually granted: clamped to the budget fence, so
  /// per-partition MOET/pWCET never credits time the schedule denied.
  std::uint64_t cycles_used = 0;
  /// Hit the budget fence (temporal violation).  A slot whose frame was
  /// already fully consumed by earlier partitions is recorded as an
  /// overrun with cycles_used == 0 — the activation never started.
  bool overran = false;
  bool halted = true;
};

struct HypervisorConfig {
  std::uint32_t minor_frame_ms = 100;
  /// LEON3-class clock: cycles per millisecond (50 MHz -> 50000).
  std::uint64_t cycles_per_ms = 50000;
};

/// Single-core time-partitioned executive.
class Hypervisor {
public:
  Hypervisor(vm::Vm& cpu, mem::MemoryHierarchy& hierarchy,
             HypervisorConfig config = {});

  /// Register a partition.  Periods must be non-zero multiples of the
  /// minor frame, offsets multiples of the frame below the period.
  /// High-criticality partitions are activated first within a frame.
  /// Throws std::invalid_argument when the explicit budgets of partitions
  /// that share any minor frame of the hyperperiod exceed the frame — an
  /// overcommitted schedule would silently eat the next partition's time.
  void add_partition(const PartitionConfig& config, PartitionApp& app);

  /// Run `frames` minor frames of the cyclic schedule and return every
  /// activation record in execution order.
  std::vector<ActivationRecord> run_frames(std::uint64_t frames);

  /// Rewind the cyclic schedule to frame 0 / cycle 0 and zero the
  /// per-partition activation counters and the violation count.  A
  /// measurement campaign replays the same schedule from a fresh timeline
  /// for every measured run.
  void reset_schedule() noexcept;

  /// Temporal-isolation violations observed so far (budget overruns).
  std::uint64_t violations() const noexcept { return violations_; }

  /// Registered partition names, in registration order (the stable order
  /// per-partition reports are rendered in; activation order within a
  /// frame is by criticality instead).
  std::vector<std::string> partition_names() const;

  /// Hook fired once per *granted* activation, before the partition-start
  /// flush and `before_activation` — i.e. at every partition switch the
  /// schedule actually performs (denied zero-budget activations do not
  /// fire it).  The kDsrOnDemand arm reseeds the measured layout here; the
  /// hook's own work is host-side and charged to no partition budget.
  void set_activation_hook(std::function<void()> hook) {
    activation_hook_ = std::move(hook);
  }

  const HypervisorConfig& config() const noexcept { return config_; }

private:
  struct Slot {
    PartitionConfig config;
    PartitionApp* app = nullptr;
    std::size_t registered = 0; // registration position
    std::uint64_t activations = 0;
  };

  vm::Vm& cpu_;
  mem::MemoryHierarchy& hierarchy_;
  HypervisorConfig config_;
  std::vector<Slot> slots_;
  std::uint64_t frame_counter_ = 0;
  std::uint64_t timeline_cycles_ = 0;
  std::uint64_t violations_ = 0;
  std::function<void()> activation_hook_;
};

} // namespace proxima::rtos
