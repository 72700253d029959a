#include "hypervisor.hpp"

#include <algorithm>
#include <stdexcept>

namespace proxima::rtos {

Hypervisor::Hypervisor(vm::Vm& cpu, mem::MemoryHierarchy& hierarchy,
                       HypervisorConfig config)
    : cpu_(cpu), hierarchy_(hierarchy), config_(config) {
  if (config_.minor_frame_ms == 0 || config_.cycles_per_ms == 0) {
    throw std::invalid_argument("hypervisor: zero frame or clock");
  }
}

void Hypervisor::add_partition(const PartitionConfig& partition_config,
                               PartitionApp& app) {
  if (partition_config.period_ms == 0 ||
      partition_config.period_ms % config_.minor_frame_ms != 0) {
    throw std::invalid_argument(
        partition_config.name +
        ": period must be a non-zero multiple of the minor frame");
  }
  if (partition_config.offset_ms >= partition_config.period_ms ||
      partition_config.offset_ms % config_.minor_frame_ms != 0) {
    throw std::invalid_argument(
        partition_config.name +
        ": offset must be a multiple of the minor frame below the period");
  }

  slots_.push_back(Slot{partition_config, &app, slots_.size(), 0});
  // High criticality first within a frame (the control task must never
  // wait behind the image-processing task).
  std::stable_sort(slots_.begin(), slots_.end(),
                   [](const Slot& a, const Slot& b) {
                     return a.config.criticality < b.config.criticality;
                   });
}

std::vector<ActivationRecord> Hypervisor::run_frames(std::uint64_t frames) {
  std::vector<ActivationRecord> records;
  for (std::uint64_t f = 0; f < frames; ++f, ++frame_counter_) {
    const std::uint64_t frame_start = timeline_cycles_;
    const std::uint64_t frame_cycles =
        static_cast<std::uint64_t>(config_.minor_frame_ms) *
        config_.cycles_per_ms;
    std::uint64_t used_in_frame = 0;

    for (Slot& slot : slots_) {
      const std::uint64_t period_frames =
          slot.config.period_ms / config_.minor_frame_ms;
      const std::uint64_t offset_frames =
          slot.config.offset_ms / config_.minor_frame_ms;
      if (frame_counter_ % period_frames != offset_frames) {
        continue;
      }

      if (used_in_frame > frame_cycles) {
        // Accounting slip: the fence clamp below makes this unreachable,
        // and an unsigned wrap here would hand the next partition ~2^64
        // cycles.  Fail loudly instead.
        throw std::logic_error("hypervisor: frame accounting underflow");
      }
      // The fence: the activation may use what its frame has left.
      const std::uint64_t remaining = frame_cycles - used_in_frame;
      if (remaining == 0) {
        // The frame is already fully consumed.  cpu_.run(0) would mean
        // "no fence" to the core; record a temporal violation for the
        // denied activation instead — the activation never starts (no
        // flush, no before_activation, no reboot).
        ActivationRecord denied;
        denied.partition = slot.config.name;
        denied.frame_index = frame_counter_;
        denied.activation_index = slot.activations;
        denied.start_cycle = frame_start + used_in_frame;
        denied.cycles_used = 0;
        denied.overran = true;
        denied.halted = false;
        ++violations_;
        records.push_back(std::move(denied));
        ++slot.activations;
        continue;
      }

      if (activation_hook_) {
        activation_hook_(); // granted activations only; host-side cost
      }

      hierarchy_.flush_l1s(); // PikeOS: L1s and TLBs; the L2 stays warm
      slot.app->before_activation(slot.activations);

      cpu_.reset(slot.app->entry_address(), slot.app->stack_top());
      const vm::RunResult result = cpu_.run(remaining);

      ActivationRecord record;
      record.partition = slot.config.name;
      record.frame_index = frame_counter_;
      record.activation_index = slot.activations;
      record.start_cycle = frame_start + used_in_frame;
      // The fence cuts the activation off at the frame's end: never credit
      // the partition with cycles the schedule didn't grant (the core may
      // finish the in-flight instruction past the fence).
      record.cycles_used = std::min(result.cycles, remaining);
      record.halted = result.stop == vm::RunResult::Stop::kHalt;
      record.overran = result.stop == vm::RunResult::Stop::kCycleBudget;
      if (record.overran) {
        ++violations_; // health monitor: temporal isolation enforced
      }
      records.push_back(record);

      used_in_frame += record.cycles_used;
      ++slot.activations;

      if (slot.config.reboot_after_each_activation) {
        slot.app->reboot();
      }
    }
    timeline_cycles_ = frame_start + frame_cycles;
  }
  return records;
}

void Hypervisor::reset_schedule() noexcept {
  frame_counter_ = 0;
  timeline_cycles_ = 0;
  violations_ = 0;
  for (Slot& slot : slots_) {
    slot.activations = 0;
  }
}

std::vector<std::string> Hypervisor::partition_names() const {
  std::vector<std::string> names(slots_.size());
  for (const Slot& slot : slots_) {
    names[slot.registered] = slot.config.name;
  }
  return names;
}

} // namespace proxima::rtos
