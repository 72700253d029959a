#include "obs/metrics.hpp"

#include <bit>
#include <cstdio>
#include <iterator>

namespace proxima::obs {

void Histogram::merge_from(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  min = other.min < min ? other.min : min;
  max = other.max > max ? other.max : max;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, histogram] : other.histograms) {
    histograms[name].merge_from(histogram);
  }
  for (const auto& [name, values] : other.series) {
    auto& dest = series[name];
    dest.insert(dest.end(), values.begin(), values.end());
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
}

void MetricsShard::merge_from(const MetricsShard& other) {
  for (std::size_t i = 0; i < kValueSlots; ++i) {
    values[i] += other.values[i];
  }
  for (std::size_t i = 0; i < kHistogramSlots; ++i) {
    if (other.histograms[i].count != 0) {
      histograms[i].merge_from(other.histograms[i]);
    }
  }
}

namespace {

/// Which layout flag, if any, a slot's presence hangs on.
enum class Family : std::uint8_t { kDecode, kDsr, kLeak };

struct SlotSpec {
  const char* name;
  Family family;
  bool gauge;
};

/// The value slots after the mix, in slot order.
constexpr SlotSpec kValueSpecs[] = {
    {"dsr.reseeds", Family::kDsr, false},
    {"dsr.ondemand_reseeds", Family::kDsr, false},
    {"dsr.relocations", Family::kDsr, false},
    {"dsr.bytes_copied", Family::kDsr, false},
    {"dsr.lazy_traps", Family::kDsr, false},
    {"dsr.lazy_cycles", Family::kDsr, false},
    // Invalidated-line counts depend on what the previous run on the same
    // runner left behind, and decode-cache activity on which runs one
    // runner executed: both vary with the sharding, so gauge class.
    {"dsr.lines_invalidated", Family::kDsr, true},
    {"vm.decode.decodes", Family::kDecode, true},
    {"vm.decode.write_invalidation_events", Family::kDecode, true},
    {"vm.decode.invalidated_slots", Family::kDecode, true},
    {"vm.decode.full_invalidations", Family::kDecode, true},
    {"leak.pc_taints", Family::kLeak, false},
    {"leak.source_loads", Family::kLeak, false},
    {"leak.tainted_stores", Family::kLeak, false},
    {"leak.sink_stores", Family::kLeak, false},
};
static_assert(MetricsShard::kMixSlots + std::size(kValueSpecs) ==
              MetricsShard::kValueSlots);

constexpr SlotSpec kHistogramSpecs[] = {
    {"leak.sink_bits", Family::kLeak, false},
};
static_assert(std::size(kHistogramSpecs) == MetricsShard::kHistogramSlots);

/// X-macro token of an opcode with the "k" prefix stripped: kAddi ->
/// "Addi".  Display names (opcode_info) collide across R/I forms ("add"
/// twice), so metric names use the enum spelling.
constexpr const char* kOpcodeTokens[] = {
#define PROXIMA_OBS_OPCODE_TOKEN(op) (#op) + 1,
    PROXIMA_VM_FOREACH_OPCODE(PROXIMA_OBS_OPCODE_TOKEN)
#undef PROXIMA_OBS_OPCODE_TOKEN
};
static_assert(std::size(kOpcodeTokens) == MetricsShard::kMixSlots);

bool present(Family family, MetricsLayout layout) {
  switch (family) {
  case Family::kDsr:
    return layout.dsr;
  case Family::kLeak:
    return layout.taint;
  case Family::kDecode:
    break;
  }
  return true;
}

} // namespace

const std::vector<std::string>& slot_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    list.reserve(MetricsShard::kSlots);
    for (const char* token : kOpcodeTokens) {
      list.push_back(std::string("vm.mix.") + token);
    }
    for (const SlotSpec& spec : kValueSpecs) {
      list.emplace_back(spec.name);
    }
    for (const SlotSpec& spec : kHistogramSpecs) {
      list.emplace_back(spec.name);
    }
    return list;
  }();
  return names;
}

void name_slots(const MetricsShard& shard, MetricsLayout layout,
                MetricsSnapshot& snapshot) {
  const std::vector<std::string>& names = slot_names();
  for (std::size_t i = 0; i < MetricsShard::kMixSlots; ++i) {
    if (shard.values[i] != 0) {
      snapshot.add(names[i], shard.values[i]);
    }
  }
  for (std::size_t i = 0; i < std::size(kValueSpecs); ++i) {
    const SlotSpec& spec = kValueSpecs[i];
    const std::size_t slot = MetricsShard::kMixSlots + i;
    if (!present(spec.family, layout)) {
      continue;
    }
    if (spec.gauge) {
      snapshot.add_gauge(names[slot],
                         static_cast<double>(shard.values[slot]));
    } else {
      snapshot.add(names[slot], shard.values[slot]);
    }
  }
  for (std::size_t i = 0; i < std::size(kHistogramSpecs); ++i) {
    if (present(kHistogramSpecs[i].family, layout)) {
      snapshot.histograms[names[MetricsShard::kValueSlots + i]].merge_from(
          shard.histograms[i]);
    }
  }
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf2'9ce4'8422'2325ULL;
constexpr std::uint64_t kFnvPrime = 0x0000'0100'0000'01b3ULL;

void fold_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

void fold_name(std::uint64_t& hash, const std::string& name) {
  fold_bytes(hash, name.data(), name.size());
  const unsigned char zero = 0;
  fold_bytes(hash, &zero, 1); // terminator: "ab"+"c" != "a"+"bc"
}

void fold_u64(std::uint64_t& hash, std::uint64_t value) {
  fold_bytes(hash, &value, sizeof(value));
}

void fold_double(std::uint64_t& hash, double value) {
  fold_u64(hash, std::bit_cast<std::uint64_t>(value));
}

} // namespace

std::uint64_t metrics_digest(const MetricsSnapshot& snapshot) {
  // std::map iteration is name-ordered, so the fold order is a pure
  // function of the merged content — never of merge order.  Gauges are
  // wall-clock/platform-local and intentionally not folded.
  std::uint64_t hash = kFnvOffset;
  for (const auto& [name, value] : snapshot.counters) {
    fold_name(hash, name);
    fold_u64(hash, value);
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    fold_name(hash, name);
    for (std::uint64_t bucket : histogram.buckets) {
      fold_u64(hash, bucket);
    }
    fold_u64(hash, histogram.count);
    fold_u64(hash, histogram.sum);
    fold_u64(hash, histogram.min);
    fold_u64(hash, histogram.max);
  }
  for (const auto& [name, values] : snapshot.series) {
    fold_name(hash, name);
    fold_u64(hash, values.size());
    for (double value : values) {
      fold_double(hash, value);
    }
  }
  return hash;
}

std::string metrics_digest_hex(const MetricsSnapshot& snapshot) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(metrics_digest(snapshot)));
  return buffer;
}

} // namespace proxima::obs
