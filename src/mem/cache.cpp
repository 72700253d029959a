#include "cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace proxima::mem {

namespace {
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
} // namespace

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  if (config_.line_bytes == 0 || !std::has_single_bit(config_.line_bytes)) {
    throw std::invalid_argument(config_.name + ": line size must be a power of two");
  }
  if (config_.ways == 0) {
    throw std::invalid_argument(config_.name + ": ways must be >= 1");
  }
  if (config_.size_bytes % (config_.line_bytes * config_.ways) != 0) {
    throw std::invalid_argument(config_.name +
                                ": size must be a multiple of line*ways");
  }
  if (!std::has_single_bit(config_.sets())) {
    throw std::invalid_argument(config_.name + ": set count must be a power of two");
  }
  lines_.resize(static_cast<std::size_t>(config_.sets()) * config_.ways);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_mask_ = config_.sets() - 1;
}

std::uint32_t Cache::set_index(std::uint32_t addr) const {
  const std::uint32_t line = tag_of(addr);
  switch (config_.placement) {
  case Placement::kModulo:
    return line & set_mask_;
  case Placement::kRandomHash:
    // Seeded hash placement: the per-run seed re-randomises the mapping the
    // way a hardware time-randomised cache does.
    return static_cast<std::uint32_t>(mix64(line ^ hash_seed_)) & set_mask_;
  }
  return 0;
}

std::uint32_t Cache::next_random() {
  // xorshift32; private stream so random replacement is reproducible per
  // cache instance and per reseed.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 17;
  rng_state_ ^= rng_state_ << 5;
  return rng_state_;
}

Cache::Line& Cache::choose_victim(std::uint32_t set) {
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  // Prefer an invalid way.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      return base[w];
    }
  }
  switch (config_.replacement) {
  case Replacement::kLru: {
    Line* victim = &base[0];
    for (std::uint32_t w = 1; w < config_.ways; ++w) {
      if (base[w].last_use < victim->last_use) {
        victim = &base[w];
      }
    }
    return *victim;
  }
  case Replacement::kRandom:
    return base[next_random() % config_.ways];
  }
  return base[0];
}

AccessResult Cache::read(std::uint32_t addr) {
  AccessResult result;
  if (Line* line = find_line(addr)) {
    line->last_use = ++use_clock_;
    result.hit = true;
    result.stale_hit = line->stale;
    return result;
  }
  fill(addr, /*dirty=*/false, result);
  return result;
}

AccessResult Cache::write(std::uint32_t addr) {
  AccessResult result;
  if (Line* line = find_line(addr)) {
    line->last_use = ++use_clock_;
    line->stale = false; // the line now matches what goes to memory
    if (config_.write_policy == WritePolicy::kWriteBackAllocate) {
      line->dirty = true;
    }
    result.hit = true;
  } else if (config_.write_policy == WritePolicy::kWriteBackAllocate) {
    fill(addr, /*dirty=*/true, result);
  }
  return result;
}

void Cache::fill(std::uint32_t addr, bool dirty, AccessResult& result) {
  Line& victim = choose_victim(set_index(addr));
  result.writeback = victim.valid && victim.dirty;
  victim.valid = true;
  victim.dirty = dirty;
  victim.stale = false;
  victim.tag = tag_of(addr);
  victim.last_use = ++use_clock_;
}

bool Cache::contains(std::uint32_t addr) const {
  return find_line(addr) != nullptr;
}

bool Cache::line_dirty(std::uint32_t addr) const {
  const Line* line = find_line(addr);
  return line != nullptr && line->dirty;
}

Invalidated Cache::drop(Line& line) {
  const Invalidated dropped{1, line.dirty ? 1U : 0U};
  line.valid = false;
  line.dirty = false;
  return dropped;
}

Invalidated Cache::invalidate_range(std::uint32_t addr,
                                    std::uint32_t length) {
  Invalidated dropped;
  if (length == 0) {
    return dropped;
  }
  const std::uint32_t first = line_base(addr);
  const std::uint32_t last = line_base(addr + length - 1);
  for (std::uint32_t line_addr = first;; line_addr += config_.line_bytes) {
    if (Line* line = find_line(line_addr)) {
      dropped += drop(*line);
    }
    if (line_addr == last) {
      break;
    }
  }
  return dropped;
}

Invalidated Cache::invalidate_ranges(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  Invalidated dropped;
  std::uint64_t span_lines = 0;
  for (const auto& [addr, length] : ranges) {
    if (length != 0) {
      span_lines +=
          ((line_base(addr + length - 1) - line_base(addr)) >> line_shift_) +
          1;
    }
  }
  if (span_lines < lines_.size()) {
    // Small batch: the per-address probes visit fewer lines than a full
    // tag walk would.
    for (const auto& [addr, length] : ranges) {
      dropped += invalidate_range(addr, length);
    }
    return dropped;
  }
  // Tag walk: visit each line once and test membership against the sorted
  // disjoint ranges.  Only the closest range starting at or below the
  // line's last byte can cover it (every earlier range ends below that
  // range's start, hence below the line).
  for (Line& line : lines_) {
    if (!line.valid) {
      continue;
    }
    const std::uint32_t base = addr_of_tag(line.tag);
    const auto it = std::upper_bound(
        ranges.begin(), ranges.end(),
        std::make_pair(base + config_.line_bytes - 1,
                       ~std::uint32_t{0}));
    if (it == ranges.begin()) {
      continue;
    }
    const auto& [addr, length] = *std::prev(it);
    if (addr + length <= base) {
      continue;
    }
    dropped += drop(line);
  }
  return dropped;
}

Invalidated Cache::invalidate_all() {
  Invalidated dropped;
  for (Line& line : lines_) {
    if (line.valid) {
      dropped += drop(line);
    }
    line.stale = false;
  }
  return dropped;
}

void Cache::mark_stale(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first = line_base(addr);
  const std::uint32_t last = line_base(addr + length - 1);
  for (std::uint32_t line_addr = first;; line_addr += config_.line_bytes) {
    if (Line* line = find_line(line_addr)) {
      line->stale = true;
    }
    if (line_addr == last) {
      break;
    }
  }
}

void Cache::reseed(std::uint64_t seed) {
  hash_seed_ = mix64(seed ^ 0xabcdef1234567890ULL);
  rng_state_ = static_cast<std::uint32_t>(mix64(seed) | 1U);
}

} // namespace proxima::mem
