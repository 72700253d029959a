#include "tlb.hpp"

#include <bit>
#include <stdexcept>

namespace proxima::mem {

Tlb::Tlb(TlbConfig config) : config_(config) {
  if (config_.entries == 0) {
    throw std::invalid_argument("TLB: entries must be >= 1");
  }
  if (!std::has_single_bit(config_.page_bytes)) {
    throw std::invalid_argument("TLB: page size must be a power of two");
  }
  entries_.resize(config_.entries);
  page_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.page_bytes));
}

bool Tlb::access(std::uint32_t addr) {
  const std::uint32_t page = addr >> page_shift_;
  Entry* free_entry = nullptr;
  Entry* lru = &entries_[0];
  for (Entry& entry : entries_) {
    if (entry.valid && entry.page == page) {
      entry.last_use = ++use_clock_;
      mru_index_ = static_cast<std::uint32_t>(&entry - entries_.data());
      return true;
    }
    if (!entry.valid && free_entry == nullptr) {
      free_entry = &entry;
    }
    if (entry.last_use < lru->last_use) {
      lru = &entry;
    }
  }
  Entry& victim = free_entry != nullptr ? *free_entry : *lru;
  victim.valid = true;
  victim.page = page;
  victim.last_use = ++use_clock_;
  mru_index_ = static_cast<std::uint32_t>(&victim - entries_.data());
  return false;
}

bool Tlb::contains(std::uint32_t addr) const {
  const std::uint32_t page = addr >> page_shift_;
  for (const Entry& entry : entries_) {
    if (entry.valid && entry.page == page) {
      return true;
    }
  }
  return false;
}

void Tlb::flush() {
  for (Entry& entry : entries_) {
    entry.valid = false;
  }
  mru_index_ = kNoMru;
}

} // namespace proxima::mem
