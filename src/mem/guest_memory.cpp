#include "guest_memory.hpp"

#include <algorithm>
#include <cstring>

namespace proxima::mem {

GuestMemory::Page& GuestMemory::materialise(std::uint32_t addr) {
  std::unique_ptr<Leaf>& leaf = top_[addr >> kLeafShift];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
  }
  std::unique_ptr<Page>& page = (*leaf)[leaf_index(addr)];
  if (page == nullptr) {
    page = std::make_unique<Page>(); // value-initialised: all zero
    ++resident_pages_;
  }
  return *page;
}

void GuestMemory::write_u16(std::uint32_t addr, std::uint16_t value) {
  poke_u8(addr, static_cast<std::uint8_t>(value >> 8));
  poke_u8(addr + 1, static_cast<std::uint8_t>(value));
  if (!listeners_.empty()) {
    notify_written(addr, 2);
  }
}

void GuestMemory::copy(std::uint32_t dst, std::uint32_t src,
                       std::uint32_t length) {
  const bool overlaps =
      length != 0 && dst < src + length && src < dst + length;
  if (!overlaps) {
    // Relocation hot path: move whole page spans with memcpy.  An absent
    // source page reads as zero, matching the byte loop's read_u8.
    std::uint32_t done = 0;
    while (done < length) {
      const std::uint32_t s = src + done;
      const std::uint32_t d = dst + done;
      const std::uint32_t span =
          std::min({length - done, kPageBytes - s % kPageBytes,
                    kPageBytes - d % kPageBytes});
      std::uint8_t* out = page_for(d).data() + d % kPageBytes;
      if (const Page* page = page_if_present(s)) {
        std::memcpy(out, page->data() + s % kPageBytes, span);
      } else {
        std::memset(out, 0, span);
      }
      done += span;
    }
  } else if (dst <= src) {
    for (std::uint32_t i = 0; i < length; ++i) {
      poke_u8(dst + i, read_u8(src + i));
    }
  } else {
    for (std::uint32_t i = length; i-- > 0;) {
      poke_u8(dst + i, read_u8(src + i));
    }
  }
  if (length != 0 && !listeners_.empty()) {
    notify_written(dst, length);
  }
}

void GuestMemory::write_u32_span(std::uint32_t addr,
                                 const std::uint32_t* values,
                                 std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    poke_u32(addr + 4 * i, values[i]);
  }
  if (count != 0 && !listeners_.empty()) {
    notify_written(addr, 4 * count);
  }
}

void GuestMemory::fill(std::uint32_t addr, std::uint32_t length,
                       std::uint8_t value) {
  for (std::uint32_t done = 0; done < length;) {
    const std::uint32_t at = addr + done;
    const std::uint32_t span =
        std::min(length - done, kPageBytes - at % kPageBytes);
    std::memset(page_for(at).data() + at % kPageBytes, value, span);
    done += span;
  }
  if (length != 0 && !listeners_.empty()) {
    notify_written(addr, length);
  }
}

void GuestMemory::load(std::uint32_t addr,
                       const std::vector<std::uint8_t>& bytes) {
  const auto length = static_cast<std::uint32_t>(bytes.size());
  for (std::uint32_t done = 0; done < length;) {
    const std::uint32_t at = addr + done;
    const std::uint32_t span =
        std::min(length - done, kPageBytes - at % kPageBytes);
    std::memcpy(page_for(at).data() + at % kPageBytes, bytes.data() + done,
                span);
    done += span;
  }
  if (length != 0 && !listeners_.empty()) {
    notify_written(addr, length);
  }
}

void GuestMemory::clear() {
  for (std::unique_ptr<Leaf>& leaf : top_) {
    leaf.reset();
  }
  resident_pages_ = 0;
  for (MemoryWriteListener* listener : listeners_) {
    listener->on_memory_cleared();
  }
}

void GuestMemory::add_write_listener(MemoryWriteListener* listener) {
  if (listener != nullptr) {
    listeners_.push_back(listener);
  }
}

void GuestMemory::remove_write_listener(MemoryWriteListener* listener) {
  std::erase(listeners_, listener);
}

} // namespace proxima::mem
