#include "guest_memory.hpp"

#include "vm/decode.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace proxima::mem {

GuestMemory::Page& GuestMemory::materialise(std::uint32_t addr) {
  std::unique_ptr<Page>& page = pages_.slot(page_of(addr));
  if (page == nullptr) {
    page = std::make_unique<Page>(); // value-initialised: all zero
    ++resident_pages_;
  }
  return *page;
}

void GuestMemory::reset_decoded(std::uint32_t addr, std::uint32_t length) {
  decode_->memory_written(addr, length);
}

template <typename Write>
void GuestMemory::write_spans(std::uint32_t addr, std::uint32_t length,
                              Write write) {
  bool decoded = false;
  for (std::uint32_t done = 0; done < length;) {
    const std::uint32_t at = addr + done;
    const std::uint32_t span =
        std::min(length - done, kPageBytes - at % kPageBytes);
    Page& page = page_for(at);
    decoded |= page.decoded != nullptr;
    write(page.bytes.data() + at % kPageBytes, done, span);
    done += span;
  }
  if (decoded) {
    reset_decoded(addr, length);
  }
}

void GuestMemory::copy(std::uint32_t dst, std::uint32_t src,
                       std::uint32_t length) {
  if (length != 0 && dst < src + length && src < dst + length) {
    // Overlapping ranges (never a relocation): memmove through a buffer.
    std::vector<std::uint8_t> bytes(length);
    for (std::uint32_t i = 0; i < length; ++i) {
      bytes[i] = read_u8(src + i);
    }
    load(dst, bytes);
    return;
  }
  // Relocation hot path: move whole page spans with memcpy.  An absent
  // source page reads as zero.
  bool decoded = false;
  for (std::uint32_t done = 0; done < length;) {
    const std::uint32_t s = src + done;
    const std::uint32_t d = dst + done;
    const std::uint32_t span =
        std::min({length - done, kPageBytes - s % kPageBytes,
                  kPageBytes - d % kPageBytes});
    Page& out = page_for(d);
    decoded |= out.decoded != nullptr;
    if (const Page* in = pages_.find(page_of(s))) {
      std::memcpy(out.bytes.data() + d % kPageBytes,
                  in->bytes.data() + s % kPageBytes, span);
    } else {
      std::memset(out.bytes.data() + d % kPageBytes, 0, span);
    }
    done += span;
  }
  if (decoded) {
    reset_decoded(dst, length);
  }
}

void GuestMemory::write_u32_span(std::uint32_t addr,
                                 const std::uint32_t* values,
                                 std::uint32_t count) {
  bool decoded = false;
  for (std::uint32_t i = 0; i < count; ++i) {
    decoded |= poke_u32(addr + 4 * i, values[i]);
  }
  if (decoded) {
    reset_decoded(addr, 4 * count);
  }
}

void GuestMemory::fill(std::uint32_t addr, std::uint32_t length,
                       std::uint8_t value) {
  write_spans(addr, length,
              [value](std::uint8_t* out, std::uint32_t, std::uint32_t span) {
                std::memset(out, value, span);
              });
}

void GuestMemory::load(std::uint32_t addr,
                       const std::vector<std::uint8_t>& bytes) {
  write_spans(addr, static_cast<std::uint32_t>(bytes.size()),
              [&bytes](std::uint8_t* out, std::uint32_t done,
                       std::uint32_t span) {
                std::memcpy(out, bytes.data() + done, span);
              });
}

void GuestMemory::clear() {
  pages_.clear();
  resident_pages_ = 0;
  if (decode_ != nullptr) {
    decode_->invalidate_all();
  }
}

void GuestMemory::bind_decode_cache(vm::DecodeCache* cache) {
  if (cache != nullptr && decode_ != nullptr) {
    throw std::logic_error("guest memory: a decode cache is already bound");
  }
  decode_ = cache;
}

} // namespace proxima::mem
