#include "dsr_runtime.hpp"

#include <algorithm>
#include <sstream>

namespace proxima::dsr {

DsrRuntime::DsrRuntime(mem::GuestMemory& memory,
                       mem::MemoryHierarchy& hierarchy,
                       const isa::LinkedImage& image,
                       rng::RandomSource& random, RuntimeOptions options)
    : memory_(memory), hierarchy_(hierarchy), image_(image), random_(random),
      options_(options), pages_(options_.code_pool, random_),
      pool_(pages_, random_, options_.offset_range, options_.alignment,
            options_.chunk_align) {
  if (!image_.has_symbol(kFunctabSymbol) ||
      !image_.has_symbol(kStackoffSymbol)) {
    throw DsrError(
        "image lacks DSR metadata tables: run apply_pass before linking");
  }
  functab_addr_ = image_.symbol(kFunctabSymbol).addr;
  stackoff_addr_ = image_.symbol(kStackoffSymbol).addr;
  // Every reseed copies code into the pool: over the image, it would
  // overwrite the measured program or its DSR tables (in the data section).
  const auto reject_overlap = [&](const char* section, std::uint32_t begin,
                                  std::uint32_t end) {
    const std::uint64_t pool_begin = options_.code_pool.base;
    const std::uint64_t pool_end = pool_begin + options_.code_pool.size;
    if (begin < end && pool_begin < end && begin < pool_end) {
      std::ostringstream oss;
      oss << std::hex << "code pool [0x" << pool_begin << ", 0x" << pool_end
          << ") overlaps the image's " << section << " section [0x" << begin
          << ", 0x" << end << ")";
      throw DsrError(oss.str());
    }
  };
  reject_overlap("code", image_.code_begin(), image_.code_end());
  reject_overlap("data", image_.data_begin(), image_.data_end());

  const auto& records = image_.functions();
  current_address_.assign(records.size(), 0);
  stack_offsets_.assign(records.size(), 0);
  relocated_.assign(records.size(), false);
  stub_of_.assign(records.size(), std::nullopt);

  bool entry_found = false;
  for (const isa::FunctionRecord& record : records) {
    if (record.addr == image_.entry_addr()) {
      entry_id_ = record.id;
      entry_found = true;
    }
    if (is_stub_name(record.name)) {
      continue;
    }
    const std::string stub_name = std::string(kStubPrefix) + record.name;
    for (const isa::FunctionRecord& candidate : records) {
      if (candidate.name == stub_name) {
        stub_of_[record.id] = candidate.id;
        break;
      }
    }
  }
  if (!entry_found) {
    throw DsrError("entry function not found among the image records");
  }
  if (!options_.eager) {
    for (const isa::FunctionRecord& record : records) {
      if (!is_stub_name(record.name) && !stub_of_[record.id]) {
        throw DsrError("lazy relocation requested but function '" +
                       record.name +
                       "' has no stub: pass lazy_stubs=true to apply_pass");
      }
    }
  }
}

bool DsrRuntime::is_real(std::uint32_t id) const {
  return !is_stub_name(image_.functions().at(id).name);
}

std::uint32_t DsrRuntime::managed_functions() const {
  std::uint32_t count = 0;
  for (const isa::FunctionRecord& record : image_.functions()) {
    if (!is_stub_name(record.name)) {
      ++count;
    }
  }
  return count;
}

void DsrRuntime::write_table_u32(std::uint32_t table_addr, std::uint32_t id,
                                 std::uint32_t value) {
  const std::uint32_t slot = table_addr + 4 * id;
  memory_.write_u32(slot, value);
  // Host-side write behind the caches: mark and (normally) invalidate.
  hierarchy_.note_memory_written(slot, 4);
  if (options_.run_invalidation_routine) {
    stats_.lines_invalidated += hierarchy_.invalidate_range(slot, 4);
  }
}

void DsrRuntime::relocate(std::uint32_t id) {
  const isa::FunctionRecord& record = image_.functions().at(id);
  const alloc::RandomObjectPool::Allocation allocation =
      pool_.allocate(record.size_bytes);
  memory_.copy(allocation.addr, record.addr, record.size_bytes);
  hierarchy_.note_memory_written(allocation.addr, record.size_bytes);
  if (options_.run_invalidation_routine) {
    // The SPARC-compliant invalidation routine (Section III.B.1): write
    // back + invalidate every line of the new range, and drop any stale
    // IL1/L2 entries still covering the *old* location.
    stats_.lines_invalidated +=
        hierarchy_.invalidate_range(allocation.addr, record.size_bytes);
    stats_.lines_invalidated +=
        hierarchy_.invalidate_range(record.addr, record.size_bytes);
  }
  current_address_[id] = allocation.addr;
  relocated_[id] = true;
  live_chunks_.emplace_back(allocation.chunk_base,
                            allocation.chunk_pages *
                                alloc::PageAllocator::kPageBytes);
  write_table_u32(functab_addr_, id, allocation.addr);
  ++stats_.relocations;
  stats_.bytes_copied += record.size_bytes;
}

void DsrRuntime::initialise() {
  if (!options_.batched_relocation) {
    initialise_per_word();
    return;
  }
  ++stats_.reseeds;
  // Release the previous layout: the freed chunks' cache lines must be
  // written back and invalidated (the invalidation routine's other half —
  // stale code from a dead layout must never survive in the warm L2).
  // Deferred into the coalesced batch alongside this round's new ranges.
  pending_ranges_.clear();
  if (options_.run_invalidation_routine) {
    for (const auto& chunk : live_chunks_) {
      pending_ranges_.push_back(chunk);
    }
    for (const auto& chunk : quarantined_chunks_) {
      pending_ranges_.push_back(chunk);
    }
  }
  live_chunks_.clear();
  quarantined_chunks_.clear();
  pool_.reset();

  draw_layout();
  flush_table(stackoff_addr_, staged_stackoff_);
  flush_table(functab_addr_, staged_functab_);
  flush_invalidations();
  initialised_ = true;
}

void DsrRuntime::initialise_per_word() {
  ++stats_.reseeds;
  // Release the previous layout: the freed chunks' cache lines must be
  // written back and invalidated (the invalidation routine's other half —
  // stale code from a dead layout must never survive in the warm L2).
  if (options_.run_invalidation_routine) {
    for (const auto& [base, length] : live_chunks_) {
      stats_.lines_invalidated += hierarchy_.invalidate_range(base, length);
    }
    for (const auto& [base, length] : quarantined_chunks_) {
      stats_.lines_invalidated += hierarchy_.invalidate_range(base, length);
    }
  }
  live_chunks_.clear();
  quarantined_chunks_.clear();
  pool_.reset();
  std::fill(relocated_.begin(), relocated_.end(), false);

  for (const isa::FunctionRecord& record : image_.functions()) {
    if (!is_real(record.id)) {
      continue;
    }
    // Stack offsets: positive multiples of 8 below the way size, drawn for
    // every function with a frame (Section III.B.2).
    std::uint32_t offset = 0;
    if (record.has_prologue && options_.randomise_stack) {
      offset = random_.next_offset(options_.offset_range, options_.alignment);
    }
    stack_offsets_[record.id] = offset;
    write_table_u32(stackoff_addr_, record.id, offset);

    if (!options_.randomise_code) {
      current_address_[record.id] = record.addr;
      write_table_u32(functab_addr_, record.id, record.addr);
    } else if (options_.eager) {
      relocate(record.id);
    } else {
      // Lazy: route the first call through the stub.
      const std::uint32_t stub_id = stub_of_[record.id].value();
      const std::uint32_t stub_addr = image_.functions().at(stub_id).addr;
      current_address_[record.id] = stub_addr;
      write_table_u32(functab_addr_, record.id, stub_addr);
    }
  }
  initialised_ = true;
}

void DsrRuntime::draw_layout() {
  std::fill(relocated_.begin(), relocated_.end(), false);
  const auto& records = image_.functions();
  staged_functab_.assign(records.size(), 0);
  staged_stackoff_.assign(records.size(), 0);
  staged_valid_.assign(records.size(), false);

  for (const isa::FunctionRecord& record : records) {
    if (!is_real(record.id)) {
      continue;
    }
    // Stack offsets: positive multiples of 8 below the way size, drawn for
    // every function with a frame (Section III.B.2).
    std::uint32_t offset = 0;
    if (record.has_prologue && options_.randomise_stack) {
      offset = random_.next_offset(options_.offset_range, options_.alignment);
    }
    stack_offsets_[record.id] = offset;
    staged_stackoff_[record.id] = offset;
    staged_valid_[record.id] = true;

    if (!options_.randomise_code) {
      current_address_[record.id] = record.addr;
      staged_functab_[record.id] = record.addr;
    } else if (options_.eager) {
      relocate_batched(record);
    } else {
      // Lazy: route the first call through the stub.
      const std::uint32_t stub_id = stub_of_[record.id].value();
      const std::uint32_t stub_addr = records.at(stub_id).addr;
      current_address_[record.id] = stub_addr;
      staged_functab_[record.id] = stub_addr;
    }
  }
}

void DsrRuntime::relocate_batched(const isa::FunctionRecord& record) {
  const alloc::RandomObjectPool::Allocation allocation =
      pool_.allocate(record.size_bytes);
  memory_.copy(allocation.addr, record.addr, record.size_bytes);
  hierarchy_.note_memory_written(allocation.addr, record.size_bytes);
  if (options_.run_invalidation_routine) {
    pending_ranges_.emplace_back(allocation.addr, record.size_bytes);
    pending_ranges_.emplace_back(record.addr, record.size_bytes);
  }
  current_address_[record.id] = allocation.addr;
  relocated_[record.id] = true;
  live_chunks_.emplace_back(allocation.chunk_base,
                            allocation.chunk_pages *
                                alloc::PageAllocator::kPageBytes);
  staged_functab_[record.id] = allocation.addr;
  ++stats_.relocations;
  stats_.bytes_copied += record.size_bytes;
}

void DsrRuntime::flush_table(std::uint32_t table_addr,
                             const std::vector<std::uint32_t>& values) {
  const std::size_t count = staged_valid_.size();
  std::size_t i = 0;
  while (i < count) {
    if (!staged_valid_[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < count && staged_valid_[j]) {
      ++j;
    }
    const std::uint32_t slot =
        table_addr + 4 * static_cast<std::uint32_t>(i);
    const std::uint32_t words = static_cast<std::uint32_t>(j - i);
    memory_.write_u32_span(slot, values.data() + i, words);
    // Host-side write behind the caches: mark and (normally) invalidate.
    hierarchy_.note_memory_written(slot, 4 * words);
    if (options_.run_invalidation_routine) {
      pending_ranges_.emplace_back(slot, 4 * words);
    }
    i = j;
  }
}

void DsrRuntime::flush_invalidations() {
  if (!options_.run_invalidation_routine || pending_ranges_.empty()) {
    return;
  }
  std::sort(pending_ranges_.begin(), pending_ranges_.end());
  // Coalesce in place: adjacent/overlapping ranges merge, so the batch
  // handed to the hierarchy is sorted and pairwise disjoint.
  std::size_t out = 0;
  for (std::size_t i = 1; i < pending_ranges_.size(); ++i) {
    auto& merged = pending_ranges_[out];
    const auto& [addr, length] = pending_ranges_[i];
    if (addr <= merged.first + merged.second) {
      merged.second =
          std::max(merged.first + merged.second, addr + length) - merged.first;
    } else {
      pending_ranges_[++out] = pending_ranges_[i];
    }
  }
  pending_ranges_.resize(out + 1);
  stats_.lines_invalidated += hierarchy_.invalidate_ranges(pending_ranges_);
  pending_ranges_.clear();
}

void DsrRuntime::rerandomise() { initialise(); }

std::uint64_t DsrRuntime::rerandomise_on_demand() {
  if (!initialised_) {
    throw DsrError("rerandomise_on_demand() before initialise()");
  }
  ++stats_.reseeds;
  ++stats_.ondemand_reseeds;
  // Quarantine the outgoing copies: their pool pages stay allocated and
  // their cache lines stay valid (the guest may be executing them right
  // now, and their bytes never change), so no invalidation is run over
  // them here.  The next reboot's initialise() releases and invalidates
  // them with everything else.
  quarantined_chunks_.insert(quarantined_chunks_.end(), live_chunks_.begin(),
                             live_chunks_.end());
  live_chunks_.clear();
  pending_ranges_.clear();

  const std::uint64_t bytes_before = stats_.bytes_copied;
  draw_layout();
  flush_table(stackoff_addr_, staged_stackoff_);
  flush_table(functab_addr_, staged_functab_);
  flush_invalidations();
  // Guest-visible cost, mirroring the lazy-trap model: the copy loop at
  // `kLazyCopyCyclesPerWord` per word (the invalidation routine rides
  // within it, as in the lazy scheme).
  const std::uint64_t words = (stats_.bytes_copied - bytes_before) / 4;
  return words * kLazyCopyCyclesPerWord;
}

std::uint64_t DsrRuntime::handle_lazy_trap(std::uint32_t id) {
  ++stats_.lazy_traps;
  if (id >= relocated_.size() || !is_real(id)) {
    throw DsrError("lazy trap with invalid function id");
  }
  if (relocated_[id]) {
    return 0; // lost race with an earlier call: table already updated
  }
  const std::uint32_t size = image_.functions().at(id).size_bytes;
  relocate(id);
  // Charge the on-line cost: copy loop plus the invalidation routine.
  const std::uint64_t words = size / 4;
  const std::uint64_t cycles = words * kLazyCopyCyclesPerWord;
  stats_.lazy_cycles += cycles;
  return cycles;
}

void DsrRuntime::attach(vm::Vm& cpu) {
  cpu.set_reloc_trap_sink(
      [this](std::uint32_t id) { return handle_lazy_trap(id); });
}

std::uint32_t DsrRuntime::entry_address() const {
  if (!initialised_) {
    throw DsrError("entry_address() before initialise()");
  }
  return current_address_.at(entry_id_);
}

std::uint32_t DsrRuntime::function_address(std::uint32_t id) const {
  return current_address_.at(id);
}

std::uint32_t DsrRuntime::function_address(const std::string& name) const {
  return current_address_.at(image_.function(name).id);
}

std::uint32_t DsrRuntime::stack_offset(std::uint32_t id) const {
  return stack_offsets_.at(id);
}

} // namespace proxima::dsr
