// Deterministic sharding of a campaign's run indices.
//
// A campaign of `runs` measured runs is cut into contiguous chunks that
// workers claim from a shared queue.  The *plan* is a pure function of
// (runs, workers) — which worker ends up executing which chunk is
// scheduling-dependent, but since every run is a pure function of its
// index (see campaign_runner.hpp) the aggregated result is not.
//
// Chunks are oversubscribed (several per worker) so the pool self-balances
// when run durations vary — the work-stealing effect without per-run
// queue traffic.
#pragma once

#include <cstdint>
#include <vector>

namespace proxima::exec {

/// Half-open range of measured-run indices [begin, end).
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const noexcept { return end - begin; }

  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Cut [0, runs) into ascending, disjoint, covering chunks, four per
/// worker (fewer when runs < 4 × workers: one run per chunk).  Returns an
/// empty plan for runs == 0.  Deterministic.
std::vector<ShardRange> plan_shards(std::uint64_t runs, unsigned workers);

} // namespace proxima::exec
