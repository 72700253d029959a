#include "shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace proxima::exec {

namespace {

/// More than one chunk per worker lets fast workers steal the tail of the
/// queue from slow ones.
constexpr std::uint64_t kChunksPerWorker = 4;

} // namespace

std::vector<ShardRange> plan_shards(std::uint64_t runs, unsigned workers) {
  if (workers == 0) {
    throw std::invalid_argument("plan_shards: workers must be >= 1");
  }
  const std::uint64_t target_chunks = kChunksPerWorker * workers;
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, (runs + target_chunks - 1) / target_chunks);
  std::vector<ShardRange> plan;
  plan.reserve(static_cast<std::size_t>((runs + chunk - 1) / chunk));
  for (std::uint64_t begin = 0; begin < runs; begin += chunk) {
    plan.push_back(ShardRange{begin, std::min(runs, begin + chunk)});
  }
  return plan;
}

} // namespace proxima::exec
