// On-disk campaign cell: the append-only record of one (scenario, config
// fingerprint) pair's measured runs.
//
// A cell is a single binary file.  It opens with a fixed magic + checksummed
// header (scenario name, config fingerprint, campaign seeds) and is followed
// by length-prefixed, individually FNV-checksummed run records.  Each record
// carries everything needed to replay the run without simulating it: the
// run index, the full `casestudy::RunSample` (UoA time, per-run performance
// counters, hv partition activity), the golden-model verification flag, and
// — when the producing campaign collected metrics — the exact per-run
// metrics delta the runner published (campaign_runner.hpp,
// `last_run_metrics`).
//
// Append-only is what makes interruption safe: the engine's sample sink
// emits only COMPLETED shards (engine.hpp), so a crash or fault mid-shard
// leaves at worst a torn trailing record, never a wrong one.  The reader is
// correspondingly strict — a bad magic, header mismatch, short read, or
// checksum failure throws `StoreError` with the offset; corrupt stores must
// be deleted, not silently half-read (they are certification evidence).
//
// Records may legitimately be non-contiguous (shards complete out of order;
// an interrupt persists shard [50,100) but not [0,50)), so the reader keeps
// every record sorted by run index and the resume path consumes
// `contiguous_prefix()` — exactly the runs the engine's `StoredPrefix`
// contract can splice.  Duplicate indices keep the first occurrence (runs
// are pure functions of their index, so duplicates are bit-identical by
// construction).
#pragma once

#include "casestudy/campaign.hpp"
#include "obs/metrics.hpp"

#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace proxima::store {

/// Any store-layer failure: missing/corrupt/truncated cell files, header
/// mismatches (fingerprint or scenario), metrics-presence mismatches.
struct StoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Identifies what a cell holds; written once at creation, validated on
/// every subsequent open.  The fingerprint (casestudy/fingerprint.hpp) is
/// the real key — the seeds are denormalised into the header so `proxima
/// sweep` can list a store without re-deriving configs.
struct CellHeader {
  std::string scenario;
  std::uint64_t fingerprint = 0;
  std::uint64_t input_seed = 0;
  std::uint64_t layout_seed = 0;

  friend bool operator==(const CellHeader&, const CellHeader&) = default;
};

/// One persisted run.
struct StoredRun {
  std::uint64_t index = 0;
  casestudy::RunSample sample;
  bool verified = false;
  bool has_metrics = false;
  obs::MetricsShard metrics; // per-run delta; empty unless has_metrics
};

/// A fully parsed cell: header + records sorted by run index (unique).
struct CellData {
  CellHeader header;
  std::vector<StoredRun> runs;

  /// Number of leading records forming the contiguous index range [0, n)
  /// — the longest prefix the engine can splice in front of a resumed
  /// campaign.
  std::uint64_t contiguous_prefix() const;
};

/// Parse `path` strictly; throws StoreError on any structural defect.
CellData load_cell(const std::string& path);

/// Create-or-append handle on a cell file.  Creating writes the header;
/// opening an existing file re-validates it against `header` (a scenario
/// or fingerprint mismatch refuses to mix configs) and indexes the stored
/// run set so appends never duplicate a record.  Writes are flushed per
/// append batch — the engine calls the sink once per completed shard, so a
/// flushed batch boundary is exactly a shard boundary.
class CellWriter {
public:
  CellWriter(std::string path, const CellHeader& header);

  CellWriter(const CellWriter&) = delete;
  CellWriter& operator=(const CellWriter&) = delete;

  /// Append the runs [first_index, first_index + samples.size()) that are
  /// not already stored.  `run_metrics` is empty or parallel to `samples`;
  /// `verified` stamps every appended record (the campaign contract: a
  /// campaign verifies every collected run or throws).
  void append(std::uint64_t first_index,
              std::span<const casestudy::RunSample> samples,
              std::span<const obs::MetricsShard> run_metrics, bool verified);

  bool contains(std::uint64_t index) const {
    return stored_.count(index) != 0;
  }
  std::uint64_t stored_count() const { return stored_.size(); }
  const std::string& path() const noexcept { return path_; }

private:
  std::string path_;
  std::unordered_set<std::uint64_t> stored_;
  std::ofstream out_;
};

} // namespace proxima::store
