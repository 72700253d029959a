// On-disk campaign cell: the append-only record of one (scenario, config
// fingerprint) pair's measured runs.
//
// A cell is a single binary file.  It opens with a fixed magic + checksummed
// header (scenario name, config fingerprint, campaign seeds, and the names
// of the metric slots this build's `obs::MetricsShard` holds) and is
// followed by length-prefixed, individually FNV-checksummed run records.
// Each record carries everything needed to replay the run without
// simulating it: the run index, the full `casestudy::RunSample` (UoA time,
// per-run performance counters, hv partition activity), the golden-model
// verification flag, and — when the producing campaign collected metrics —
// the nonzero slots of the run's metric record (campaign_runner.hpp,
// `last_run_metrics`), by slot index and value.  The slot names are written
// once per cell, and a cell whose list differs from this build's is
// refused: slot indices mean nothing under another build's layout.
//
// Append-only is what makes interruption safe: the engine's sample sink
// emits only COMPLETED shards (engine.hpp), so a crash or fault mid-shard
// leaves at worst a torn trailing record, never a wrong one.  The reader is
// correspondingly strict — a bad magic, header mismatch, short read, count
// larger than its payload, slot index out of range, or checksum failure
// throws `StoreError` naming the path; corrupt stores must be deleted, not
// silently half-read (they are certification evidence).  A cell of the
// previous `PXSTORE1` format is refused the same way, with a message that
// says so.
//
// Writers may be concurrent processes (two `proxima sweep --store DIR`
// runs): `CellWriter` holds an advisory `flock` on the file while it
// creates or validates the header and while it appends, so frames never
// interleave and no writer truncates another's cell.
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
#include <span>
#include <stdexcept>
#include <string>
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
/// sweep` can list a store without re-deriving configs.  The header frame
/// also lists `obs::slot_names()`; the writer always writes this build's
/// list and the reader checks it, so it is not a field here.
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
  obs::MetricsShard metrics; // the run's record; all zero unless has_metrics
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

/// Create-or-append handle on a cell file.  Under an exclusive `flock`,
/// an empty or missing file gets the header; an existing one is
/// re-validated against `header` (a scenario or fingerprint mismatch
/// refuses to mix configs) and its stored run set indexed so this writer's
/// appends never duplicate a record.  Each append batch is written in one
/// `write` under the same lock — the engine calls the sink once per
/// completed shard, so a batch boundary is exactly a shard boundary.
class CellWriter {
public:
  CellWriter(std::string path, const CellHeader& header);
  ~CellWriter();

  CellWriter(const CellWriter&) = delete;
  CellWriter& operator=(const CellWriter&) = delete;

  /// Append the runs [first_index, first_index + samples.size()) that
  /// this writer has not seen stored.  `run_metrics` is empty or parallel
  /// to `samples`;
  /// `verified` stamps every appended record (the campaign contract: a
  /// campaign verifies every collected run or throws).
  void append(std::uint64_t first_index,
              std::span<const casestudy::RunSample> samples,
              std::span<const obs::MetricsShard> run_metrics, bool verified);

  const std::string& path() const noexcept { return path_; }

private:
  std::string path_;
  /// Run indices on disk, ascending: the cell's at open, then this
  /// writer's appends.
  std::vector<std::uint64_t> stored_;
  int fd_ = -1; // opened O_APPEND; written only under the lock
};

} // namespace proxima::store
