// Hostile and concurrent inputs to campaign cells (src/store/cell.cpp).
// A small metrics-on hv cell is cut at every byte offset and mutated one
// structural field at a time, with each mutant's frame re-checksummed so
// that the decoder itself is reached: every mutant must end in a
// StoreError naming the cell, never in a crash or a served run, and a cut
// exactly at a frame boundary must load the shorter prefix.  A cell of the
// old PXSTORE1 format is refused with a message that says so.  Two writer
// processes appending disjoint shards of one campaign to one cell must
// leave a cell that re-renders the campaign bit-identically.
#include "store/store.hpp"

#include "casestudy/fingerprint.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"
#include "obs/metrics.hpp"
#include "trace/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kFrameHeaderBytes = 12; // u32 length + u64 checksum

/// A unique, self-cleaning store root per test.
class TempStore {
public:
  explicit TempStore(const char* tag)
      : root_(std::filesystem::temp_directory_path() /
              ("proxima_store_cell_test_" + std::to_string(::getpid()) +
               "_" + tag)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~TempStore() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string path() const { return root_.string(); }

private:
  std::filesystem::path root_;
};

exec::EngineOptions worker_options(unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  return options;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes,
                 std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(size));
}

std::uint32_t get_u32(const std::vector<char>& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= std::uint32_t{static_cast<unsigned char>(bytes[at + i])}
             << (8 * i);
  }
  return value;
}

void put_u32(std::vector<char>& bytes, std::size_t at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
}

void put_u64(std::vector<char>& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
}

/// One frame of a cell: where it starts and how long its payload is.
struct Frame {
  std::size_t start;
  std::size_t length;
  std::size_t payload() const { return start + kFrameHeaderBytes; }
  std::size_t end() const { return payload() + length; }
};

std::vector<Frame> frames_of(const std::vector<char>& bytes) {
  std::vector<Frame> frames;
  for (std::size_t at = kMagicBytes; at < bytes.size();) {
    const Frame frame{at, get_u32(bytes, at)};
    frames.push_back(frame);
    at = frame.end();
  }
  return frames;
}

/// Recompute a frame's checksum (FNV-1a over its payload), so that a
/// mutated payload passes the frame check and reaches the decoder.
void rechecksum(std::vector<char>& bytes, const Frame& frame) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = frame.payload(); i < frame.end(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 0x100000001b3ULL;
  }
  put_u64(bytes, frame.start + 4, hash);
}

/// Replace bytes [at, at + erase) of a frame's payload with `insert`, and
/// fix its length and checksum.
std::vector<char> splice(std::vector<char> bytes, const Frame& frame,
                         std::size_t at, std::size_t erase,
                         const std::vector<char>& insert) {
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
              bytes.begin() + static_cast<std::ptrdiff_t>(at + erase));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               insert.begin(), insert.end());
  const Frame fixed{frame.start, frame.length - erase + insert.size()};
  put_u32(bytes, fixed.start, static_cast<std::uint32_t>(fixed.length));
  rechecksum(bytes, fixed);
  return bytes;
}

/// The offsets of a record's count and slot fields, as cell.cpp lays them
/// out: u64 index, f64 UoA cycles, u8 flags, u32 perf counter count and
/// the counters, u32 partition count and per partition (u32 name length,
/// name, u32 overruns, u32 activation count, f64 cycles each), then the
/// metric record: u32 slot count and per slot a u32 index and its value.
struct RecordFields {
  std::size_t perf_count;
  std::size_t partition_count;
  std::size_t cycles_count; // the first partition's
  std::size_t slot_count;
  std::size_t first_slot;
  std::size_t bucket_count; // the histogram slot's
};

RecordFields fields_of(const std::vector<char>& bytes, const Frame& frame) {
  RecordFields fields{};
  std::size_t at = frame.payload() + 8 + 8 + 1;
  fields.perf_count = at;
  at += 4 + 8 * std::size_t{get_u32(bytes, at)};
  fields.partition_count = at;
  const std::uint32_t partitions = get_u32(bytes, at);
  at += 4;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    at += 4 + get_u32(bytes, at) + 4; // name, overruns
    if (p == 0) {
      fields.cycles_count = at;
    }
    at += 4 + 8 * std::size_t{get_u32(bytes, at)};
  }
  fields.slot_count = at;
  const std::uint32_t slots = get_u32(bytes, at);
  at += 4;
  fields.first_slot = at;
  for (std::uint32_t s = 0; s < slots; ++s) {
    const std::uint32_t slot = get_u32(bytes, at);
    at += 4;
    if (slot < obs::MetricsShard::kValueSlots) {
      at += 8;
      continue;
    }
    at += 4 * 8; // count, sum, min, max
    fields.bucket_count = at;
    at += 4 + 12 * std::size_t{get_u32(bytes, at)};
  }
  EXPECT_EQ(at, frame.end()) << "the test's record layout is out of date";
  EXPECT_NE(fields.cycles_count, 0u) << "no partition in the record";
  EXPECT_NE(fields.bucket_count, 0u) << "no histogram slot in the record";
  return fields;
}

/// Where the header's slot-name list starts: it ends the header payload,
/// one u32 length and the name per slot (its u32 count comes just before).
std::size_t slot_list(const Frame& header) {
  std::size_t at = header.end();
  for (const std::string& name : obs::slot_names()) {
    at -= 4 + name.size();
  }
  return at;
}

/// The scenario of the hostile-cell tests: DSR under the hypervisor with
/// taint on, so a record holds every kind of slot (mix, dsr.*,
/// vm.decode.*, leak.* and the sink-bits histogram) beside two partitions.
constexpr const char* kHvScenario = "hv/control+image-dsr";

CampaignConfig hv_config(std::uint32_t runs) {
  CampaignConfig config =
      exec::ScenarioRegistry::global().at(kHvScenario).make_config(runs);
  config.collect_metrics = true;
  config.taint = true;
  return config;
}

/// Every way loading `path` can end: a StoreError that names the path.
void expect_refused(const std::string& path, const std::string& what) {
  SCOPED_TRACE(what);
  try {
    const store::CellData cell = store::load_cell(path);
    ADD_FAILURE() << "mutant served " << cell.runs.size() << " runs";
  } catch (const store::StoreError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

class HostileCell : public ::testing::Test {
protected:
  void SetUp() override {
    const store::CampaignStore store(root_.path());
    const CampaignConfig config = hv_config(3);
    store.run(kHvScenario, config, worker_options(1));
    path_ = store.cell_path(kHvScenario, config);
    cell_ = read_bytes(path_);
    frames_ = frames_of(cell_);
    ASSERT_EQ(frames_.size(), 4u) << "a header and three runs";
    ASSERT_EQ(frames_.back().end(), cell_.size());
  }

  /// Write `mutant` over the cell and expect every reader to refuse it.
  void expect_mutant_refused(const std::vector<char>& mutant,
                             const std::string& what) {
    write_bytes(path_, mutant, mutant.size());
    expect_refused(path_, what);
    // The store refuses it too, before anything is simulated.
    const store::CampaignStore store(root_.path());
    EXPECT_THROW(store.run(kHvScenario, hv_config(3), worker_options(1)),
                 store::StoreError)
        << what;
  }

  TempStore root_{"hostile"};
  std::string path_;
  std::vector<char> cell_;
  std::vector<Frame> frames_;
};

TEST_F(HostileCell, EveryTruncationIsRefusedOrLoadsAWholeFramePrefix) {
  for (std::size_t cut = 0; cut < cell_.size(); ++cut) {
    write_bytes(path_, cell_, cut);
    std::size_t whole_records = 0;
    bool boundary = false;
    for (std::size_t f = 0; f < frames_.size(); ++f) {
      if (frames_[f].end() == cut) {
        boundary = true;
        whole_records = f; // frame 0 is the header
      }
    }
    if (!boundary) {
      expect_refused(path_, "cut at byte " + std::to_string(cut));
      continue;
    }
    const store::CellData cell = store::load_cell(path_);
    EXPECT_EQ(cell.runs.size(), whole_records) << "cut at byte " << cut;
    EXPECT_EQ(cell.contiguous_prefix(), whole_records);
  }
}

TEST_F(HostileCell, SlotIndexPastTheSlotCountIsRefused) {
  for (std::size_t f = 1; f < frames_.size(); ++f) {
    const RecordFields fields = fields_of(cell_, frames_[f]);
    for (const std::uint32_t slot :
         {static_cast<std::uint32_t>(obs::MetricsShard::kSlots),
          0xffff'ffffu}) {
      std::vector<char> mutant = cell_;
      put_u32(mutant, fields.first_slot, slot);
      rechecksum(mutant, frames_[f]);
      expect_mutant_refused(mutant, "record " + std::to_string(f) +
                                        " slot " + std::to_string(slot));
    }
  }
}

TEST_F(HostileCell, CountLargerThanItsPayloadIsRefused) {
  std::vector<std::pair<std::string, std::size_t>> counts = {
      {"header slot-name count", slot_list(frames_[0]) - 4}};
  for (std::size_t f = 1; f < frames_.size(); ++f) {
    const RecordFields fields = fields_of(cell_, frames_[f]);
    const std::string record = "record " + std::to_string(f) + " ";
    counts.emplace_back(record + "perf counter count", fields.perf_count);
    counts.emplace_back(record + "partition count", fields.partition_count);
    counts.emplace_back(record + "activation count", fields.cycles_count);
    counts.emplace_back(record + "metric slot count", fields.slot_count);
    counts.emplace_back(record + "histogram bucket count",
                        fields.bucket_count);
  }
  ASSERT_EQ(get_u32(cell_, counts[0].second), obs::slot_names().size());
  for (const auto& [what, at] : counts) {
    const Frame& frame = *std::find_if(
        frames_.begin(), frames_.end(),
        [&](const Frame& candidate) { return at < candidate.end(); });
    for (const std::uint32_t count :
         {get_u32(cell_, at) + 1, 0x7fff'ffffu, 0xffff'ffffu}) {
      std::vector<char> mutant = cell_;
      put_u32(mutant, at, count);
      rechecksum(mutant, frame);
      expect_mutant_refused(mutant, what + " " + std::to_string(count));
    }
  }
}

TEST_F(HostileCell, SlotNameListOfAnotherBuildIsRefused) {
  const Frame& header = frames_[0];
  const std::vector<std::string>& names = obs::slot_names();
  const std::size_t list = slot_list(header);
  const std::size_t count_at = list - 4;
  ASSERT_EQ(get_u32(cell_, count_at), names.size());

  // One letter of the first name changed.
  std::vector<char> renamed = cell_;
  renamed[list + 4] ^= 0x20;
  rechecksum(renamed, header);
  expect_mutant_refused(renamed, "a renamed slot");

  // The last name dropped.
  const std::size_t last = header.end() - 4 - names.back().size();
  std::vector<char> dropped =
      splice(cell_, header, last, header.end() - last, {});
  put_u32(dropped, count_at, static_cast<std::uint32_t>(names.size() - 1));
  rechecksum(dropped, Frame{header.start, last - header.payload()});
  expect_mutant_refused(dropped, "a slot fewer");

  // One name too many.
  const std::vector<char> extra_name = {3, 0, 0, 0, 'x', 'y', 'z'};
  std::vector<char> added = splice(cell_, header, header.end(), 0, extra_name);
  put_u32(added, count_at, static_cast<std::uint32_t>(names.size() + 1));
  rechecksum(added,
             Frame{header.start, header.length + extra_name.size()});
  expect_mutant_refused(added, "a slot more");
}

TEST(OldCellFormat, IsRefusedWithAMessageThatSaysSo) {
  TempStore root("old_format");
  const store::CampaignStore store(root.path());
  const CampaignConfig config = hv_config(2);
  const std::string path = store.cell_path(kHvScenario, config);
  std::vector<char> old_cell = {'P', 'X', 'S', 'T', 'O', 'R', 'E', '1'};
  old_cell.resize(64, '\0');
  write_bytes(path, old_cell, old_cell.size());
  for (const bool writer : {false, true}) {
    try {
      if (writer) {
        store::CellWriter(path, store::CellHeader{kHvScenario, 1, 2, 3});
      } else {
        store.run(kHvScenario, config, worker_options(1));
      }
      FAIL() << "an old-format cell was accepted";
    } catch (const store::StoreError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("PXSTORE1"), std::string::npos) << what;
      EXPECT_NE(what.find("delete"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(read_bytes(path), old_cell) << "the old cell must be left as is";
}

// ---------------------------------------------------------------------------
// Concurrent writers.
// ---------------------------------------------------------------------------

/// A campaign's runs with the per-run records a sample sink receives.
struct CapturedCampaign {
  CampaignResult result;
  std::vector<casestudy::RunSample> samples;
  std::vector<obs::MetricsShard> records;
};

CapturedCampaign capture(const CampaignConfig& config) {
  CapturedCampaign captured;
  captured.samples.resize(config.runs);
  captured.records.resize(config.runs);
  exec::EngineOptions options = worker_options(1); // no thread before fork
  options.sample_sink = [&](const exec::ShardRange& range,
                            std::span<const casestudy::RunSample> samples,
                            std::span<const obs::MetricsShard> records) {
    std::copy(samples.begin(), samples.end(),
              captured.samples.begin() +
                  static_cast<std::ptrdiff_t>(range.begin));
    std::copy(records.begin(), records.end(),
              captured.records.begin() +
                  static_cast<std::ptrdiff_t>(range.begin));
  };
  captured.result = exec::CampaignEngine(options).run(config);
  return captured;
}

/// Run `body` in a child process; the child's exit status is 0 iff it
/// returned without throwing.
pid_t spawn(const std::function<void()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    int status = 0;
    try {
      body();
    } catch (...) {
      status = 1;
    }
    ::_exit(status);
  }
  return pid;
}

TEST(ConcurrentCellWriters, DisjointShardsFromTwoProcessesRerender) {
  constexpr const char* kScenario = "leak/beacon-dsr";
  constexpr std::uint32_t kRuns = 64;
  constexpr std::uint32_t kShard = 2;
  CampaignConfig config =
      exec::ScenarioRegistry::global().at(kScenario).make_config(kRuns);
  config.collect_metrics = true;
  config.taint = true;
  const CapturedCampaign live = capture(config);

  for (int attempt = 0; attempt < 4; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    TempStore root(("writers" + std::to_string(attempt)).c_str());
    const store::CampaignStore store(root.path());
    const std::string path = store.cell_path(kScenario, config);
    const store::CellHeader header{kScenario,
                                   casestudy::config_fingerprint(config),
                                   config.input_seed, config.layout_seed};
    // Both writers race to create the cell, then append alternate shards.
    std::vector<pid_t> writers;
    for (std::uint32_t parity = 0; parity < 2; ++parity) {
      writers.push_back(spawn([&, parity] {
        store::CellWriter writer(path, header);
        for (std::uint32_t first = parity * kShard; first < kRuns;
             first += 2 * kShard) {
          writer.append(
              first,
              std::span<const casestudy::RunSample>(live.samples)
                  .subspan(first, kShard),
              std::span<const obs::MetricsShard>(live.records)
                  .subspan(first, kShard),
              true);
        }
      }));
    }
    for (const pid_t pid : writers) {
      int status = -1;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    store::StoreStats stats;
    const CampaignResult rerendered =
        store.run(kScenario, config, worker_options(1), &stats);
    EXPECT_EQ(stats.simulated_runs, 0u);
    EXPECT_EQ(rerendered.samples, live.result.samples);
    EXPECT_EQ(rerendered.verified_runs, live.result.verified_runs);
    EXPECT_EQ(trace::times_digest_hex(rerendered.times),
              trace::times_digest_hex(live.result.times));
    EXPECT_EQ(obs::metrics_digest_hex(rerendered.metrics),
              obs::metrics_digest_hex(live.result.metrics));
  }
}

} // namespace
