#include "cell.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace proxima::store {

namespace {

// File layout (all integers little-endian):
//   magic   8 bytes  "PXSTORE2"
//   repeated frames, the header's first:
//     u32   payload length
//     u64   FNV-1a checksum of the payload
//     ...   payload
//   header payload: str scenario, u64 fingerprint, u64 input seed, u64
//     layout seed, u32 slot count, then that many str: obs::slot_names()
//   record payload: one run, see encode_record
// A str is a u32 length and that many bytes.
constexpr char kMagic[8] = {'P', 'X', 'S', 'T', 'O', 'R', 'E', '2'};
constexpr char kOldMagic[8] = {'P', 'X', 'S', 'T', 'O', 'R', 'E', '1'};
constexpr std::size_t kFrameHeaderBytes = 12;

std::uint64_t fnv1a(std::span<const char> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// An unsigned integer in the file's little-endian byte order.
template <typename T> T little_endian(T value) {
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      swapped = static_cast<T>((swapped << 8) | (value & 0xff));
      value = static_cast<T>(value >> 8);
    }
    return swapped;
  }
  return value;
}

/// Little-endian append-only encoder for a run of frames.
class Encoder {
public:
  void u8(std::uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) { put(little_endian(value)); }
  void u64(std::uint64_t value) { put(little_endian(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }
  void raw(std::span<const char> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  /// Overwrite the u32 written at `offset` (a count known only later).
  void patch_u32(std::size_t offset, std::uint32_t value) {
    const std::uint32_t le = little_endian(value);
    std::memcpy(bytes_.data() + offset, &le, sizeof(le));
  }

  /// Open a frame: its length and checksum are filled in by end_frame.
  std::size_t begin_frame() {
    const std::size_t start = bytes_.size();
    bytes_.resize(start + kFrameHeaderBytes);
    return start;
  }
  void end_frame(std::size_t start) {
    const std::span<const char> payload =
        std::span<const char>(bytes_).subspan(start + kFrameHeaderBytes);
    patch_u32(start, static_cast<std::uint32_t>(payload.size()));
    const std::uint64_t checksum = little_endian(fnv1a(payload));
    std::memcpy(bytes_.data() + start + 4, &checksum, sizeof(checksum));
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  const std::vector<char>& bytes() const noexcept { return bytes_; }

private:
  template <typename T> void put(T value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  std::vector<char> bytes_;
};

/// Strict little-endian decoder over one payload; every read is
/// bounds-checked, and so is every count against the bytes its items need,
/// so a damaged count fails before anything is allocated for it.  The
/// frame's checksum already matched, so a failure here means a producer
/// bug or a forged frame, not disk corruption — still refuse.
class Decoder {
public:
  Decoder(std::span<const char> bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string_view str() {
    const std::uint32_t length = u32();
    need(length);
    const std::string_view value(bytes_.data() + pos_, length);
    pos_ += length;
    return value;
  }
  /// A u32 count of items that take at least `item_bytes` each.
  std::uint32_t count(std::size_t item_bytes) {
    const std::uint32_t items = u32();
    if (items > (bytes_.size() - pos_) / item_bytes) {
      throw StoreError(path_ + ": count " + std::to_string(items) +
                       " is larger than its payload");
    }
    return items;
  }

  void expect_done() const {
    if (pos_ != bytes_.size()) {
      throw StoreError(path_ + ": trailing bytes inside a framed payload");
    }
  }

private:
  void need(std::size_t count) const {
    if (bytes_.size() - pos_ < count) {
      throw StoreError(path_ + ": framed payload shorter than its contents");
    }
  }
  template <typename T> T get() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return little_endian(value);
  }

  std::span<const char> bytes_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

void encode_header(Encoder& enc, const CellHeader& header) {
  enc.str(header.scenario);
  enc.u64(header.fingerprint);
  enc.u64(header.input_seed);
  enc.u64(header.layout_seed);
  const std::vector<std::string>& names = obs::slot_names();
  enc.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    enc.str(name);
  }
}

CellHeader decode_header(Decoder& dec, const std::string& path) {
  CellHeader header;
  header.scenario = dec.str();
  header.fingerprint = dec.u64();
  header.input_seed = dec.u64();
  header.layout_seed = dec.u64();
  // Record slot indices mean this build's layout only.
  const std::vector<std::string>& names = obs::slot_names();
  const std::uint32_t listed = dec.count(4);
  for (std::uint32_t slot = 0; slot < listed; ++slot) {
    const std::string_view name = dec.str();
    if (slot >= names.size() || name != names[slot]) {
      throw StoreError(
          path + ": metric slot " + std::to_string(slot) + " is '" +
          std::string(name) + "' in this cell but " +
          (slot < names.size() ? "'" + names[slot] + "'" : "absent") +
          " in this build; delete the cell and re-run");
    }
  }
  if (listed != names.size()) {
    throw StoreError(path + ": the cell lists " + std::to_string(listed) +
                     " metric slots, this build has " +
                     std::to_string(names.size()) +
                     "; delete the cell and re-run");
  }
  dec.expect_done();
  return header;
}

constexpr std::uint8_t kFlagCorruptInput = 1u << 0;
constexpr std::uint8_t kFlagVerified = 1u << 1;
constexpr std::uint8_t kFlagHasMetrics = 1u << 2;

/// The record's nonzero slots: a u32 count, then per slot a u32 index and
/// its value — a u64 for a value slot; for a histogram slot its count,
/// sum, min and max, then a u32 count of populated buckets, each a u32
/// index and a u64 count.
void encode_metrics(Encoder& enc, const obs::MetricsShard& metrics) {
  const std::size_t count_at = enc.size();
  enc.u32(0);
  std::uint32_t slots = 0;
  for (std::size_t slot = 0; slot < metrics.values.size(); ++slot) {
    if (metrics.values[slot] != 0) {
      enc.u32(static_cast<std::uint32_t>(slot));
      enc.u64(metrics.values[slot]);
      ++slots;
    }
  }
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const obs::Histogram& histogram = metrics.histograms[i];
    if (histogram.count == 0) {
      continue;
    }
    enc.u32(static_cast<std::uint32_t>(obs::MetricsShard::kValueSlots + i));
    enc.u64(histogram.count);
    enc.u64(histogram.sum);
    enc.u64(histogram.min);
    enc.u64(histogram.max);
    const std::size_t buckets_at = enc.size();
    enc.u32(0);
    std::uint32_t populated = 0;
    for (std::size_t b = 0; b < histogram.buckets.size(); ++b) {
      if (histogram.buckets[b] != 0) {
        enc.u32(static_cast<std::uint32_t>(b));
        enc.u64(histogram.buckets[b]);
        ++populated;
      }
    }
    enc.patch_u32(buckets_at, populated);
    ++slots;
  }
  enc.patch_u32(count_at, slots);
}

void decode_metrics(Decoder& dec, std::uint64_t index,
                    obs::MetricsShard& metrics, const std::string& path) {
  const auto refuse = [&](const std::string& what) {
    return StoreError(path + ": run " + std::to_string(index) + ": " + what);
  };
  std::uint64_t next = 0; // slots ascend strictly
  for (std::uint32_t n = dec.count(12); n != 0; --n) {
    const std::uint32_t slot = dec.u32();
    if (slot >= obs::MetricsShard::kSlots) {
      throw refuse("metric slot " + std::to_string(slot) +
                   " is past this build's " +
                   std::to_string(obs::MetricsShard::kSlots) + " slots");
    }
    if (slot < next) {
      throw refuse("metric slots out of order");
    }
    next = std::uint64_t{slot} + 1;
    if (slot < obs::MetricsShard::kValueSlots) {
      metrics.values[slot] = dec.u64();
      continue;
    }
    obs::Histogram& histogram =
        metrics.histograms[slot - obs::MetricsShard::kValueSlots];
    histogram.count = dec.u64();
    histogram.sum = dec.u64();
    histogram.min = dec.u64();
    histogram.max = dec.u64();
    for (std::uint32_t b = dec.count(12); b != 0; --b) {
      const std::uint32_t bucket = dec.u32();
      if (bucket >= obs::Histogram::kBuckets) {
        throw refuse("histogram bucket index out of range");
      }
      histogram.buckets[bucket] = dec.u64();
    }
  }
}

std::uint32_t perf_counter_count() {
  std::uint32_t count = 0;
  mem::PerfCounters{}.for_each([&](const char*, std::uint64_t) { ++count; });
  return count;
}

/// One run: u64 index, f64 UoA cycles, u8 flags, a u32 count of perf
/// counters and each as a u64 (mem::PerfCounters::for_each order), a u32
/// count of partitions and for each its name, u32 overruns, and a u32
/// count of activations with each one's cycles as an f64; then, with
/// kFlagHasMetrics, the metric record (encode_metrics); `metrics` is null
/// for a run stored without one.
void encode_record(Encoder& enc, std::uint64_t index,
                   const casestudy::RunSample& sample, bool verified,
                   const obs::MetricsShard* metrics) {
  enc.u64(index);
  enc.f64(sample.uoa_cycles);
  std::uint8_t flags = 0;
  flags |= sample.corrupt_input ? kFlagCorruptInput : 0;
  flags |= verified ? kFlagVerified : 0;
  flags |= metrics != nullptr ? kFlagHasMetrics : 0;
  enc.u8(flags);
  enc.u32(perf_counter_count());
  sample.counters.for_each(
      [&](const char*, std::uint64_t value) { enc.u64(value); });
  enc.u32(static_cast<std::uint32_t>(sample.partitions.size()));
  for (const casestudy::PartitionActivity& activity : sample.partitions) {
    enc.str(activity.partition);
    enc.u32(activity.overruns);
    enc.u32(static_cast<std::uint32_t>(activity.cycles.size()));
    for (const double cycles : activity.cycles) {
      enc.f64(cycles);
    }
  }
  if (metrics != nullptr) {
    encode_metrics(enc, *metrics);
  }
}

void decode_record(Decoder& dec, StoredRun& run, const std::string& path) {
  run.index = dec.u64();
  run.sample.uoa_cycles = dec.f64();
  const std::uint8_t flags = dec.u8();
  run.sample.corrupt_input = (flags & kFlagCorruptInput) != 0;
  run.verified = (flags & kFlagVerified) != 0;
  run.has_metrics = (flags & kFlagHasMetrics) != 0;
  const std::uint32_t counter_count = dec.u32();
  const std::uint32_t expected = perf_counter_count();
  if (counter_count != expected) {
    // The counter block is positional (mem::PerfCounters::for_each order);
    // a different field count means the record predates or postdates this
    // build's counter set and cannot be replayed faithfully.
    throw StoreError(path + ": record carries " +
                     std::to_string(counter_count) +
                     " perf counters, this build expects " +
                     std::to_string(expected));
  }
  run.sample.counters.for_each(
      [&](const char*, std::uint64_t& value) { value = dec.u64(); });
  // A partition takes at least its name's length, its overruns and its
  // activation count; an activation its cycles.
  run.sample.partitions.resize(dec.count(12));
  for (casestudy::PartitionActivity& activity : run.sample.partitions) {
    activity.partition = dec.str();
    activity.overruns = dec.u32();
    activity.cycles.resize(dec.count(8));
    for (double& cycles : activity.cycles) {
      cycles = dec.f64();
    }
  }
  if (run.has_metrics) {
    decode_metrics(dec, run.index, run.metrics, path);
  }
  dec.expect_done();
}

/// Read the whole file.
std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw StoreError(path + ": cannot open cell file");
  }
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    throw StoreError(path + ": read failed");
  }
  return bytes;
}

/// Pull the next length+checksum framed payload out of `bytes` at `pos`.
std::span<const char> next_frame(std::span<const char> bytes,
                                 std::size_t& pos, const std::string& path,
                                 const char* what) {
  if (bytes.size() - pos < kFrameHeaderBytes) {
    throw StoreError(path + ": truncated " + what + " frame at offset " +
                     std::to_string(pos));
  }
  Decoder header(bytes.subspan(pos, kFrameHeaderBytes), path);
  const std::uint32_t length = header.u32();
  const std::uint64_t checksum = header.u64();
  pos += kFrameHeaderBytes;
  if (bytes.size() - pos < length) {
    throw StoreError(path + ": truncated " + what + " payload at offset " +
                     std::to_string(pos) + " (want " +
                     std::to_string(length) + " bytes, have " +
                     std::to_string(bytes.size() - pos) + ")");
  }
  const std::span<const char> payload = bytes.subspan(pos, length);
  if (fnv1a(payload) != checksum) {
    throw StoreError(path + ": checksum mismatch in " + what +
                     " at offset " + std::to_string(pos) +
                     " — the cell is corrupt; delete it and re-run");
  }
  pos += length;
  return payload;
}

CellData parse_cell(std::span<const char> bytes, const std::string& path) {
  if (bytes.size() >= sizeof(kOldMagic) &&
      std::memcmp(bytes.data(), kOldMagic, sizeof(kOldMagic)) == 0) {
    throw StoreError(path + ": a PXSTORE1 cell, a format this build no "
                            "longer reads (PXSTORE2 stores metrics by "
                            "slot); delete it and re-run");
  }
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw StoreError(path + ": not a proxima campaign cell (bad magic)");
  }
  std::size_t pos = sizeof(kMagic);
  CellData cell;
  {
    Decoder dec(next_frame(bytes, pos, path, "header"), path);
    cell.header = decode_header(dec, path);
  }
  while (pos < bytes.size()) {
    Decoder dec(next_frame(bytes, pos, path, "record"), path);
    decode_record(dec, cell.runs.emplace_back(), path);
  }
  const auto by_index = [](const StoredRun& a, const StoredRun& b) {
    return a.index < b.index;
  };
  if (!std::is_sorted(cell.runs.begin(), cell.runs.end(), by_index)) {
    std::stable_sort(cell.runs.begin(), cell.runs.end(), by_index);
  }
  cell.runs.erase(std::unique(cell.runs.begin(), cell.runs.end(),
                              [](const StoredRun& a, const StoredRun& b) {
                                return a.index == b.index;
                              }),
                  cell.runs.end());
  return cell;
}

std::string errno_text() { return std::strerror(errno); }

/// An exclusive advisory lock on an open cell file for one
/// create-or-validate step or one append: concurrent writers never
/// interleave frames, and never both find the file empty and both write a
/// header.
class CellLock {
public:
  CellLock(int fd, const std::string& path) : fd_(fd) {
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) {
        throw StoreError(path + ": cannot lock cell file: " + errno_text());
      }
    }
  }
  ~CellLock() { ::flock(fd_, LOCK_UN); }
  CellLock(const CellLock&) = delete;
  CellLock& operator=(const CellLock&) = delete;

private:
  int fd_;
};

void write_all(int fd, const std::vector<char>& bytes,
               const std::string& path) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t written = ::write(fd, data, left);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw StoreError(path + ": write failed: " + errno_text());
    }
    data += written;
    left -= static_cast<std::size_t>(written);
  }
}

} // namespace

std::uint64_t CellData::contiguous_prefix() const {
  std::uint64_t count = 0;
  for (const StoredRun& run : runs) {
    if (run.index != count) {
      break;
    }
    ++count;
  }
  return count;
}

CellData load_cell(const std::string& path) {
  const std::vector<char> bytes = read_file(path);
  return parse_cell(bytes, path);
}

CellWriter::CellWriter(std::string path, const CellHeader& header)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw StoreError(path_ + ": cannot open cell file: " + errno_text());
  }
  try {
    const CellLock lock(fd_, path_);
    struct stat status {};
    if (::fstat(fd_, &status) != 0) {
      throw StoreError(path_ + ": cannot stat cell file: " + errno_text());
    }
    if (status.st_size == 0) {
      Encoder enc;
      enc.raw(kMagic);
      const std::size_t frame = enc.begin_frame();
      encode_header(enc, header);
      enc.end_frame(frame);
      write_all(fd_, enc.bytes(), path_);
      return;
    }
    // Appending: re-validate the whole file so we never extend a corrupt
    // cell, and refuse to mix configs under one key.
    const CellData existing = load_cell(path_);
    if (existing.header.scenario != header.scenario ||
        existing.header.fingerprint != header.fingerprint) {
      throw StoreError(
          path_ + ": cell belongs to scenario '" + existing.header.scenario +
          "' fingerprint " + std::to_string(existing.header.fingerprint) +
          ", refusing to append scenario '" + header.scenario +
          "' fingerprint " + std::to_string(header.fingerprint));
    }
    stored_.reserve(existing.runs.size());
    for (const StoredRun& run : existing.runs) {
      stored_.push_back(run.index); // sorted and unique
    }
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

CellWriter::~CellWriter() { ::close(fd_); }

void CellWriter::append(std::uint64_t first_index,
                        std::span<const casestudy::RunSample> samples,
                        std::span<const obs::MetricsShard> run_metrics,
                        bool verified) {
  if (!run_metrics.empty() && run_metrics.size() != samples.size()) {
    throw StoreError(path_ +
                     ": append: run_metrics must be empty or match samples");
  }
  Encoder enc;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t index = first_index + i;
    const auto at = std::lower_bound(stored_.begin(), stored_.end(), index);
    if (at != stored_.end() && *at == index) {
      continue; // already on disk — runs are pure functions of their index
    }
    stored_.insert(at, index);
    const std::size_t frame = enc.begin_frame();
    encode_record(enc, index, samples[i], verified,
                  run_metrics.empty() ? nullptr : &run_metrics[i]);
    enc.end_frame(frame);
  }
  if (enc.size() == 0) {
    return;
  }
  const CellLock lock(fd_, path_);
  write_all(fd_, enc.bytes(), path_);
}

} // namespace proxima::store
