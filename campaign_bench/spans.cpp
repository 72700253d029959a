#include "bench.hpp"

#include <cstdio>
#include <stdexcept>

namespace campaign_bench {

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {
  // Per-run spans of the largest traced pass fit without reallocating
  // mid-pass.
  spans_.reserve(1 << 18);
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(const char* name, std::int64_t run) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, run, parent, now_us(), 0.0});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_us();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].duration_us();
    }
  }
  return self;
}

double SpanRecorder::subtree_self_us(int root) const {
  const std::vector<double> self = self_us();
  // Parents precede their children, so one forward sweep marks a subtree.
  std::vector<bool> inside(spans_.size(), false);
  double sum = 0.0;
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
       ++i) {
    inside[i] = static_cast<int>(i) == root ||
                (spans_[i].parent >= 0 &&
                 inside[static_cast<std::size_t>(spans_[i].parent)]);
    if (inside[i]) {
      sum += self[i];
    }
  }
  return sum;
}

void SpanRecorder::write_chrome_json(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"run\": %lld}}",
                  i == 0 ? "" : ",\n", span.name, span.start_us,
                  span.duration_us(), i, span.parent,
                  static_cast<long long>(span.run));
    out << line;
  }
  out << "\n]}\n";
}

} // namespace campaign_bench
