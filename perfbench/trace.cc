#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& stamp_json) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               stamp_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %d}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                 s.request, i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.duration_ns());
    }
  }
  SpanSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.duration_ns());
    summary.self_ns[s.name] += duration - child_ns[i];
    summary.total_ns[s.name] += duration;
    double& longest = summary.max_ns[s.name];
    longest = std::max(longest, duration);
    ++summary.count[s.name];
    if (s.parent < 0) {
      summary.child_coverage.push_back(duration > 0.0 ? child_ns[i] / duration
                                                      : 1.0);
    }
  }
  return summary;
}

}  // namespace perfbench
