// In-memory span recorder for the traced benchmark run: one span per call
// into a matopt layer, nested by the call structure, written out once at
// exit. Spans are recorded from the benchmark's own code around public
// entry points; nothing inside the library is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string: "engine.execute", ...
  int parent = -1;        // index into Tracer::spans(), -1 for a root
  int request = -1;       // request id the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded span recorder. Begin/End must nest (the benchmark's
/// closed loop calls the layers one after another on one thread).
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  void set_request(int request) { request_ = request; }
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps, parent and request ids in args). Returns false on an I/O
  /// error.
  bool WriteChromeJson(const std::string& path,
                       const std::string& stamp_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int request_ = -1;
};

/// RAII span; a null tracer makes it a no-op, so the untraced run pays one
/// branch per layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-request rollup of a finished trace.
struct SpanSummary {
  /// span name -> total self time (duration minus the time its direct
  /// children cover), summed over every request, in ns.
  std::map<std::string, double> self_ns;
  /// span name -> total duration summed over every request, in ns.
  std::map<std::string, double> total_ns;
  /// span name -> longest single span, in ns.
  std::map<std::string, double> max_ns;
  /// span name -> number of spans.
  std::map<std::string, int64_t> count;
  /// Per root ("request") span: share of its duration its direct children
  /// cover.
  std::vector<double> child_coverage;
};

SpanSummary Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
