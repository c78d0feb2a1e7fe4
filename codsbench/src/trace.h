// Benchmark-side spans. The traced run wraps each call into a layer's
// public function in a Span; spans of one statement or script share a
// trace id and nest through an explicit parent stack. Spans are kept in
// memory and written out when the run ends. Nothing inside src/ is
// instrumented.
#ifndef CODSBENCH_TRACE_H_
#define CODSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace codsbench {

struct SpanRecord {
  std::string name;
  uint64_t trace_id = 0;
  int64_t parent = -1;   // index into Tracer::spans(), -1 for a root
  int64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  uint64_t items = 1;    // calls covered (batched ns-scale kernels)
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Single-threaded span recorder. Disabled tracers record nothing and
/// cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  uint64_t NewTraceId() { return ++last_trace_id_; }

  /// RAII span: opens on construction under the innermost open span.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t trace_id,
         uint64_t items = 1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  /// Records a finished span measured elsewhere (worker threads report
  /// their intervals after joining), as a child of the open span.
  void AddClosed(const char* name, uint64_t trace_id, int64_t start_ns,
                 int64_t end_ns, uint64_t items);

  /// Nanoseconds since the tracer's origin; safe from any thread.
  int64_t NowNs() const;
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Median self time per call (self / items) of every span name, in ns.
  std::map<std::string, double> MedianSelfNsByName() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t last_trace_id_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

}  // namespace codsbench

#endif  // CODSBENCH_TRACE_H_
