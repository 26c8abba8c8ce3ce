/// \file
/// Host-time spans recorded from the benchmark's own files around every call into a layer
/// of the stack. Each span has a name ("<layer>.<call>"), start, end, its parent span and
/// an id shared by the spans of one task or request. Self time (duration minus the part
/// its children cover) is summed per span name as spans close, so the per-layer totals are
/// exact however many spans a run records; only the first `max_events` spans are kept for
/// the Chrome-trace file written when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(size_t max_events = 100000);

  /// Opens a span as a child of the innermost open span. `name` must outlive the tracer
  /// (string literals).
  void Begin(const char* name, int64_t id);
  /// Closes the innermost open span.
  void End();
  /// Test hook: the same as Begin/End with explicit timestamps in seconds.
  void BeginAt(const char* name, int64_t id, double t);
  void EndAt(double t);

  /// Sum of self time over span names starting with `prefix`.
  double SelfSeconds(const std::string& prefix) const;
  /// Sum of total (inclusive) time and calls over span names starting with `prefix`.
  double TotalSeconds(const std::string& prefix) const;
  int64_t Calls(const std::string& prefix) const;
  int64_t recorded() const { return static_cast<int64_t>(events_.size()); }
  int64_t dropped() const { return dropped_; }

  /// Chrome-trace JSON ("X" events, microseconds; args carry id and parent event index).
  std::string ChromeJson() const;

 private:
  struct Open {
    const char* name;
    int64_t id;
    double start;
    double child_s;  // time covered by already-closed children
    int64_t event;   // index into events_, -1 when not kept
  };
  struct Event {
    const char* name;
    int64_t id;
    double start;
    double end;
    int64_t parent;  // index into events_, -1 at the root or when the parent was not kept
  };
  struct Totals {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  double Now() const;

  std::chrono::steady_clock::time_point t0_;
  size_t max_events_;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  int64_t dropped_ = 0;
  std::unordered_map<const char*, Totals> totals_;  // keyed by the literal's address
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t id = -1) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, id);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
