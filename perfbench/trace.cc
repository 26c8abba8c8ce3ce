#include "trace.h"

#include <cstdio>
#include <string_view>

namespace perfbench {

Tracer::Tracer(size_t max_events) : t0_(std::chrono::steady_clock::now()), max_events_(max_events) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

void Tracer::Begin(const char* name, int64_t id) { BeginAt(name, id, Now()); }

void Tracer::End() { EndAt(Now()); }

void Tracer::BeginAt(const char* name, int64_t id, double t) {
  int64_t event = -1;
  if (events_.size() < max_events_) {
    const int64_t parent = stack_.empty() ? -1 : stack_.back().event;
    event = static_cast<int64_t>(events_.size());
    events_.push_back(Event{name, id, t, t, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, id, t, 0.0, event});
}

void Tracer::EndAt(double t) {
  if (stack_.empty()) {
    return;
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = t - open.start;
  Totals& tot = totals_[open.name];
  ++tot.count;
  tot.total_s += dur;
  tot.self_s += dur - open.child_s;
  if (!stack_.empty()) {
    stack_.back().child_s += dur;
  }
  if (open.event >= 0) {
    events_[static_cast<size_t>(open.event)].end = t;
  }
}

double Tracer::SelfSeconds(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, tot] : totals_) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      s += tot.self_s;
    }
  }
  return s;
}

double Tracer::TotalSeconds(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, tot] : totals_) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      s += tot.total_s;
    }
  }
  return s;
}

int64_t Tracer::Calls(const std::string& prefix) const {
  int64_t n = 0;
  for (const auto& [name, tot] : totals_) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      n += tot.count;
    }
  }
  return n;
}

// Written as text rather than through obs::Json: a tree of a hundred thousand events would
// hold several hundred bytes per node. Span names are literals that need no escaping.
std::string Tracer::ChromeJson() const {
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": 1, \"args\": {\"id\": %lld, \"parent\": %lld}}",
                  i == 0 ? "" : ", ", e.name, e.start * 1e6, (e.end - e.start) * 1e6,
                  static_cast<long long>(e.id), static_cast<long long>(e.parent));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"recorded_spans\": %lld, "
                "\"dropped_spans\": %lld}}",
                static_cast<long long>(recorded()), static_cast<long long>(dropped_));
  return out + buf;
}

}  // namespace perfbench
