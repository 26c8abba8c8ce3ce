/// \file
/// The benchmark's three workloads (README.md says why each exists). A workload builds its
/// inputs from the seed at construction, warms the stack up, and then runs whole passes.
/// Every pass reports the values the correctness gate checks (per-unit checksums or
/// per-point accuracy and token counts), dumps of every scheduling result for the
/// bit-identity checks, failed operations, and the simulated metrics of the pass.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Pass {
  double host_s = 0.0;   // host seconds of the pass's timed region
  int64_t tokens = 0;    // committed (functional) or priced (analytic) decoded tokens
  // unit key -> value checked against the reference and across passes.
  std::map<std::string, std::string> outputs;
  // Every scheduling result of the pass, serialized with its metrics snapshot.
  std::vector<std::string> schedules;
  FailureTally failures;
  // End-to-end simulated metrics and per-layer simulated/count metrics, by metric name.
  std::map<std::string, double> sim;
  std::map<std::string, double> layer;
};

/// How a pass reaches the execution backend.
enum class Route {
  kProbe,   // through the forwarding probe (spans when a tracer is given)
  kDirect,  // straight to the backend, no probe (decorator parity)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the smallest piece of the workload that fills the stack's lazy caches.
  virtual void Warmup() = 0;
  /// One whole pass. `tracer` (may be null) records spans around every call into the
  /// stack; it is only honoured on Route::kProbe.
  virtual Pass Run(Route route, Tracer* tracer) = 0;
  /// True when the timed passes are RunOpaque() rather than Run(Route::kProbe, nullptr):
  /// tts_sweep times SweepPareto, which reports points only, and CheckMeasured() compares
  /// each timed pass with Run(), its composition through the probe.
  virtual bool measured_is_opaque() const { return false; }
  virtual Pass RunOpaque() { return Pass{}; }
  /// Compares an opaque timed pass with an analysis pass (tts_sweep: point for point).
  virtual void CheckMeasured(const Pass& measured, const Pass& analysis, FailureTally* f) const {}
};

/// Workload names: tts_sweep, tts_toy, serve_open. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
