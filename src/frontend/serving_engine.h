/// \file
/// The request-serving frontend: an event-driven loop that feeds timestamped requests into
/// the ContinuousBatcher's live Submit/Step API and streams tokens back out.
///
/// What it adds over the raw batcher (docs/serving_frontend.md has the full design):
///   * arrival semantics — requests enter the admission queue only once the simulated
///     clock reaches their arrival time; an idle batcher fast-forwards to the next arrival
///     (the gap is accounted as ScheduleResult::idle_s, never as decode time);
///   * sessions — a multi-turn dialog keeps its KV resident across turns: each turn
///     completes with retain_kv, the follow-up turn forks from it (re-prefilling ONLY the
///     new turn's tokens) and the superseded snapshot is released at the child's admission;
///   * streaming — per-token callbacks with the batcher clock, plus per-request TTFT/TPOT/
///     checksum accounting and serve.ttft_seconds / serve.tpot_seconds histograms in the
///     run's metrics snapshot;
///   * SLO bookkeeping — each completed request is scored against its SloSpec, and goodput
///     (decoded tokens of SLO-meeting requests per second) is rolled up in the summary.
///
/// The engine is deterministic end to end: the clock is the batcher's simulated time and
/// every stochastic choice (arrivals, lengths, sampling) is seeded, so one trace produces
/// bit-identical token streams and latency numbers at any HEXLLM_NUM_THREADS.
#ifndef SRC_FRONTEND_SERVING_ENGINE_H_
#define SRC_FRONTEND_SERVING_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/frontend/request.h"
#include "src/serving/continuous_batcher.h"

namespace hfront {

// Roll-up of one serving run.
struct EngineSummary {
  hserve::ScheduleResult schedule;     // the batcher's aggregate result (error, KV, metrics)
  std::vector<RequestStats> requests;  // aligned with the submitted trace order
  int64_t slo_met = 0;                 // completed requests meeting their SloSpec
  int64_t slo_total = 0;               // requests with at least one SLO bound set
  double goodput_tps = 0.0;            // decoded tokens of SLO-meeting requests / makespan
};

// q in [0, 1]; linear interpolation between the two closest ranks of a sorted copy, at
// rank q * (n - 1) (empty input returns 0). Exposed for benches.
double Percentile(std::vector<double> values, double q);

class ServingEngine {
 public:
  // Streams every decoded token: the request it belongs to, the token id, and the batcher
  // clock at which it became available.
  using TokenCallback = std::function<void(const Request&, int token, double time_s)>;

  explicit ServingEngine(hserve::ContinuousBatcher& batcher) : batcher_(batcher) {}

  void set_token_callback(TokenCallback cb) { on_token_ = std::move(cb); }

  // Runs the trace to completion (resets the batcher first). Request ids must be unique and
  // each session's turn_index values contiguous from 0. On a poisoned run (e.g. a KV budget
  // that cannot admit), EngineSummary::schedule.error is set and the per-request stats
  // cover whatever completed.
  EngineSummary Run(const std::vector<Request>& requests);

 private:
  struct SessionState {
    int last_job_id = -1;  // completed turn whose KV is retained
    int kv_len = 0;        // that turn's final KV length
  };

  // Builds the ServeJob for `req` (forking from the session's retained turn when
  // turn_index > 0) and submits it.
  void SubmitRequest(const Request& req, EngineSummary& summary);
  void ProcessEvents(const hserve::StepEvents& ev, EngineSummary& summary);

  hserve::ContinuousBatcher& batcher_;
  TokenCallback on_token_;

  // --- per-run state ---
  std::vector<Request> trace_;
  std::map<int, int> by_id_;                   // request id -> trace_ index
  std::map<int, int> next_turn_;               // request id -> trace_ index of its successor
  std::map<int, SessionState> sessions_;       // session id -> retained-KV state
  std::set<std::pair<double, int>> arrivals_;  // (absolute arrival, trace_ index)
  obs::Histogram* ttft_hist_ = nullptr;
  obs::Histogram* tpot_hist_ = nullptr;
};

}  // namespace hfront

#endif  // SRC_FRONTEND_SERVING_ENGINE_H_
