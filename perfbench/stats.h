/// \file
/// Statistics helpers of the benchmark: nearest-rank percentiles with the ten-samples-beyond
/// tail rule, geometric means, the max-SLO-rate selection and failure accounting. Header
/// only so the unit tests link nothing but this file.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A multiset of samples kept as value -> multiplicity, so millions of identical simulated
/// gaps (the analytic path prices a step per (batch, context bucket)) cost one map entry.
class Distribution {
 public:
  void Add(double v, int64_t weight = 1) {
    if (weight > 0) {
      counts_[v] += weight;
      n_ += weight;
    }
  }
  void Merge(const Distribution& o) {
    for (const auto& [v, w] : o.counts_) {
      Add(v, w);
    }
  }
  int64_t count() const { return n_; }
  /// Nearest rank: the smallest sample v with at least ceil(q * n) samples <= v. q in
  /// (0, 1]; an empty distribution returns 0.
  double Percentile(double q) const {
    if (n_ == 0) {
      return 0.0;
    }
    const int64_t rank =
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n_))));
    int64_t seen = 0;
    for (const auto& [v, w] : counts_) {
      seen += w;
      if (seen >= rank) {
        return v;
      }
    }
    return counts_.rbegin()->first;
  }
  /// The percentile actually reported for a requested tail `q`: the highest one, at most
  /// q, that leaves at least ten samples beyond it (n - ceil(p * n) >= 10), never below
  /// the median.
  double TailQuantile(double q) const { return TailQuantileFor(q, n_); }
  static double TailQuantileFor(double q, int64_t n) {
    if (n <= 0) {
      return 0.5;
    }
    const double limit = static_cast<double>(n - 10) / static_cast<double>(n);
    return std::max(0.5, std::min(q, limit));
  }
  double Tail(double q) const { return Percentile(TailQuantile(q)); }

 private:
  std::map<double, int64_t> counts_;
  int64_t n_ = 0;
};

inline double Percentile(const std::vector<double>& values, double q) {
  Distribution d;
  for (const double v : values) {
    d.Add(v);
  }
  return d.Percentile(q);
}

/// Geometric mean of strictly positive values; 0 for an empty input or any value <= 0,
/// which a caller reports as a failed operation instead of a number.
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) {
      return 0.0;
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Arithmetic mean; 0 for an empty input.
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// One fixed arrival rate of the open loop.
struct RateLevel {
  double rate_hz = 0.0;
  int64_t slo_total = 0;     // SLO-bound requests sent
  int64_t slo_met = 0;       // of those, completed within both limits
  double backlog_mid = 0.0;   // batch-class backlog around the middle arrival
  double backlog_last = 0.0;  // ... and around the last arrival
  double slack = 0.0;         // growth tolerated as noise (one batch of in-flight requests)
  // The most a sustained rate may hold around the last arrival. A rate past the knee can
  // fill its backlog before the middle arrival and then hold it, which the growth test
  // alone does not see.
  double cap = std::numeric_limits<double>::infinity();
};

/// A rate sustains the SLO when at least 99% of its SLO-bound requests meet both limits and
/// the batch-class backlog did not grow, beyond the slack, from the middle to the last
/// arrival, nor end above the cap.
inline bool SustainsSlo(const RateLevel& l) {
  return l.slo_total > 0 &&
         static_cast<double>(l.slo_met) >= 0.99 * static_cast<double>(l.slo_total) &&
         l.backlog_last <= l.backlog_mid + l.slack && l.backlog_last <= l.cap;
}

/// The highest rate that sustains the SLO; 0 when none does.
inline double MaxSloRate(const std::vector<RateLevel>& levels) {
  double best = 0.0;
  for (const RateLevel& l : levels) {
    if (SustainsSlo(l)) {
      best = std::max(best, l.rate_hz);
    }
  }
  return best;
}

/// Requests in the system at time t: arrived at or before t, not done by t.
inline int64_t Backlog(const std::vector<double>& arrival_s, const std::vector<double>& done_s,
                       double t) {
  int64_t n = 0;
  for (size_t i = 0; i < arrival_s.size(); ++i) {
    if (arrival_s[i] <= t && !(done_s[i] >= 0.0 && done_s[i] <= t)) {
      ++n;
    }
  }
  return n;
}

/// Mean backlog sampled at the times [from, to) of `at` — smoother than one instant, whose
/// count at light load swings by more than a batch from seed to seed.
inline double MeanBacklog(const std::vector<double>& arrival_s, const std::vector<double>& done_s,
                          const std::vector<double>& at, size_t from, size_t to) {
  double sum = 0.0;
  for (size_t i = from; i < to; ++i) {
    sum += static_cast<double>(Backlog(arrival_s, done_s, at[i]));
  }
  return to > from ? sum / static_cast<double>(to - from) : 0.0;
}

/// Operations attempted and failed, with the first few reasons kept for the report.
class FailureTally {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& reason) {
    ++failed_;
    if (reasons_.size() < 8) {
      reasons_.push_back(reason);
    }
  }
  /// Records one attempted operation that failed unless `ok`.
  void Check(bool ok, const std::string& reason) {
    Attempt();
    if (!ok) {
      Fail(reason);
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool ok() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// FNV-1a over a token stream (the same hash the serving frontend uses for its requests).
inline uint64_t TokenChecksum(const std::vector<int>& tokens) {
  uint64_t h = 14695981039346656037ull;
  for (const int t : tokens) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(t));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
