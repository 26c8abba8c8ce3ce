/// \file
/// The benchmark's forwarding ExecutionBackend. Every virtual forwards to the wrapped
/// backend unchanged; around each call it records a span ("backend.<call>") when a tracer
/// is set, counts Step calls, and, when given the batcher's clock, stamps each row's
/// committed tokens with the simulated time its step ended.
///
/// Token stamping is exact only in batch mode (ContinuousBatcher::Run): there the clock
/// moves only by admission prefill (charged after AdmitSlot returns) and by steps, so the
/// clock read at the entry of the next mutating call, or by Flush() once Run returns, is
/// the end of the previous step. Live callers (the serving frontend) take token times from
/// its token callback instead.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

class ProbeBackend final : public hserve::ExecutionBackend {
 public:
  struct JobTimes {
    double first_s = -1.0;  // end of the step that produced the first token
    double last_s = -1.0;   // ... and the last
    int tokens = 0;
  };

  ProbeBackend(hserve::ExecutionBackend& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  /// Starts stamping tokens with `batcher`'s clock (batch mode only, see the file comment).
  void WatchClock(const hserve::ContinuousBatcher* batcher) { clock_ = batcher; }
  /// Stamps the tokens of the last step; call after ContinuousBatcher::Run returns.
  void Flush() { Stamp(); }
  /// Per job id (ids are dense from 0 in the streams the TTS methods emit).
  const std::vector<JobTimes>& job_times() const { return times_; }
  /// Gaps between consecutive tokens of one job.
  const Distribution& gaps() const { return gaps_; }
  void ClearObservations() {
    times_.clear();
    gaps_ = Distribution();
  }
  int64_t step_calls() const { return step_calls_; }

  const char* name() const override {
    Span s(tracer_, "backend.name");
    return inner_.name();
  }
  double AdmitSlot(int slot, const hserve::ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override {
    Stamp();
    SetSlot(slot, job.id);
    Span s(tracer_, "backend.AdmitSlot", job.id);
    return inner_.AdmitSlot(slot, job, context_tokens, charged_prefill_tokens);
  }
  void ReleaseSlot(int slot) override {
    Stamp();
    Span s(tracer_, "backend.ReleaseSlot", SlotJob(slot));
    SetSlot(slot, -1);
    inner_.ReleaseSlot(slot);
  }
  hserve::StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override {
    Stamp();
    ++step_calls_;
    hserve::StepOutcome out;
    {
      Span s(tracer_, "backend.Step");
      out = inner_.Step(slots, contexts);
    }
    Pend(slots, out);
    return out;
  }
  hserve::StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                                      std::span<const int> gammas) override {
    Stamp();
    ++step_calls_;
    hserve::StepOutcome out;
    {
      Span s(tracer_, "backend.SpeculativeStep");
      out = inner_.SpeculativeStep(slots, contexts, gammas);
    }
    Pend(slots, out);
    return out;
  }
  int spec_gamma() const override {
    Span s(tracer_, "backend.spec_gamma");
    return inner_.spec_gamma();
  }
  void RetainKv(int slot, int job_id) override {
    Stamp();
    Span s(tracer_, "backend.RetainKv", job_id);
    inner_.RetainKv(slot, job_id);
  }
  void DropRetained(int job_id) override {
    Stamp();
    Span s(tracer_, "backend.DropRetained", job_id);
    inner_.DropRetained(job_id);
  }
  void PauseSlot(int slot, int job_id) override {
    Stamp();
    SetSlot(slot, -1);
    Span s(tracer_, "backend.PauseSlot", job_id);
    inner_.PauseSlot(slot, job_id);
  }
  void ResumeSlot(int slot, int job_id, int context_tokens) override {
    Stamp();
    SetSlot(slot, job_id);
    Span s(tracer_, "backend.ResumeSlot", job_id);
    inner_.ResumeSlot(slot, job_id, context_tokens);
  }
  bool CanResume(int job_id) override {
    Stamp();
    Span s(tracer_, "backend.CanResume", job_id);
    return inner_.CanResume(job_id);
  }
  void ReleaseGroup(int prompt_group) override {
    Stamp();
    Span s(tracer_, "backend.ReleaseGroup", prompt_group);
    inner_.ReleaseGroup(prompt_group);
  }
  bool CanAdmit(const hserve::ServeJob& job, int context_tokens) override {
    Stamp();
    Span s(tracer_, "backend.CanAdmit", job.id);
    return inner_.CanAdmit(job, context_tokens);
  }
  int max_context() const override {
    Span s(tracer_, "backend.max_context");
    return inner_.max_context();
  }
  hkv::KvStats kv_stats() const override {
    Span s(tracer_, "backend.kv_stats");
    return inner_.kv_stats();
  }
  hquant::KvDtype kv_dtype() const override {
    Span s(tracer_, "backend.kv_dtype");
    return inner_.kv_dtype();
  }
  void ExportMetrics(obs::Registry& registry) const override {
    Span s(tracer_, "backend.ExportMetrics");
    inner_.ExportMetrics(registry);
  }

 private:
  int SlotJob(int slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < slot_job_.size()
               ? slot_job_[static_cast<size_t>(slot)]
               : -1;
  }
  void SetSlot(int slot, int job_id) {
    if (slot < 0) {
      return;
    }
    if (static_cast<size_t>(slot) >= slot_job_.size()) {
      slot_job_.resize(static_cast<size_t>(slot) + 1, -1);
    }
    slot_job_[static_cast<size_t>(slot)] = job_id;
  }
  // Remembers which jobs the step just priced committed tokens for.
  void Pend(std::span<const int> slots, const hserve::StepOutcome& out) {
    if (clock_ == nullptr) {
      return;
    }
    pending_.clear();
    for (size_t i = 0; i < slots.size(); ++i) {
      const int committed = out.row_token_counts.empty() ? 1 : out.row_token_counts[i];
      pending_.emplace_back(SlotJob(slots[i]), committed);
    }
  }
  // Stamps the pending rows with the current clock: the end of the step that produced them.
  // Rows of one step mostly share their gap, so equal neighbours are added as one weight.
  void Stamp() {
    if (clock_ == nullptr || pending_.empty()) {
      return;
    }
    const double t = clock_->now_s();
    double run_gap = -1.0;
    int64_t run_n = 0;
    for (const auto& [job, committed] : pending_) {
      if (job < 0) {
        continue;
      }
      if (static_cast<size_t>(job) >= times_.size()) {
        times_.resize(static_cast<size_t>(job) + 1);
      }
      JobTimes& jt = times_[static_cast<size_t>(job)];
      for (int k = 0; k < committed; ++k) {
        if (jt.tokens > 0) {
          const double gap = t - jt.last_s;
          if (gap != run_gap) {
            gaps_.Add(run_gap, run_n);
            run_gap = gap;
            run_n = 0;
          }
          ++run_n;
        } else {
          jt.first_s = t;
        }
        jt.last_s = t;
        ++jt.tokens;
      }
    }
    gaps_.Add(run_gap, run_n);
    pending_.clear();
  }

  hserve::ExecutionBackend& inner_;
  Tracer* tracer_;
  const hserve::ContinuousBatcher* clock_ = nullptr;
  int64_t step_calls_ = 0;
  std::vector<int> slot_job_;
  std::vector<std::pair<int, int>> pending_;  // (job id, committed tokens) of the last step
  std::vector<JobTimes> times_;
  Distribution gaps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
