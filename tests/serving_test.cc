#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "src/tts/capability_model.h"
#include "src/tts/reward_model.h"
#include "src/tts/task.h"
#include "src/tts/tts.h"

namespace hserve {
namespace {

// Unit-cost test double: every decode step takes 1 ms, every charged prefill token 1 us.
// Records the slot sets so scheduling policy (reclamation, barriers, batch bound) can be
// asserted independent of any engine's pricing.
class RecordingBackend : public ExecutionBackend {
 public:
  const char* name() const override { return "recording"; }

  double AdmitSlot(int slot, const ServeJob& job, int /*context_tokens*/,
                   int charged_prefill_tokens) override {
    admitted_jobs.push_back(job.id);
    admitted_slots.push_back(slot);
    return charged_prefill_tokens * 1e-6;
  }

  void ReleaseSlot(int slot) override { released.push_back(slot); }

  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override {
    step_slots.emplace_back(slots.begin(), slots.end());
    step_contexts.emplace_back(contexts.begin(), contexts.end());
    StepOutcome out;
    out.cost.total_s = 1e-3;
    out.watts = 2.0;
    return out;
  }

  std::vector<int> admitted_jobs;
  std::vector<int> admitted_slots;
  std::vector<int> released;
  std::vector<std::vector<int>> step_slots;
  std::vector<std::vector<int>> step_contexts;
};

ServeJob Job(int id, int decode, int group = -1, int prompt = 0, int context = 0,
             int barrier = 0) {
  ServeJob j;
  j.id = id;
  j.prompt_group = group;
  j.prompt_tokens = prompt;
  j.context_tokens = context;
  j.decode_tokens = decode;
  j.barrier = barrier;
  return j;
}

TEST(ContinuousBatcherTest, EmptyJobsYieldZeroedResult) {
  RecordingBackend backend;
  ServeOptions so;
  const ScheduleResult r = ContinuousBatcher(backend, so).Run({});
  EXPECT_EQ(r.steps, 0);
  EXPECT_EQ(r.decoded_tokens, 0);
  EXPECT_EQ(r.makespan_s, 0.0);
  EXPECT_EQ(r.tokens_per_second, 0.0);
  EXPECT_EQ(r.avg_active_batch, 0.0);
  EXPECT_EQ(r.slot_utilization, 0.0);
  EXPECT_FALSE(std::isnan(r.tokens_per_second));
  EXPECT_FALSE(std::isnan(r.slot_utilization));
}

TEST(ContinuousBatcherTest, ActiveBatchNeverExceedsMaxBatch) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  std::vector<ServeJob> jobs;
  hexllm::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(Job(i, 1 + static_cast<int>(rng.NextBounded(9))));
  }
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_EQ(static_cast<int>(r.completions.size()), 20);
  for (const auto& slots : backend.step_slots) {
    EXPECT_LE(static_cast<int>(slots.size()), 4);
    EXPECT_GE(static_cast<int>(slots.size()), 1);
  }
  // Everything decoded, nothing double-counted.
  int64_t want = 0;
  for (const auto& j : jobs) {
    want += j.decode_tokens;
  }
  EXPECT_EQ(r.decoded_tokens, want);
}

TEST(ContinuousBatcherTest, FreedSlotIsReusedOnTheVeryNextStep) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  // Job 0 finishes after one step; job 4 is queued behind the full batch and must take
  // job 0's slot on the immediately following step.
  const std::vector<ServeJob> jobs = {Job(0, 1), Job(1, 5), Job(2, 5), Job(3, 5),
                                      Job(4, 2)};
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  ASSERT_EQ(r.admissions.size(), 5u);
  const int freed_slot = r.completions.front().slot;
  EXPECT_EQ(r.completions.front().job_id, 0);
  EXPECT_EQ(r.completions.front().step, 0);
  // Job 4's admission lands on step 1 and reuses job 0's slot.
  const Admission& a4 = r.admissions.back();
  EXPECT_EQ(a4.job_id, 4);
  EXPECT_EQ(a4.step, 1);
  EXPECT_EQ(a4.slot, freed_slot);
  ASSERT_GE(backend.step_slots.size(), 2u);
  EXPECT_NE(std::find(backend.step_slots[1].begin(), backend.step_slots[1].end(),
                      freed_slot),
            backend.step_slots[1].end());
  // The reused slot's context restarted from zero, not from job 0's leftovers.
  const size_t idx = static_cast<size_t>(
      std::find(backend.step_slots[1].begin(), backend.step_slots[1].end(), freed_slot) -
      backend.step_slots[1].begin());
  EXPECT_EQ(backend.step_contexts[1][idx], 0);
}

TEST(ContinuousBatcherTest, StaticWavesHoldSlotsUntilWaveDrains) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 2;
  so.policy = SchedulePolicy::kStaticWaves;
  const std::vector<ServeJob> jobs = {Job(0, 1), Job(1, 4), Job(2, 1)};
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  // Wave 1 runs 4 steps (padding job 0's row for 3 of them); wave 2 runs 1 step.
  EXPECT_EQ(r.steps, 5);
  EXPECT_EQ(r.decoded_tokens, 6);
  EXPECT_LT(r.slot_utilization, 1.0);
  // Job 2 admits only after the first wave fully drained.
  EXPECT_EQ(r.admissions.back().job_id, 2);
  EXPECT_EQ(r.admissions.back().step, 4);
}

TEST(ContinuousBatcherTest, BarriersGateAdmissionWaves) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 8;
  // One group, two expansion rounds: round 1 must not admit until BOTH round-0 jobs done.
  const std::vector<ServeJob> jobs = {
      Job(0, 3, /*group=*/5, /*prompt=*/0, /*context=*/0, /*barrier=*/0),
      Job(1, 1, 5, 0, 0, 0),
      Job(2, 2, 5, 0, 3, 1),
      Job(3, 2, 5, 0, 3, 1),
  };
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  std::map<int, int64_t> admit_step;
  for (const auto& a : r.admissions) {
    admit_step[a.job_id] = a.step;
  }
  std::map<int, int64_t> complete_step;
  for (const auto& c : r.completions) {
    complete_step[c.job_id] = c.step;
  }
  // Round 0's slowest job finishes on step 2; round 1 admits on step 3, not before.
  EXPECT_EQ(complete_step[0], 2);
  EXPECT_GT(admit_step[2], complete_step[0]);
  EXPECT_GT(admit_step[3], complete_step[0]);
  EXPECT_EQ(r.decoded_tokens, 8);
}

TEST(ContinuousBatcherTest, PrefillChargedOncePerPromptGroup) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  // Jobs 0-2 share a prompt group (one charge); job 3 pays its own prompt.
  const std::vector<ServeJob> jobs = {
      Job(0, 2, /*group=*/1, /*prompt=*/128),
      Job(1, 2, 1, 128),
      Job(2, 2, 1, 128),
      Job(3, 2, -1, 64),
  };
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_EQ(r.prefilled_tokens, 128 + 64);
  EXPECT_NEAR(r.prefill_s, (128 + 64) * 1e-6, 1e-12);
  EXPECT_NEAR(r.makespan_s, r.prefill_s + r.decode_s, 1e-12);
  // Ungrouped jobs each pay: doubling the lone job's copies doubles the charge.
  RecordingBackend backend2;
  const std::vector<ServeJob> solo = {Job(0, 2, -1, 64), Job(1, 2, -1, 64)};
  const ScheduleResult r2 = ContinuousBatcher(backend2, so).Run(solo);
  EXPECT_EQ(r2.prefilled_tokens, 128);
}

class AnalyticServingTest : public ::testing::Test {
 protected:
  AnalyticServingTest() {
    options_.model = &hllm::Qwen25_1_5B();
    options_.device = &hexsim::OnePlus12();
    engine_ = std::make_unique<hrt::Engine>(options_);
  }
  hrt::EngineOptions options_;
  std::unique_ptr<hrt::Engine> engine_;
};

TEST_F(AnalyticServingTest, StepPricingIsMonotoneInPerSlotContext) {
  AnalyticBackend backend(*engine_);
  const double t64 = backend.BucketedCost(8, 64).total_s;
  const double t1024 = backend.BucketedCost(8, 1024).total_s;
  const double t4096 = backend.BucketedCost(8, 4096).total_s;
  EXPECT_GT(t1024, t64);
  EXPECT_GT(t4096, t1024);
}

TEST_F(AnalyticServingTest, GrowingContextRunsCostAtLeastFixedZeroContext) {
  // The fidelity fix: pricing follows each slot's actual growing KV length, so a run whose
  // slots start deep in context can never be cheaper than one starting from zero.
  std::vector<ServeJob> fresh;
  std::vector<ServeJob> deep;
  for (int i = 0; i < 12; ++i) {
    fresh.push_back(Job(i, 200));
    deep.push_back(Job(i, 200, -1, 0, /*context=*/2048));
  }
  ServeOptions so;
  so.max_batch = 8;
  AnalyticBackend b1(*engine_);
  AnalyticBackend b2(*engine_);
  const ScheduleResult rf = ContinuousBatcher(b1, so).Run(fresh);
  const ScheduleResult rd = ContinuousBatcher(b2, so).Run(deep);
  EXPECT_EQ(rf.steps, rd.steps);
  EXPECT_GT(rd.makespan_s, rf.makespan_s);
  EXPECT_GT(rd.avg_context, rf.avg_context + 2000);
  // Both integrate energy step by step.
  EXPECT_GT(rd.energy_j, rf.energy_j);
  EXPECT_GT(rf.energy_j, 0.0);
}

TEST_F(AnalyticServingTest, ChunkedPrefillAdmissionExtendsMakespan) {
  std::vector<ServeJob> no_prompt;
  std::vector<ServeJob> with_prompt;
  for (int i = 0; i < 8; ++i) {
    no_prompt.push_back(Job(i, 100));
    with_prompt.push_back(Job(i, 100, /*group=*/-1, /*prompt=*/256));
  }
  ServeOptions so;
  so.max_batch = 8;
  AnalyticBackend b1(*engine_);
  AnalyticBackend b2(*engine_);
  const ScheduleResult r0 = ContinuousBatcher(b1, so).Run(no_prompt);
  const ScheduleResult rp = ContinuousBatcher(b2, so).Run(with_prompt);
  EXPECT_EQ(r0.prefill_s, 0.0);
  EXPECT_GT(rp.prefill_s, 0.0);
  EXPECT_EQ(rp.prefilled_tokens, 8 * 256);
  // Prefill cost plus the deeper starting context both push the makespan up.
  EXPECT_GT(rp.makespan_s, r0.makespan_s + rp.prefill_s * 0.99);
}

TEST_F(AnalyticServingTest, TraceRecordsStepsAndAdmissions) {
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(Job(i, 20, /*group=*/0, /*prompt=*/128));
  }
  ServeOptions so;
  so.max_batch = 4;
  so.record_trace = true;
  so.max_trace_steps = 8;
  AnalyticBackend backend(*engine_);
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_FALSE(r.trace.events().empty());
  const std::string json = r.trace.ToChromeJson();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("lm_head"), std::string::npos);
  // The cap limits traced steps; the run itself is unaffected.
  EXPECT_EQ(r.steps, 20);
  std::set<std::string> lanes;
  for (const auto& e : r.trace.events()) {
    lanes.insert(e.lane);
  }
  EXPECT_TRUE(lanes.count("ADMIT"));
  EXPECT_TRUE(lanes.count("CPU"));
}

// Resuming needs a parked job whether or not a KV budget gates admission.
TEST_F(AnalyticServingTest, ResumeOfAJobNeverPausedAbortsEvenWithoutABudget) {
  AnalyticBackend backend(*engine_);
  EXPECT_DEATH(backend.CanResume(7), "never paused");
}

// --- the acceptance-criteria centerpiece: both backends, one batcher code path ---

class BackendParityTest : public ::testing::Test {
 protected:
  BackendParityTest()
      : config_(hllm::ToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        dev_(hexsim::OnePlus12()) {
    toy_options_.model = &config_;
    toy_options_.device = &hexsim::OnePlus12();
    toy_engine_ = std::make_unique<hrt::Engine>(toy_options_);
  }

  hllm::ModelConfig config_;
  hllm::ModelWeights weights_;
  hexsim::NpuDevice dev_;
  hrt::EngineOptions toy_options_;
  std::unique_ptr<hrt::Engine> toy_engine_;
};

// Shared KV budget in blocks (0 = none: analytic ungated, functional pool sized for the
// batch), KV dtype, whether priority preemption is on, and the Best-of-N group's prompt
// length (the beam group's prompt is 4 tokens shorter).
using ParityParams = std::tuple<int, hquant::KvDtype, bool, int>;
constexpr int kParityPrompt = 28;

class BackendParityParamTest : public BackendParityTest,
                               public ::testing::WithParamInterface<ParityParams> {};

TEST_P(BackendParityParamTest, BackendsScheduleIdenticalJobStreamsIdentically) {
  // The same job stream through the same ContinuousBatcher code path, once priced
  // analytically and once actually decoded on the functional toy model: scheduling
  // decisions (admissions, deferrals, preemptions, completions, step counts) and KV block
  // statistics must agree exactly; only the clock differs. The stream mixes every way a
  // job maps retained KV: a Best-of-N group sharing one prompt anchor, a two-round beam
  // group whose second round forks the first, a high-priority group whose second round
  // becomes ready mid-run, and low-priority singletons it may preempt.
  const auto [budget_blocks, dtype, preempt, prompt] = GetParam();
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(Job(i, 6 + 5 * i, /*group=*/0, prompt));
  }
  for (int i = 4; i < 6; ++i) {
    jobs.push_back(Job(i, 10 + 4 * (i - 4), /*group=*/1, prompt - 4));
  }
  for (int i = 6; i < 10; ++i) {
    const ServeJob& parent = jobs[static_cast<size_t>(4 + i % 2)];
    ServeJob child = Job(i, 8 + 2 * (i - 6), /*group=*/1, prompt - 4,
                         /*context=*/parent.context_tokens + parent.decode_tokens,
                         /*barrier=*/1);
    child.parent_job = parent.id;
    jobs.push_back(child);
  }
  jobs.push_back(Job(10, 12, /*group=*/2, /*prompt=*/20));
  for (int i = 11; i < 13; ++i) {
    jobs.push_back(Job(i, 8, /*group=*/2, /*prompt=*/20, /*context=*/12, /*barrier=*/1));
  }
  for (int i = 13; i < 17; ++i) {
    jobs.push_back(Job(i, 24 + 8 * (i - 13), /*group=*/-1, /*prompt=*/4 + 2 * (i - 13)));
  }
  for (ServeJob& j : jobs) {
    j.priority = j.prompt_group == 2 ? 2 : 0;
  }
  ServeOptions so;
  so.max_batch = 3;
  so.record_steps = true;
  so.enable_preemption = preempt;

  AnalyticBackend::Options bo;
  bo.kv_dtype = dtype;
  bo.kv_budget_bytes =
      budget_blocks * AnalyticBackend(*toy_engine_, bo).kv_stats().bytes_per_block;
  AnalyticBackend analytic(*toy_engine_, bo);
  const ScheduleResult ra = ContinuousBatcher(analytic, so).Run(jobs);

  FunctionalBackend functional(dev_, weights_, so.max_batch, /*max_context=*/256,
                               budget_blocks, dtype);
  const ScheduleResult rf = ContinuousBatcher(functional, so).Run(jobs);

  ASSERT_TRUE(ra.error.empty()) << ra.error;
  ASSERT_TRUE(rf.error.empty()) << rf.error;
  EXPECT_EQ(ra.steps, rf.steps);
  EXPECT_EQ(ra.decoded_tokens, rf.decoded_tokens);
  EXPECT_EQ(ra.prefilled_tokens, rf.prefilled_tokens);
  EXPECT_EQ(ra.admission_deferrals, rf.admission_deferrals);
  EXPECT_EQ(ra.preemptions, rf.preemptions);
  EXPECT_EQ(ra.resumes, rf.resumes);
  EXPECT_EQ(ra.forked_admissions, rf.forked_admissions);
  EXPECT_EQ(ra.step_active, rf.step_active);
  EXPECT_EQ(ra.step_occupied, rf.step_occupied);
  EXPECT_EQ(ra.kv.peak_physical_blocks, rf.kv.peak_physical_blocks);
  EXPECT_EQ(ra.kv.peak_logical_blocks, rf.kv.peak_logical_blocks);
  EXPECT_EQ(ra.kv.cow_splits, rf.kv.cow_splits);
  ASSERT_EQ(ra.admissions.size(), rf.admissions.size());
  for (size_t i = 0; i < ra.admissions.size(); ++i) {
    EXPECT_EQ(ra.admissions[i].job_id, rf.admissions[i].job_id) << i;
    EXPECT_EQ(ra.admissions[i].slot, rf.admissions[i].slot) << i;
    EXPECT_EQ(ra.admissions[i].step, rf.admissions[i].step) << i;
    EXPECT_EQ(ra.admissions[i].resumed, rf.admissions[i].resumed) << i;
  }
  ASSERT_EQ(ra.completions.size(), rf.completions.size());
  for (size_t i = 0; i < ra.completions.size(); ++i) {
    EXPECT_EQ(ra.completions[i].job_id, rf.completions[i].job_id) << i;
    EXPECT_EQ(ra.completions[i].slot, rf.completions[i].slot) << i;
    EXPECT_EQ(ra.completions[i].step, rf.completions[i].step) << i;
  }
  // The stream exercises what it is meant to: every fork maps its parent's stem, shared
  // tails split, tight budgets defer, and preemption pauses and resumes a singleton
  // whenever the high-priority round fits (it never does in 8 blocks).
  EXPECT_EQ(ra.forked_admissions, 4);
  EXPECT_GT(ra.kv.cow_splits, 0);
  EXPECT_EQ(ra.resumes, ra.preemptions);
  if (prompt != kParityPrompt) {
    EXPECT_GT(ra.preemptions, 0);
  } else {
    EXPECT_EQ(ra.admission_deferrals > 0, budget_blocks == 8 || budget_blocks == 10 ||
                                              (budget_blocks == 12 && preempt));
    EXPECT_EQ(ra.preemptions, preempt && budget_blocks != 8 ? 1 : 0);
  }
  // Both clocks advance; the analytic one prices the full-pipeline cost model.
  EXPECT_GT(ra.makespan_s, 0.0);
  EXPECT_GT(rf.makespan_s, 0.0);
  EXPECT_GT(ra.energy_j, 0.0);
  EXPECT_GT(rf.energy_j, 0.0);
  // Only the functional backend emits real tokens: one per decoded position.
  EXPECT_TRUE(ra.job_tokens.empty());
  ASSERT_EQ(rf.job_tokens.size(), jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(static_cast<int>(rf.job_tokens[j].size()), jobs[j].decode_tokens) << j;
    for (const int tok : rf.job_tokens[j]) {
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, config_.vocab);
    }
  }
}

std::string ParityName(const ::testing::TestParamInfo<ParityParams>& info) {
  const int budget = std::get<0>(info.param);
  const int prompt = std::get<3>(info.param);
  return (budget > 0 ? "Budget" + std::to_string(budget) : std::string("NoBudget")) + "_" +
         hquant::KvDtypeName(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_Preempt" : "_NoPreempt") +
         (prompt != kParityPrompt ? "_Prompt" + std::to_string(prompt) : std::string());
}

INSTANTIATE_TEST_SUITE_P(
    BudgetDtypePreemption, BackendParityParamTest,
    ::testing::Combine(::testing::Values(0, 8, 10, 12, 24),
                       ::testing::Values(hquant::KvDtype::kF16, hquant::KvDtype::kInt8),
                       ::testing::Bool(), ::testing::Values(kParityPrompt)),
    ParityName);

// A preempted singleton's resident pages leave the front job unable to fit even an empty
// batch; the batcher resumes the paused job instead of failing the run.
INSTANTIATE_TEST_SUITE_P(PausedPagesFillBudget, BackendParityParamTest,
                         ::testing::Values(ParityParams{8, hquant::KvDtype::kF16, true, 32}),
                         ParityName);

TEST_F(BackendParityTest, FunctionalDecodeIsDeterministicAcrossRuns) {
  const std::vector<ServeJob> jobs = {Job(0, 5, -1, 4), Job(1, 7, -1, 2), Job(2, 3)};
  ServeOptions so;
  so.max_batch = 2;
  std::vector<std::vector<std::vector<int>>> outs;
  for (int run = 0; run < 2; ++run) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend backend(dev, weights_, so.max_batch, 64);
    outs.push_back(ContinuousBatcher(backend, so).Run(jobs).job_tokens);
  }
  EXPECT_EQ(outs[0], outs[1]);
}

// A malformed HEXLLM_SPEC_GAMMA aborts naming the knob instead of silently keeping the
// configured draft length.
TEST(EnvKnobDeathTest, SpecGammaMustBeANonNegativeInteger) {
  for (const char* bad : {"four", "4.5", "-1"}) {
    EXPECT_DEATH(
        {
          setenv("HEXLLM_SPEC_GAMMA", bad, 1);
          SpecGammaFromEnv(4);
        },
        "HEXLLM_SPEC_GAMMA")
        << bad;
  }
}

// --- TTS methods served through the batcher ---

TEST(TtsServingTest, BestOfNJobStreamYieldsAccuracyMakespanAndTrace) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 20, 3);
  const htts::CapabilityModel cap;
  const double theta = cap.ThetaF16(hllm::Qwen25_1_5B(), htts::Dataset::kMath500);
  const htts::OutcomeRewardModel orm;
  hexllm::Rng rng(11);
  std::vector<ServeJob> jobs;
  const htts::MethodResult res = htts::RunBestOfN(tasks, theta, orm, 8, 2, rng, &jobs);
  // 2 trials x 20 tasks x 8 samples.
  ASSERT_EQ(jobs.size(), 320u);
  std::set<int> groups;
  for (const auto& j : jobs) {
    EXPECT_GE(j.decode_tokens, 16);
    EXPECT_LE(j.decode_tokens, 4 * 1024);
    EXPECT_GT(j.prompt_tokens, 0);
    groups.insert(j.prompt_group);
  }
  EXPECT_EQ(groups.size(), 40u);  // one prompt group per (trial, task)

  hrt::EngineOptions eo;
  eo.model = &hllm::Qwen25_1_5B();
  eo.device = &hexsim::OnePlus12();
  hrt::Engine engine(eo);
  AnalyticBackend backend(engine);
  ServeOptions so;
  so.max_batch = 8;
  so.record_trace = true;
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  // One run: accuracy from the method, latency/energy/trace from the batcher.
  EXPECT_GT(res.accuracy, 0.0);
  EXPECT_LT(res.accuracy, 1.0);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  int64_t want = 0;
  for (const auto& j : jobs) {
    want += j.decode_tokens;
  }
  EXPECT_EQ(r.decoded_tokens, want);
  // Shared prompts charged once per group.
  int64_t group_prompt = 0;
  std::set<int> seen;
  for (const auto& j : jobs) {
    if (seen.insert(j.prompt_group).second) {
      group_prompt += j.prompt_tokens;
    }
  }
  EXPECT_EQ(r.prefilled_tokens, group_prompt);
  EXPECT_NE(r.trace.ToChromeJson().find("traceEvents"), std::string::npos);
}

TEST(TtsServingTest, EmittingJobsDoesNotPerturbAccuracy) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 50, 4);
  const htts::OutcomeRewardModel orm;
  hexllm::Rng rng1(5);
  hexllm::Rng rng2(5);
  std::vector<ServeJob> jobs;
  const htts::MethodResult with_jobs = htts::RunBestOfN(tasks, 0.2, orm, 4, 3, rng1, &jobs);
  const htts::MethodResult without = htts::RunBestOfN(tasks, 0.2, orm, 4, 3, rng2);
  EXPECT_EQ(with_jobs.accuracy, without.accuracy);
  EXPECT_EQ(with_jobs.avg_total_tokens, without.avg_total_tokens);
  EXPECT_FALSE(jobs.empty());
}

TEST(TtsServingTest, BeamSearchRoundsBecomeBarrierWaves) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kGsm8k, 4, 9);
  const htts::ProcessRewardModel prm;
  hexllm::Rng rng(3);
  std::vector<ServeJob> jobs;
  htts::RunBeamSearch(tasks, 0.3, prm, 8, 4, 1, rng, &jobs);
  ASSERT_FALSE(jobs.empty());
  // Jobs arrive grouped per task; within a group, barriers cover 0..num_steps-1 with
  // width x expansion jobs per round and context advancing by the round's decode length.
  std::map<int, std::vector<const ServeJob*>> by_group;
  for (const auto& j : jobs) {
    by_group[j.prompt_group].push_back(&j);
  }
  EXPECT_EQ(by_group.size(), tasks.tasks.size());
  for (const auto& [group, gjobs] : by_group) {
    std::map<int, int> per_barrier;
    for (const auto* j : gjobs) {
      per_barrier[j->barrier] += 1;
      EXPECT_EQ(j->context_tokens, j->barrier * j->decode_tokens);
    }
    const int rounds = static_cast<int>(per_barrier.size());
    EXPECT_GE(rounds, 2);
    int count = -1;
    for (int b = 0; b < rounds; ++b) {
      ASSERT_TRUE(per_barrier.count(b)) << "missing round " << b;
      if (count < 0) {
        count = per_barrier[b];
      }
      EXPECT_EQ(per_barrier[b], count);  // same expansion width every round
    }
    EXPECT_EQ(count, 8);  // width x eff_expansion = budget
  }
  // Serve one group's stream: expansion waves must serialize (steps >= rounds x per-round
  // decode), unlike an unconstrained batch.
  hrt::EngineOptions eo;
  eo.model = &hllm::Qwen25_1_5B();
  eo.device = &hexsim::OnePlus12();
  hrt::Engine engine(eo);
  AnalyticBackend backend(engine);
  ServeOptions so;
  so.max_batch = 8;
  const auto& first_group = *by_group.begin()->second.front();
  std::vector<ServeJob> one_group;
  for (const auto& j : jobs) {
    if (j.prompt_group == first_group.prompt_group) {
      one_group.push_back(j);
    }
  }
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(one_group);
  std::map<int, int> per_barrier;
  for (const auto& j : one_group) {
    per_barrier[j.barrier] += 1;
  }
  const int rounds = static_cast<int>(per_barrier.size());
  const int per_round_decode = one_group.front().decode_tokens;
  EXPECT_GE(r.steps, static_cast<int64_t>(rounds) * per_round_decode);
}

// --- speculative decoding (docs/speculative_decoding.md) ---

// A draft smaller than ToyConfig along every axis, sharing the vocabulary (exact-match
// acceptance compares token ids, so draft and target must agree on the id space).
hllm::ModelConfig DraftToyConfig() {
  hllm::ModelConfig c = hllm::ToyConfig();
  c.name = "toy-draft";
  c.params_b = 0.004;
  c.hidden = 64;
  c.layers = 1;
  c.heads = 2;
  c.kv_heads = 2;
  c.head_dim = 32;
  c.ffn_hidden = 128;
  return c;
}

class SpeculativeServingTest : public ::testing::Test {
 protected:
  SpeculativeServingTest()
      : config_(hllm::ToyConfig()),
        draft_config_(DraftToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        draft_weights_(hllm::ModelWeights::Random(draft_config_, 7)) {}

  // Runs `jobs` through a fresh functional backend; gamma <= 0 builds a plain backend.
  ScheduleResult RunFunctional(const std::vector<ServeJob>& jobs, int max_batch, int gamma,
                               int max_context = 96) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    ServeOptions so;
    so.max_batch = max_batch;
    if (gamma <= 0) {
      FunctionalBackend backend(dev, weights_, max_batch, max_context);
      return ContinuousBatcher(backend, so).Run(jobs);
    }
    FunctionalBackend::SpecOptions spec;
    spec.draft = &draft_weights_;
    spec.gamma = gamma;
    FunctionalBackend backend(dev, weights_, max_batch, max_context, /*kv_pool_blocks=*/0,
                              hquant::KvDtype::kF16, hquant::kGroupSize, spec);
    return ContinuousBatcher(backend, so).Run(jobs);
  }

  static std::vector<ServeJob> SpecJobs(int n, int decode, int prompt, bool speculative) {
    std::vector<ServeJob> jobs;
    for (int i = 0; i < n; ++i) {
      ServeJob j = Job(i, decode, /*group=*/-1, prompt);
      j.speculative = speculative;
      jobs.push_back(j);
    }
    return jobs;
  }

  hllm::ModelConfig config_;
  hllm::ModelConfig draft_config_;
  hllm::ModelWeights weights_;
  hllm::ModelWeights draft_weights_;
};

TEST_F(SpeculativeServingTest, GreedySpeculativeMatchesPlainDecodeTokenForToken) {
  // The headline correctness gate: under greedy sampling the committed stream must be
  // BIT-IDENTICAL to plain decode — for any gamma and any lane count. Rejections only cost
  // time (rolled back through the paged-KV tail), never change tokens.
  for (const int max_batch : {1, 3}) {
    for (const int gamma : {1, 2, 4}) {
      const std::vector<ServeJob> jobs = SpecJobs(max_batch, 12, /*prompt=*/8, true);
      const ScheduleResult plain = RunFunctional(SpecJobs(max_batch, 12, 8, false),
                                                 max_batch, /*gamma=*/0);
      const ScheduleResult spec = RunFunctional(jobs, max_batch, gamma);
      ASSERT_TRUE(plain.error.empty()) << plain.error;
      ASSERT_TRUE(spec.error.empty()) << spec.error;
      EXPECT_EQ(spec.job_tokens, plain.job_tokens)
          << "greedy divergence at max_batch=" << max_batch << " gamma=" << gamma;
      EXPECT_EQ(spec.decoded_tokens, plain.decoded_tokens);
      // The cycle accounting is consistent and the run actually drafted.
      EXPECT_GT(spec.spec_cycles, 0);
      EXPECT_GT(spec.spec_proposed_tokens, 0);
      EXPECT_GE(spec.spec_proposed_tokens, spec.spec_accepted_tokens);
      // Accepted proposals remove charged steps (exactly one each in the single-lane
      // case; multi-lane runs end on the slowest lane's cycle count).
      EXPECT_LE(spec.steps, plain.steps);
      if (max_batch == 1) {
        EXPECT_EQ(spec.steps, plain.steps - spec.spec_accepted_tokens);
      }
    }
  }
}

TEST_F(SpeculativeServingTest, AnySamplerSpeculativeMatchesPlainDecodeTokenForToken) {
  // Losslessness holds for ANY sampler, not just greedy: every committed token is sampled
  // from the target's own logits under exact plain-decode conditioning, consuming the
  // per-slot Rng one draw per committed token in stream order.
  std::vector<ServeJob> plain_jobs = SpecJobs(2, 10, /*prompt=*/6, false);
  std::vector<ServeJob> spec_jobs = SpecJobs(2, 10, /*prompt=*/6, true);
  for (int i = 0; i < 2; ++i) {
    hllm::SamplerOptions s;
    s.temperature = 0.9f;
    s.top_k = 8;
    plain_jobs[static_cast<size_t>(i)].sampler = s;
    plain_jobs[static_cast<size_t>(i)].seed = 100 + static_cast<uint64_t>(i);
    spec_jobs[static_cast<size_t>(i)].sampler = s;
    spec_jobs[static_cast<size_t>(i)].seed = 100 + static_cast<uint64_t>(i);
  }
  const ScheduleResult plain = RunFunctional(plain_jobs, /*max_batch=*/2, /*gamma=*/0);
  const ScheduleResult spec = RunFunctional(spec_jobs, /*max_batch=*/2, /*gamma=*/3);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  EXPECT_EQ(spec.job_tokens, plain.job_tokens);
  EXPECT_GT(spec.spec_cycles, 0);
}

TEST_F(SpeculativeServingTest, RunGammaCapAndDisableControlTheCycle) {
  const std::vector<ServeJob> jobs = SpecJobs(1, 12, /*prompt=*/8, true);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  FunctionalBackend::SpecOptions spec;
  spec.draft = &draft_weights_;
  spec.gamma = 4;
  FunctionalBackend backend(dev, weights_, 1, 96, 0, hquant::KvDtype::kF16,
                            hquant::kGroupSize, spec);
  // spec_gamma = 0 disables drafting for the whole run even on a spec-capable backend...
  ServeOptions off;
  off.max_batch = 1;
  off.spec_gamma = 0;
  const ScheduleResult r_off = ContinuousBatcher(backend, off).Run(jobs);
  ASSERT_TRUE(r_off.error.empty()) << r_off.error;
  EXPECT_EQ(r_off.spec_cycles, 0);
  EXPECT_EQ(r_off.steps, 12);
  // ...and spec.* metrics stay out of the snapshot entirely (legacy byte-identity).
  bool found = false;
  r_off.metrics.CounterValue("spec.cycles", {}, &found);
  EXPECT_FALSE(found);

  // A positive spec_gamma caps the backend's configured draft length per cycle.
  ServeOptions capped;
  capped.max_batch = 1;
  capped.spec_gamma = 1;
  const ScheduleResult r_cap = ContinuousBatcher(backend, capped).Run(jobs);
  ASSERT_TRUE(r_cap.error.empty()) << r_cap.error;
  EXPECT_GT(r_cap.spec_cycles, 0);
  EXPECT_EQ(r_cap.spec_proposed_tokens, r_cap.spec_cycles);  // one proposal per cycle
  found = false;
  EXPECT_EQ(r_cap.metrics.CounterValue("spec.cycles", {}, &found), r_cap.spec_cycles);
  EXPECT_TRUE(found);
  EXPECT_GE(r_cap.metrics.CounterValue("spec.rollback_blocks"), 0);
}

TEST_F(SpeculativeServingTest, SpeculativeForkChildMatchesPlainForkedDecode) {
  // Rollback on a CoW-forked child: the child's verify appends split the shared tail and a
  // rejected suffix truncates the child's PRIVATE copy — the parent's retained stem and
  // the committed stream must both survive intact.
  const auto forked = [](bool speculative) {
    std::vector<ServeJob> jobs = {Job(0, 4, /*group=*/0, /*prompt=*/8, 0, /*barrier=*/0),
                                  Job(1, 8, 0, 8, /*context=*/4, /*barrier=*/1)};
    jobs[1].parent_job = 0;
    jobs[1].speculative = speculative;
    return jobs;
  };
  const ScheduleResult plain = RunFunctional(forked(false), /*max_batch=*/1, /*gamma=*/0);
  const ScheduleResult spec = RunFunctional(forked(true), /*max_batch=*/1, /*gamma=*/3);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  EXPECT_EQ(spec.job_tokens, plain.job_tokens);
  EXPECT_EQ(spec.forked_admissions, 1);
  EXPECT_GT(spec.spec_cycles, 0);
}

TEST_F(SpeculativeServingTest, PauseResumeOfSpeculativeJobIsBitIdentical) {
  // Preempting a drafting job drops its draft KV; resume re-primes the draft and the
  // committed stream continues bit-identically (the target-side snapshot carries sampler
  // state; draft conditioning only moves acceptance).
  const auto run = [&](bool pause) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend::SpecOptions spec;
    spec.draft = &draft_weights_;
    spec.gamma = 2;
    FunctionalBackend backend(dev, weights_, 1, 96, 0, hquant::KvDtype::kF16,
                              hquant::kGroupSize, spec);
    ServeOptions so;
    so.max_batch = 1;
    ContinuousBatcher batcher(backend, so);
    ServeJob j = Job(0, 14, /*group=*/-1, /*prompt=*/6);
    j.speculative = true;
    std::string err;
    EXPECT_TRUE(batcher.Submit(j, &err)) << err;
    std::vector<int> tokens;
    const auto drain = [&](int steps) {
      for (int s = 0; s < steps && batcher.HasWork(); ++s) {
        const StepEvents ev = batcher.Step();
        for (const auto& t : ev.tokens) {
          tokens.push_back(t.token);
        }
      }
    };
    drain(3);
    if (pause) {
      EXPECT_TRUE(batcher.PauseJob(0, /*requeue=*/true));
      EXPECT_EQ(batcher.job_state(0), JobState::kPaused);
    }
    while (batcher.HasWork()) {
      drain(1);
    }
    const ScheduleResult r = batcher.Finish();
    EXPECT_TRUE(r.error.empty()) << r.error;
    return tokens;
  };
  const std::vector<int> uninterrupted = run(false);
  const std::vector<int> preempted = run(true);
  EXPECT_EQ(preempted, uninterrupted);
  EXPECT_EQ(uninterrupted.size(), 14u);
}

TEST_F(SpeculativeServingTest, AnalyticSpeculativeSpeedsUpDecodeAndExportsMetrics) {
  // The analytic twin: costs from the calibrated capability model, acceptance from the
  // configured geometric process. At the acceptance-favorable default preset (big target,
  // small draft) speculation must clearly beat plain decode.
  hrt::EngineOptions topt;
  topt.model = &hllm::Qwen25_7B();
  topt.device = &hexsim::OnePlus12();
  hrt::Engine target(topt);
  hrt::EngineOptions dopt;
  dopt.model = &hllm::Qwen25_0_5B();
  dopt.device = &hexsim::OnePlus12();
  hrt::Engine draft(dopt);

  std::vector<ServeJob> plain_jobs;
  std::vector<ServeJob> spec_jobs;
  for (int i = 0; i < 8; ++i) {
    plain_jobs.push_back(Job(i, 96, /*group=*/-1, /*prompt=*/64));
    ServeJob j = Job(i, 96, /*group=*/-1, /*prompt=*/64);
    j.speculative = true;
    spec_jobs.push_back(j);
  }
  ServeOptions so;
  so.max_batch = 4;

  AnalyticBackend b_plain(target);
  const ScheduleResult r_plain = ContinuousBatcher(b_plain, so).Run(plain_jobs);
  ASSERT_TRUE(r_plain.error.empty()) << r_plain.error;

  AnalyticBackend::Options opts;
  opts.draft_engine = &draft;
  opts.spec_gamma = 4;
  opts.spec_acceptance = 0.8;
  AnalyticBackend b_spec(target, opts);
  EXPECT_EQ(b_spec.spec_gamma(), 4);
  const ScheduleResult r_spec = ContinuousBatcher(b_spec, so).Run(spec_jobs);
  ASSERT_TRUE(r_spec.error.empty()) << r_spec.error;

  EXPECT_EQ(r_spec.decoded_tokens, r_plain.decoded_tokens);
  EXPECT_GT(r_spec.spec_cycles, 0);
  EXPECT_LT(r_spec.steps, r_plain.steps);
  EXPECT_GT(r_spec.tokens_per_second, 1.5 * r_plain.tokens_per_second);
  const double acc = r_spec.metrics.GaugeValue("spec.acceptance_rate");
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
  EXPECT_EQ(r_spec.metrics.CounterValue("spec.proposed_tokens"),
            r_spec.spec_proposed_tokens);
  EXPECT_EQ(r_spec.metrics.CounterValue("spec.rejected_tokens"),
            r_spec.spec_proposed_tokens - r_spec.spec_accepted_tokens);
}

// --- analytic macro-stepping (docs/performance.md) ---

// Forwards every call to the wrapped backend but keeps ExecutionBackend's default StepRun,
// so the batcher single-steps through it: the reference a macro-stepped run must match.
// Counts the step calls it forwards.
class ForwardingBackend : public ExecutionBackend {
 public:
  explicit ForwardingBackend(ExecutionBackend& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  double AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override {
    return inner_.AdmitSlot(slot, job, context_tokens, charged_prefill_tokens);
  }
  void ReleaseSlot(int slot) override { inner_.ReleaseSlot(slot); }
  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override {
    ++step_calls;
    return inner_.Step(slots, contexts);
  }
  StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                              std::span<const int> gammas) override {
    ++step_calls;
    return inner_.SpeculativeStep(slots, contexts, gammas);
  }
  int spec_gamma() const override { return inner_.spec_gamma(); }
  void RetainKv(int slot, int job_id) override { inner_.RetainKv(slot, job_id); }
  void DropRetained(int job_id) override { inner_.DropRetained(job_id); }
  void PauseSlot(int slot, int job_id) override { inner_.PauseSlot(slot, job_id); }
  void ResumeSlot(int slot, int job_id, int context_tokens) override {
    inner_.ResumeSlot(slot, job_id, context_tokens);
  }
  bool CanResume(int job_id) override { return inner_.CanResume(job_id); }
  void ReleaseGroup(int prompt_group) override { inner_.ReleaseGroup(prompt_group); }
  bool CanAdmit(const ServeJob& job, int context_tokens) override {
    return inner_.CanAdmit(job, context_tokens);
  }
  int max_context() const override { return inner_.max_context(); }
  hkv::KvStats kv_stats() const override { return inner_.kv_stats(); }
  hquant::KvDtype kv_dtype() const override { return inner_.kv_dtype(); }
  void ExportMetrics(obs::Registry& registry) const override { inner_.ExportMetrics(registry); }

  int64_t step_calls = 0;

 protected:
  ExecutionBackend& inner_;
};

// The same decorator with StepRun forwarded too: macro-steps like the bare backend while
// counting its calls.
class RunForwardingBackend : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;
  int StepRun(std::span<const int> slots, std::span<const int> contexts, int max_steps,
              StepOutcome* out) override {
    ++step_calls;
    return inner_.StepRun(slots, contexts, max_steps, out);
  }
};

// Metrics JSON without the thread pool's process-lifetime counters (exec.pool.*,
// exec.tasks.*, exec.parallel_for.calls), which other tests in the binary advance.
std::string RunMetricsJson(obs::MetricsSnapshot m) {
  const auto pool = [](const std::string& name) {
    return name.rfind("exec.pool.", 0) == 0 || name.rfind("exec.tasks.", 0) == 0 ||
           name == "exec.parallel_for.calls";
  };
  std::erase_if(m.counters, [&](const obs::CounterSample& c) { return pool(c.name); });
  std::erase_if(m.gauges, [&](const obs::GaugeSample& g) { return pool(g.name); });
  return m.ToJson().Dump(2);
}

void ExpectSameSchedule(const ScheduleResult& a, const ScheduleResult& b) {
  EXPECT_EQ(a.error, b.error);
  // Doubles compare exactly: a macro-step repeats single stepping's additions.
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.prefill_s, b.prefill_s);
  EXPECT_EQ(a.decode_s, b.decode_s);
  EXPECT_EQ(a.idle_s, b.idle_s);
  EXPECT_EQ(a.tokens_per_second, b.tokens_per_second);
  EXPECT_EQ(a.avg_active_batch, b.avg_active_batch);
  EXPECT_EQ(a.avg_context, b.avg_context);
  EXPECT_EQ(a.slot_utilization, b.slot_utilization);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.flash_s, b.flash_s);
  EXPECT_EQ(a.flash_bytes, b.flash_bytes);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.decoded_tokens, b.decoded_tokens);
  EXPECT_EQ(a.prefilled_tokens, b.prefilled_tokens);
  EXPECT_EQ(a.forked_admissions, b.forked_admissions);
  EXPECT_EQ(a.admission_deferrals, b.admission_deferrals);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.resumes, b.resumes);
  EXPECT_EQ(a.spec_cycles, b.spec_cycles);
  EXPECT_EQ(a.spec_proposed_tokens, b.spec_proposed_tokens);
  EXPECT_EQ(a.spec_accepted_tokens, b.spec_accepted_tokens);
  EXPECT_EQ(a.kv.physical_blocks, b.kv.physical_blocks);
  EXPECT_EQ(a.kv.peak_physical_blocks, b.kv.peak_physical_blocks);
  EXPECT_EQ(a.kv.logical_blocks, b.kv.logical_blocks);
  EXPECT_EQ(a.kv.peak_logical_blocks, b.kv.peak_logical_blocks);
  EXPECT_EQ(a.kv.cow_splits, b.kv.cow_splits);
  ASSERT_EQ(a.admissions.size(), b.admissions.size());
  for (size_t i = 0; i < a.admissions.size(); ++i) {
    EXPECT_EQ(a.admissions[i].job_id, b.admissions[i].job_id) << i;
    EXPECT_EQ(a.admissions[i].slot, b.admissions[i].slot) << i;
    EXPECT_EQ(a.admissions[i].step, b.admissions[i].step) << i;
    EXPECT_EQ(a.admissions[i].time_s, b.admissions[i].time_s) << i;
    EXPECT_EQ(a.admissions[i].resumed, b.admissions[i].resumed) << i;
  }
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].job_id, b.completions[i].job_id) << i;
    EXPECT_EQ(a.completions[i].slot, b.completions[i].slot) << i;
    EXPECT_EQ(a.completions[i].step, b.completions[i].step) << i;
    EXPECT_EQ(a.completions[i].time_s, b.completions[i].time_s) << i;
  }
  EXPECT_EQ(a.step_active, b.step_active);
  EXPECT_EQ(a.step_occupied, b.step_occupied);
  EXPECT_EQ(a.job_tokens, b.job_tokens);
  EXPECT_EQ(a.trace.ToChromeJson(), b.trace.ToChromeJson());
  EXPECT_EQ(RunMetricsJson(a.metrics), RunMetricsJson(b.metrics));
}

class MacroStepParityTest : public ::testing::Test {
 protected:
  MacroStepParityTest() {
    hrt::EngineOptions eo;
    eo.model = &hllm::Qwen25_1_5B();
    eo.device = &hexsim::OnePlus12();
    engine_ = std::make_unique<hrt::Engine>(eo);
    hrt::EngineOptions deo;
    deo.model = &hllm::Qwen25_0_5B();
    deo.device = &hexsim::OnePlus12();
    draft_ = std::make_unique<hrt::Engine>(deo);
  }

  static ServeOptions Traced(int max_batch) {
    ServeOptions so;
    so.max_batch = max_batch;
    so.record_steps = true;
    so.record_trace = true;
    so.max_trace_steps = 100000;  // trace every step, so the whole trace is compared
    return so;
  }

  static std::vector<ServeJob> BestOfN(int tasks, int n, uint64_t seed) {
    const htts::TaskSet ts = htts::GenerateTaskSet(htts::Dataset::kMath500, tasks, seed);
    const htts::OutcomeRewardModel orm;
    hexllm::Rng rng(seed);
    std::vector<ServeJob> jobs;
    htts::RunBestOfN(ts, 0.3, orm, n, 1, rng, &jobs);
    return jobs;
  }

  // Runs `jobs` through a fresh backend twice, macro-stepped (bare) and single-stepped
  // (through ForwardingBackend), expects identical results and returns the bare one.
  ScheduleResult ExpectParity(const std::vector<ServeJob>& jobs, const ServeOptions& so,
                              const AnalyticBackend::Options& bo) {
    AnalyticBackend direct(*engine_, bo);
    const ScheduleResult r = ContinuousBatcher(direct, so).Run(jobs);
    AnalyticBackend inner(*engine_, bo);
    ForwardingBackend single(inner);
    const ScheduleResult ref = ContinuousBatcher(single, so).Run(jobs);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_GT(r.steps, 0);
    EXPECT_EQ(single.step_calls, ref.steps);  // the reference really single-stepped
    ExpectSameSchedule(r, ref);
    return r;
  }

  int64_t BudgetBytes(int64_t blocks) const {
    return blocks * AnalyticBackend(*engine_).kv_stats().bytes_per_block;
  }

  std::unique_ptr<hrt::Engine> engine_;
  std::unique_ptr<hrt::Engine> draft_;
};

TEST_F(MacroStepParityTest, BestOfNSharedPromptsTakeFarFewerBackendCalls) {
  const std::vector<ServeJob> jobs = BestOfN(6, 8, 21);
  const ServeOptions so = Traced(8);
  const ScheduleResult r = ExpectParity(jobs, so, {});
  EXPECT_GT(r.kv.peak_logical_blocks, r.kv.peak_physical_blocks);  // prompts shared
  // The bare backend advanced whole runs per call: a run ends only at a completion or a
  // context-bucket boundary, so calls are a small fraction of steps.
  AnalyticBackend inner(*engine_);
  RunForwardingBackend counted(inner);
  ExpectSameSchedule(ContinuousBatcher(counted, so).Run(jobs), r);
  EXPECT_LT(counted.step_calls * 8, r.steps);
}

TEST_F(MacroStepParityTest, BeamSearchForksAndBarriers) {
  const htts::TaskSet ts = htts::GenerateTaskSet(htts::Dataset::kMath500, 4, 5);
  const htts::ProcessRewardModel prm;
  hexllm::Rng rng(5);
  std::vector<ServeJob> jobs;
  htts::RunBeamSearch(ts, 0.3, prm, 8, 4, 1, rng, &jobs);
  const ScheduleResult r = ExpectParity(jobs, Traced(8), {});
  EXPECT_GT(r.forked_admissions, 0);
  EXPECT_GT(r.kv.cow_splits, 0);
}

TEST_F(MacroStepParityTest, StaticWavesWithPaddingRows) {
  ServeOptions so = Traced(8);
  so.policy = SchedulePolicy::kStaticWaves;
  const ScheduleResult r = ExpectParity(BestOfN(3, 8, 22), so, {});
  EXPECT_LT(r.slot_utilization, 1.0);  // finished rows rode out their waves as padding
}

TEST_F(MacroStepParityTest, SlidingWindowCapsPricedContexts) {
  AnalyticBackend::Options bo;
  bo.attn_window.sink_blocks = 1;
  bo.attn_window.window_blocks = 4;
  // Prompts past the resident set (192 tokens), so some rows are capped and some grow.
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(Job(i, 150 + 37 * i, /*group=*/-1, /*prompt=*/40 + 29 * i));
  }
  ExpectParity(jobs, Traced(4), bo);
}

TEST_F(MacroStepParityTest, TieredOffloadSingleSteps) {
  AnalyticBackend::Options bo;
  bo.kv_offload_resident_blocks = 24;
  bo.kv_budget_bytes = BudgetBytes(64);
  const ScheduleResult r = ExpectParity(BestOfN(3, 8, 23), Traced(8), bo);
  EXPECT_GT(r.flash_bytes, 0);
}

TEST_F(MacroStepParityTest, SpeculativeCyclesMixWithPlainRuns) {
  AnalyticBackend::Options bo;
  bo.draft_engine = draft_.get();
  bo.spec_gamma = 4;
  bo.spec_acceptance = 0.7;
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 12; ++i) {
    ServeJob j = Job(i, 60 + 23 * i, /*group=*/0, /*prompt=*/96);
    j.speculative = i % 3 == 0;
    jobs.push_back(j);
  }
  const ScheduleResult r = ExpectParity(jobs, Traced(4), bo);
  EXPECT_GT(r.spec_cycles, 0);
  EXPECT_LT(r.spec_cycles, r.steps);
}

TEST_F(MacroStepParityTest, TightKvBudgetDefersAdmissions) {
  AnalyticBackend::Options bo;
  bo.kv_budget_bytes = BudgetBytes(120);
  const ScheduleResult r = ExpectParity(BestOfN(6, 8, 24), Traced(8), bo);
  EXPECT_GT(r.admission_deferrals, 0);
}

TEST_F(MacroStepParityTest, WindowedResumeUnderTightBudget) {
  // A sliding window caps every row's reservation at its resident blocks (sinks + window +
  // the active block: 7 here), for resume exactly as for admission. The preempted
  // singleton still owes far more growth than that: an uncapped resume check never fits
  // it into 20 blocks, and the run fails once the rest of the stream has drained.
  AnalyticBackend::Options bo;
  bo.attn_window.sink_blocks = 1;
  bo.attn_window.window_blocks = 4;
  bo.kv_budget_bytes = BudgetBytes(20);
  ServeOptions so = Traced(2);
  so.enable_preemption = true;
  std::vector<ServeJob> jobs = {Job(0, 40, /*group=*/0, /*prompt=*/64)};
  for (int i = 1; i <= 2; ++i) {
    jobs.push_back(Job(i, 60, /*group=*/0, /*prompt=*/64, /*context=*/40, /*barrier=*/1));
  }
  jobs.push_back(Job(3, 700, /*group=*/-1, /*prompt=*/32));
  jobs.push_back(Job(4, 500, /*group=*/-1, /*prompt=*/48));
  for (ServeJob& j : jobs) {
    j.priority = j.prompt_group == 0 ? 2 : 0;
  }
  const ScheduleResult r = ExpectParity(jobs, so, bo);
  EXPECT_GT(r.admission_deferrals, 0);
  EXPECT_EQ(r.preemptions, 1);
  ASSERT_EQ(r.resumes, 1);
  // The paused singleton resumed while the other one still decoded.
  const auto resumed = std::find_if(r.admissions.begin(), r.admissions.end(),
                                    [](const Admission& a) { return a.resumed; });
  const auto other_done = std::find_if(r.completions.begin(), r.completions.end(),
                                       [](const Completion& c) { return c.job_id == 4; });
  ASSERT_TRUE(resumed != r.admissions.end() && other_done != r.completions.end());
  EXPECT_EQ(resumed->job_id, 3);
  EXPECT_LT(resumed->step, other_done->step);
}

TEST_F(MacroStepParityTest, PreemptionByPriority) {
  ServeOptions so = Traced(3);
  so.enable_preemption = true;
  // A high-priority group's second round becomes ready mid-run, while low-priority
  // singletons hold the other slots: admitting it pauses one of them.
  std::vector<ServeJob> jobs = {Job(0, 30, /*group=*/0, /*prompt=*/64)};
  for (int i = 1; i <= 3; ++i) {
    jobs.push_back(Job(i, 50, /*group=*/0, /*prompt=*/64, /*context=*/30, /*barrier=*/1));
  }
  for (int i = 4; i < 10; ++i) {
    jobs.push_back(Job(i, 90 + 31 * i, /*group=*/-1, /*prompt=*/16 * i));
  }
  for (ServeJob& j : jobs) {
    j.priority = j.prompt_group == 0 ? 2 : 0;
  }
  const ScheduleResult r = ExpectParity(jobs, so, {});
  EXPECT_GT(r.preemptions, 0);
  EXPECT_GT(r.resumes, 0);
}

}  // namespace
}  // namespace hserve
