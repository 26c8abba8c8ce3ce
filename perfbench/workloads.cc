#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "probe.h"
#include "src/base/rng.h"
#include "src/frontend/serving_engine.h"
#include "src/frontend/traffic.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/obs/json.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "src/tts/capability_model.h"
#include "src/tts/pareto.h"
#include "src/tts/reward_model.h"
#include "src/tts/speculative.h"
#include "src/tts/task.h"
#include "src/tts/tts.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

constexpr double kMiB = 1024.0 * 1024.0;
// The per-token limit of the TTS workloads' SLO: a reader's pace of ten tokens a second.
constexpr double kReadingTpotS = 0.1;
// Accuracy of the answers a functional workload selects is scored on the full synthetic
// MATH500 set, sampled this many times per question.
constexpr int kMathTasks = 500;
constexpr int kAccuracyTrials = 8;

// Serializes every field of a scheduling result, its metrics snapshot included, so two
// passes can be compared bit for bit (doubles print with 17 significant digits).
std::string DumpSchedule(const hserve::ScheduleResult& s) {
  obs::Json j = obs::Json::Object();
  j.Set("error", s.error);
  j.Set("makespan_s", s.makespan_s);
  j.Set("prefill_s", s.prefill_s);
  j.Set("decode_s", s.decode_s);
  j.Set("idle_s", s.idle_s);
  j.Set("tokens_per_second", s.tokens_per_second);
  j.Set("avg_active_batch", s.avg_active_batch);
  j.Set("avg_context", s.avg_context);
  j.Set("slot_utilization", s.slot_utilization);
  j.Set("energy_j", s.energy_j);
  j.Set("steps", s.steps);
  j.Set("decoded_tokens", s.decoded_tokens);
  j.Set("prefilled_tokens", s.prefilled_tokens);
  j.Set("forked_admissions", s.forked_admissions);
  j.Set("admission_deferrals", s.admission_deferrals);
  j.Set("preemptions", s.preemptions);
  j.Set("resumes", s.resumes);
  j.Set("spec_cycles", s.spec_cycles);
  j.Set("spec_proposed_tokens", s.spec_proposed_tokens);
  j.Set("spec_accepted_tokens", s.spec_accepted_tokens);
  j.Set("flash_s", s.flash_s);
  j.Set("flash_bytes", s.flash_bytes);
  obs::Json kv = obs::Json::Array();
  for (const int64_t v : {static_cast<int64_t>(s.kv.block_tokens), s.kv.bytes_per_block,
                          s.kv.physical_blocks, s.kv.peak_physical_blocks, s.kv.logical_blocks,
                          s.kv.peak_logical_blocks, s.kv.cow_splits}) {
    kv.Append(v);
  }
  j.Set("kv", std::move(kv));
  obs::Json adm = obs::Json::Array();
  for (const hserve::Admission& a : s.admissions) {
    adm.Append(obs::Json(std::to_string(a.job_id) + "/" + std::to_string(a.slot) + "/" +
                         std::to_string(a.step) + "/" + Fmt("%.17g", a.time_s) +
                         (a.resumed ? "/r" : "")));
  }
  j.Set("admissions", std::move(adm));
  obs::Json comp = obs::Json::Array();
  for (const hserve::Completion& c : s.completions) {
    comp.Append(obs::Json(std::to_string(c.job_id) + "/" + std::to_string(c.slot) + "/" +
                          std::to_string(c.step) + "/" + Fmt("%.17g", c.time_s)));
  }
  j.Set("completions", std::move(comp));
  obs::Json toks = obs::Json::Array();
  for (const std::vector<int>& t : s.job_tokens) {
    toks.Append(obs::Json(Hex(TokenChecksum(t))));
  }
  j.Set("job_tokens", std::move(toks));
  // The thread pool's counters (exec.pool.*, exec.tasks.*, exec.parallel_for.calls) are
  // process-lifetime host counts, not outputs of the run.
  obs::MetricsSnapshot m = s.metrics;
  const auto host_side = [](const auto& sample) {
    return sample.name.rfind("exec.pool.", 0) == 0 || sample.name.rfind("exec.tasks.", 0) == 0 ||
           sample.name == "exec.parallel_for.calls";
  };
  std::erase_if(m.counters, host_side);
  std::erase_if(m.gauges, host_side);
  j.Set("metrics", m.ToJson());
  return j.Dump();
}

// Serving-layer aggregates summed over the scheduling runs of a pass.
struct ServingSums {
  int64_t deferrals = 0;
  int64_t preemptions = 0;
  int64_t steps = 0;
  double useful_rows = 0.0;
  double prefill_s = 0.0;
  double decode_s = 0.0;
  double overlap_saved_s = 0.0;
  Distribution queue_wait_s;

  void Add(const hserve::ScheduleResult& s) {
    deferrals += s.admission_deferrals;
    preemptions += s.preemptions;
    steps += s.steps;
    useful_rows += s.avg_active_batch * static_cast<double>(s.steps);
    prefill_s += s.prefill_s;
    decode_s += s.decode_s;
    overlap_saved_s += s.metrics.GaugeValue("exec.overlap.saved_seconds");
  }
  void Export(std::map<std::string, double>& layer) const {
    layer["serving.admission_deferrals"] = static_cast<double>(deferrals);
    layer["serving.preemptions"] = static_cast<double>(preemptions);
    layer["serving.prefill_share"] =
        prefill_s + decode_s > 0.0 ? prefill_s / (prefill_s + decode_s) : 0.0;
    layer["serving.avg_active_batch"] = steps > 0 ? useful_rows / static_cast<double>(steps) : 0.0;
    layer["serving.overlap_saved_share"] = decode_s > 0.0 ? overlap_saved_s / decode_s : 0.0;
    layer["serving.queue_wait_p99_ms"] = queue_wait_s.Tail(0.99) * 1e3;
  }
};

// Device, kernel and KV-cache counters from the final metrics snapshot of each backend
// instance (those counters cover the backend's whole life), summed over instances.
struct DeviceSums {
  std::map<std::string, double> v;
  int64_t peak_physical_blocks = 0;
  double peak_logical_blocks = 0.0;
  double peak_physical_sum = 0.0;

  void Add(const obs::MetricsSnapshot& m) {
    for (const char* unit : {"hmx", "hvx", "dma", "cpu"}) {
      v[std::string("hexsim.") + unit + ".busy_s"] +=
          m.GaugeValue(std::string("hexsim.") + unit + ".busy_seconds");
    }
    v["hexsim.hmx.macs"] += static_cast<double>(m.CounterValue("hexsim.hmx.macs"));
    v["hexsim.hvx.packets"] += static_cast<double>(m.CounterValue("hexsim.hvx.packets"));
    v["hexsim.dma.ddr_bytes"] += static_cast<double>(m.CounterValue("hexsim.dma.ddr_bytes"));
    for (const obs::GaugeSample& g : m.gauges) {
      if (g.name == "hexsim.tag_seconds") {
        const std::string tag = g.label.rfind("misc.", 0) == 0 ? "misc" : g.label;
        v["hexsim.tag_s." + tag] += g.value;
      }
    }
    v["kernels.flash_attention.calls"] +=
        static_cast<double>(m.CounterValue("kernel.flash_attention.calls"));
    v["kernels.attn_kv_dequant.calls"] +=
        static_cast<double>(m.CounterValue("kernel.attn_kv_dequant.calls"));
    v["kvcache.cow_splits"] += static_cast<double>(m.CounterValue("kv.cow_splits"));
    for (const char* c : {"demand_faults", "prefetch_hits", "promotions", "flash_read_bytes",
                          "flash_write_bytes"}) {
      v[std::string("kvcache.offload.") + c] +=
          static_cast<double>(m.CounterValue(std::string("kv.offload.") + c));
    }
    v["kvcache.offload.stall_s"] += m.GaugeValue("kv.offload.stall_seconds");
    const double phys = m.GaugeValue("kv.peak_physical_blocks");
    peak_physical_blocks = std::max(peak_physical_blocks, static_cast<int64_t>(phys));
    peak_physical_sum += phys;
    peak_logical_blocks += m.GaugeValue("kv.peak_logical_blocks");
  }

  // Per-token normalisation of the simulated device activity; counts stay totals.
  void Export(int64_t tokens, std::map<std::string, double>& layer) const {
    const double per_token = tokens > 0 ? 1.0 / static_cast<double>(tokens) : 0.0;
    static const char* kTags[] = {"attn.qk",   "attn.softmax",    "attn.pv",
                                  "attn.pack", "attn.rescale",    "attn.kv_dequant",
                                  "linear.dequant", "misc"};
    for (const char* unit : {"hmx", "hvx", "dma", "cpu"}) {
      layer[std::string("hexsim.") + unit + ".busy_s_per_token"] =
          Get(std::string("hexsim.") + unit + ".busy_s") * per_token;
    }
    layer["hexsim.hmx.macs_per_token"] = Get("hexsim.hmx.macs") * per_token;
    layer["hexsim.hvx.packets_per_token"] = Get("hexsim.hvx.packets") * per_token;
    layer["hexsim.dma.ddr_bytes_per_token"] = Get("hexsim.dma.ddr_bytes") * per_token;
    for (const char* tag : kTags) {
      layer[std::string("hexsim.tag_s_per_token.") + tag] =
          Get(std::string("hexsim.tag_s.") + tag) * per_token;
    }
    const double attn_calls = Get("kernels.flash_attention.calls");
    layer["kernels.flash_attention.calls"] = attn_calls;
    layer["kernels.attn_kv_dequant.calls"] = Get("kernels.attn_kv_dequant.calls");
    layer["kernels.ddr_bytes_per_attention_call"] =
        attn_calls > 0.0 ? Get("hexsim.dma.ddr_bytes") / attn_calls : 0.0;
    layer["kvcache.peak_physical_blocks"] = static_cast<double>(peak_physical_blocks);
    layer["kvcache.sharing_ratio"] =
        peak_physical_sum > 0.0 ? peak_logical_blocks / peak_physical_sum : 1.0;
    layer["kvcache.cow_splits"] = Get("kvcache.cow_splits");
    layer["kvcache.offload.demand_faults"] = Get("kvcache.offload.demand_faults");
    const double promotions = Get("kvcache.offload.promotions");
    layer["kvcache.offload.prefetch_hit_ratio"] =
        promotions > 0.0 ? Get("kvcache.offload.prefetch_hits") / promotions : 0.0;
    layer["kvcache.offload.stall_s"] = Get("kvcache.offload.stall_s");
    layer["kvcache.offload.flash_read_bytes"] = Get("kvcache.offload.flash_read_bytes");
    layer["kvcache.offload.flash_write_bytes"] = Get("kvcache.offload.flash_write_bytes");
    layer["hexsim.hmx.macs"] = Get("hexsim.hmx.macs");
  }
  double Get(const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};

// Latency observations common to every workload: per request (or job) time to first
// token, gaps between its tokens, per answer time, and the SLO tally.
struct Latency {
  std::vector<double> ttft_s;
  Distribution itl_s;
  std::vector<double> answer_s;
  int64_t slo_total = 0;
  int64_t slo_met = 0;

  void Export(std::map<std::string, double>& sim) const {
    Distribution ttft;
    for (const double v : ttft_s) {
      ttft.Add(v);
    }
    sim["ttft_p50_ms"] = ttft.Percentile(0.5) * 1e3;
    sim["ttft_p99_ms"] = ttft.Tail(0.99) * 1e3;
    sim["itl_p50_ms"] = itl_s.Percentile(0.5) * 1e3;
    sim["itl_p99_ms"] = itl_s.Tail(0.99) * 1e3;
    sim["answer_p50_s"] = Percentile(answer_s, 0.5);
    sim["slo_attainment"] =
        slo_total > 0 ? static_cast<double>(slo_met) / static_cast<double>(slo_total) : 0.0;
    // Sample counts, printed with the metrics they qualify.
    sim["samples.ttft"] = static_cast<double>(ttft.count());
    sim["samples.itl"] = static_cast<double>(itl_s.count());
    sim["samples.answer"] = static_cast<double>(answer_s.size());
    sim["quantile.ttft_tail"] = ttft.TailQuantile(0.99);
    sim["quantile.itl_tail"] = itl_s.TailQuantile(0.99);
  }
};

// Folds the probe's per-job token times of one batch-mode run (started at t = 0 with every
// job due then) into the latency tally. Each job is SLO-bound with the reading-pace
// per-token limit; answers complete when the last job of their prompt group does.
void AddBatchRun(const std::vector<hserve::ServeJob>& jobs, const ProbeBackend& probe,
                 Latency* lat, std::vector<double>* group_done) {
  std::map<int, double> done;
  const std::vector<ProbeBackend::JobTimes>& times = probe.job_times();
  for (const hserve::ServeJob& j : jobs) {
    const ProbeBackend::JobTimes jt = static_cast<size_t>(j.id) < times.size()
                                          ? times[static_cast<size_t>(j.id)]
                                          : ProbeBackend::JobTimes{};
    ++lat->slo_total;
    if (jt.tokens < j.decode_tokens) {
      continue;  // incomplete: misses every limit (and fails the pass's checks)
    }
    lat->ttft_s.push_back(jt.first_s);
    const double tpot = jt.tokens > 1 ? (jt.last_s - jt.first_s) / (jt.tokens - 1) : 0.0;
    if (tpot <= kReadingTpotS) {
      ++lat->slo_met;
    }
    const int unit = j.prompt_group >= 0 ? j.prompt_group : -1 - j.id;
    double& d = done[unit];
    d = std::max(d, jt.last_s);
  }
  lat->itl_s.Merge(probe.gaps());
  for (const auto& [unit, t] : done) {
    group_done->push_back(t);
  }
}

// The synthetic MATH500 set: like the real benchmark, one fixed set of 500 questions. The
// workload seed picks which questions are served and drives the sampling.
const htts::TaskSet& Math500() {
  static const htts::TaskSet set =
      htts::GenerateTaskSet(htts::Dataset::kMath500, kMathTasks, /*seed=*/500);
  return set;
}

// Theta of the policy the functional workloads stand in for: Qwen2.5-1.5B with F16 KV.
double PolicyTheta(const htts::CapabilityModel& cap) {
  const hllm::ModelConfig& m = hllm::Qwen25_1_5B();
  return cap.EffectiveTheta(m, htts::Dataset::kMath500, cap.DeployedWeightErr(m),
                            cap.AttentionErr(hquant::KvDtype::kF16));
}

// Capability-model accuracy (percent) of single-sample answers over the MATH500 set.
double SingleSampleAccuracy(const htts::CapabilityModel& cap, uint64_t seed, Tracer* tracer) {
  hexllm::Rng rng(seed ^ 0xACC);
  Span s(tracer, "tts.RunSingleSample");
  return 100.0 *
         htts::RunSingleSample(Math500(), PolicyTheta(cap), kAccuracyTrials, rng).accuracy;
}

// ---------------------------------------------------------------------------------------
// tts_sweep: the Figure 10 sweep on the analytic path.

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(uint64_t seed) {
    opts_.dataset = htts::Dataset::kMath500;
    opts_.device = &hexsim::OnePlus12();
    opts_.models = {&hllm::Qwen25_1_5B(), &hllm::Qwen25_3B(), &hllm::Qwen25_7B(),
                    &hllm::Llama32_1B(), &hllm::Llama32_3B()};
    opts_.budgets = {2, 4, 8, 16};
    opts_.tasks = kTasks;
    opts_.trials = kTrials;
    opts_.seed = seed;
    opts_.kv_budget_bytes = kKvBudgetBytes;
    opts_.spec_draft = &hllm::Qwen25_0_5B();
  }

  void Warmup() override {
    htts::ParetoSweepOptions o = opts_;
    o.models = {opts_.models.front()};
    o.budgets = {2};
    o.tasks = 2;
    o.trials = 1;
    htts::SweepPareto(cap_, o);
  }

  bool measured_is_opaque() const override { return true; }

  Pass RunOpaque() override {
    Pass pass;
    const Clock::time_point t0 = Clock::now();
    const std::vector<htts::ParetoPoint> points = htts::SweepPareto(cap_, opts_);
    pass.host_s = Since(t0);
    for (const htts::ParetoPoint& p : points) {
      pass.outputs["point " + PointKey(p)] = PointLine(p);
    }
    return pass;
  }

  Pass Run(Route route, Tracer* tracer) override { return Decompose(route, tracer); }

  void CheckMeasured(const Pass& measured, const Pass& analysis,
                     FailureTally* f) const override {
    for (const auto& [key, line] : analysis.outputs) {
      if (key.rfind("point ", 0) != 0) {
        continue;
      }
      const auto it = measured.outputs.find(key);
      f->Check(it != measured.outputs.end() && it->second == line,
               "SweepPareto and the decomposition disagree at " + key);
    }
  }

 private:
  // 100 tasks x 1 trial per point under a KV budget of the phone's 16 GiB of DRAM.
  // Beam-search streams fail with "KV budget too small" below about 9 GiB at 100 tasks
  // (the retained stems of concurrently admitted tasks hold the budget, and they grow with
  // the task count), so no budget defers Best-of-N admissions at budget 16 and keeps every
  // point runnable; README.md records this.
  static constexpr int kTasks = 100;
  static constexpr int kTrials = 1;
  static constexpr int64_t kKvBudgetBytes = 16ll << 30;

  static std::string PointKey(const htts::ParetoPoint& p) {
    return p.model + "/" + htts::TtsMethodName(p.method) + "/" + std::to_string(p.budget);
  }
  static std::string PointLine(const htts::ParetoPoint& p) {
    std::string s;
    for (const double v : {p.accuracy, p.latency_per_token_s, p.energy_per_token_j, p.watts,
                           p.makespan_s, p.kv_sharing_ratio, p.spec_acceptance}) {
      s += Fmt("%.17g ", v);
    }
    s += std::to_string(p.kv_physical_peak_bytes) + " " +
         std::to_string(p.kv_logical_peak_bytes) + (p.runnable ? " runnable" : " unrunnable");
    return s;
  }

  // SweepPareto spelled out through the public entry points it composes, so each layer's
  // calls can be spanned and the backend reached through the probe.
  Pass Decompose(Route route, Tracer* tracer) {
    Pass pass;
    Latency lat;
    ServingSums serving;
    DeviceSums device;
    std::vector<double> ms_per_token, mj_per_token, answer_rate_hz, step_sim_ms;
    // Per-point gap percentiles. Pooled over points, the median gap is one bucketed step
    // price that most seeds share, so the sweep reports the mean over points (a
    // speculative point's median gap can be 0: a cycle streams several tokens at once).
    std::vector<double> itl_p50_ms, itl_p99_ms;
    double accuracy_sum = 0.0;
    int runnable_points = 0;
    int64_t kv_peak_bytes = 0;
    int64_t jobs_emitted = 0;

    const Clock::time_point t0 = Clock::now();
    const htts::TaskSet tasks = [&] {
      Span s(tracer, "tts.GenerateTaskSet");
      return htts::GenerateTaskSet(opts_.dataset, opts_.tasks, opts_.seed);
    }();
    const htts::OutcomeRewardModel orm;
    const htts::ProcessRewardModel prm;
    hexllm::Rng rng(opts_.seed ^ 0xFACADE);

    for (const hllm::ModelConfig* model : opts_.models) {
      const double theta = cap_.EffectiveTheta(*model, opts_.dataset,
                                               cap_.DeployedWeightErr(*model),
                                               cap_.AttentionErr(opts_.kv_dtype));
      hrt::EngineOptions eo;
      eo.model = model;
      eo.device = opts_.device;
      std::unique_ptr<hrt::Engine> engine;
      {
        Span s(tracer, "runtime.Engine");
        engine = std::make_unique<hrt::Engine>(eo);
      }
      const bool runnable = engine->CanRun();

      const auto add_point = [&](htts::TtsMethod method, int budget, const htts::MethodResult& r,
                                 const std::vector<hserve::ServeJob>& jobs,
                                 const hrt::Engine* draft_engine, double spec_acceptance) {
        jobs_emitted += static_cast<int64_t>(jobs.size());
        htts::ParetoPoint p;
        p.model = model->name;
        p.method = method;
        p.budget = budget;
        p.kv_dtype = opts_.kv_dtype;
        p.accuracy = r.accuracy;
        p.runnable = runnable;
        if (draft_engine != nullptr) {
          p.spec_draft = opts_.spec_draft->name;
          p.spec_acceptance = spec_acceptance;
        }
        const std::string key = PointKey(p);
        if (runnable) {
          hserve::AnalyticBackend::Options bo;
          bo.kv_budget_bytes = opts_.kv_budget_bytes;
          bo.kv_dtype = opts_.kv_dtype;
          bo.kv_quant_group = opts_.kv_quant_group;
          if (draft_engine != nullptr) {
            bo.draft_engine = draft_engine;
            bo.spec_gamma = opts_.spec_gamma;
            bo.spec_acceptance = spec_acceptance;
          }
          hserve::AnalyticBackend backend(*engine, bo);
          ProbeBackend probe(backend, tracer);
          hserve::ExecutionBackend& be =
              route == Route::kDirect ? static_cast<hserve::ExecutionBackend&>(backend) : probe;
          hserve::ServeOptions so;
          so.max_batch = std::max(1, r.batch);
          hserve::ContinuousBatcher batcher(be, so);
          probe.WatchClock(&batcher);
          hserve::ScheduleResult s;
          {
            Span span(tracer, "serving.ContinuousBatcher::Run");
            s = batcher.Run(jobs);
          }
          probe.Flush();
          if (!s.error.empty()) {
            p.runnable = false;
            pass.failures.Fail(key + ": " + s.error);
          }
          p.makespan_s = s.makespan_s;
          p.kv_physical_peak_bytes = s.kv.peak_physical_bytes();
          p.kv_logical_peak_bytes = s.kv.peak_logical_bytes();
          if (s.kv.peak_physical_blocks > 0) {
            p.kv_sharing_ratio = static_cast<double>(s.kv.peak_logical_blocks) /
                                 static_cast<double>(s.kv.peak_physical_blocks);
          }
          if (s.steps > 0) {
            p.latency_per_token_s = s.makespan_s / static_cast<double>(s.steps);
          }
          if (s.decoded_tokens > 0) {
            p.energy_per_token_j = s.energy_j / static_cast<double>(s.decoded_tokens);
          }
          if (s.decode_s > 0.0) {
            p.watts = s.energy_j / s.decode_s;
          }
          pass.schedules.push_back(key + " " + DumpSchedule(s));
          pass.tokens += s.decoded_tokens;
          serving.Add(s);
          device.Add(s.metrics);
          for (const hserve::Admission& a : s.admissions) {
            if (!a.resumed) {
              serving.queue_wait_s.Add(a.time_s);
            }
          }
          if (route != Route::kDirect) {
            std::vector<double> done;
            AddBatchRun(jobs, probe, &lat, &done);
            lat.answer_s.insert(lat.answer_s.end(), done.begin(), done.end());
            if (s.makespan_s > 0.0) {
              answer_rate_hz.push_back(static_cast<double>(done.size()) / s.makespan_s);
            }
            itl_p50_ms.push_back(probe.gaps().Percentile(0.5) * 1e3);
            itl_p99_ms.push_back(probe.gaps().Tail(0.99) * 1e3);
          }
          if (p.runnable) {
            ++runnable_points;
            accuracy_sum += p.accuracy;
            ms_per_token.push_back(p.latency_per_token_s * 1e3);
            mj_per_token.push_back(p.energy_per_token_j * 1e3);
            kv_peak_bytes = std::max(kv_peak_bytes, p.kv_physical_peak_bytes);
            step_sim_ms.push_back(
                engine->DecodeStep(so.max_batch, static_cast<int>(std::lround(s.avg_context)))
                    .total_s *
                1e3);
          }
          pass.outputs[key] = "accuracy=" + Fmt("%.17g", p.accuracy) +
                              " decoded_tokens=" + std::to_string(s.decoded_tokens);
        } else {
          pass.failures.Fail(key + ": model does not fit the device");
        }
        pass.failures.Attempt();
        pass.outputs["point " + key] = PointLine(p);
      };

      {
        std::vector<hserve::ServeJob> jobs;
        htts::MethodResult r;
        {
          Span s(tracer, "tts.RunSingleSample");
          r = htts::RunSingleSample(tasks, theta, opts_.trials, rng, &jobs);
        }
        add_point(htts::TtsMethod::kBase, 1, r, jobs, nullptr, 0.0);
        if (opts_.spec_draft != nullptr && opts_.spec_draft != model && opts_.spec_gamma > 0) {
          hrt::EngineOptions deo;
          deo.model = opts_.spec_draft;
          deo.device = opts_.device;
          std::unique_ptr<hrt::Engine> draft;
          {
            Span s(tracer, "runtime.Engine");
            draft = std::make_unique<hrt::Engine>(deo);
          }
          if (draft->CanRun()) {
            const double beta = htts::SpeculativeAcceptanceRate(cap_, *opts_.spec_draft, *model);
            std::vector<hserve::ServeJob> spec_jobs = jobs;
            for (hserve::ServeJob& j : spec_jobs) {
              j.speculative = true;
            }
            add_point(htts::TtsMethod::kSpeculative, 1, r, spec_jobs, draft.get(), beta);
          }
        }
      }
      for (const int budget : opts_.budgets) {
        if (budget < 2) {
          continue;
        }
        {
          std::vector<hserve::ServeJob> jobs;
          htts::MethodResult r;
          {
            Span s(tracer, "tts.RunBestOfN");
            r = htts::RunBestOfN(tasks, theta, orm, budget, opts_.trials, rng, &jobs);
          }
          add_point(htts::TtsMethod::kBestOfN, budget, r, jobs, nullptr, 0.0);
        }
        {
          std::vector<hserve::ServeJob> jobs;
          htts::MethodResult r;
          {
            Span s(tracer, "tts.RunBeamSearch");
            r = htts::RunBeamSearch(tasks, theta, prm, budget, /*expansion=*/4, opts_.trials,
                                    rng, &jobs);
          }
          add_point(htts::TtsMethod::kBeamSearch, budget, r, jobs, nullptr, 0.0);
        }
      }
    }
    pass.host_s = Since(t0);

    pass.sim["sim_ms_per_token"] = GeoMean(ms_per_token);
    pass.sim["sim_mj_per_token"] = GeoMean(mj_per_token);
    pass.sim["accuracy_pct"] = runnable_points > 0 ? 100.0 * accuracy_sum / runnable_points : 0.0;
    pass.sim["kv_peak_mib"] = static_cast<double>(kv_peak_bytes) / kMiB;
    pass.sim["max_slo_rate_hz"] = GeoMean(answer_rate_hz);
    pass.sim["samples.points"] = runnable_points;
    lat.Export(pass.sim);
    pass.sim["itl_p50_ms"] = Mean(itl_p50_ms);
    pass.sim["itl_p99_ms"] = Mean(itl_p99_ms);
    serving.Export(pass.layer);
    device.Export(pass.tokens, pass.layer);
    pass.layer["runtime.step_sim_ms"] = GeoMean(step_sim_ms);
    pass.layer["tts.jobs_emitted"] = static_cast<double>(jobs_emitted);
    return pass;
  }

  const htts::CapabilityModel cap_;
  htts::ParetoSweepOptions opts_;
};

// ---------------------------------------------------------------------------------------
// tts_toy: one client in a closed loop, Best-of-16 and beam search (16, expansion 4) on
// alternate tasks, served on the functional toy model.

class ToyWorkload final : public Workload {
 public:
  explicit ToyWorkload(uint64_t seed)
      : seed_(seed),
        weights_(hllm::ModelWeights::Random(hllm::ToyConfig(), kWeightSeed)),
        theta_(PolicyTheta(cap_)),
        accuracy_pct_(MethodAccuracy()) {
    // The seed picks one MATH500 question from each of kTasks strata of answer length, so
    // every seed serves the same length mix (the time to an answer follows its length).
    // Prompt and answer lengths are scaled down to the 16M-parameter toy (its context is
    // kMaxContext); the served order is shuffled.
    const std::vector<htts::ReasoningTask>& all = Math500().tasks;
    std::vector<size_t> by_length(all.size());
    for (size_t i = 0; i < by_length.size(); ++i) {
      by_length[i] = i;
    }
    std::stable_sort(by_length.begin(), by_length.end(), [&](size_t a, size_t b) {
      return all[a].gen_tokens < all[b].gen_tokens;
    });
    hexllm::Rng pick(seed);
    const size_t strata = kTasks;
    for (size_t k = 0; k < strata; ++k) {
      const size_t lo = k * all.size() / strata;
      const size_t hi = (k + 1) * all.size() / strata;
      htts::ReasoningTask t = all[by_length[lo + pick.NextBounded(hi - lo)]];
      t.gen_tokens = std::max(8, t.gen_tokens / kLengthScale);
      t.prompt_tokens = std::max(8, t.prompt_tokens / kLengthScale);
      tasks_.push_back(t);
    }
    for (size_t k = tasks_.size() - 1; k > 0; --k) {
      std::swap(tasks_[k], tasks_[pick.NextBounded(k + 1)]);
    }
  }

  void Warmup() override {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    hserve::FunctionalBackend backend(dev, weights_, kBatch, kMaxContext);
    hserve::ServeOptions so;
    so.max_batch = kBatch;
    hserve::ContinuousBatcher batcher(backend, so);
    hexllm::Rng rng(seed_);
    std::vector<hserve::ServeJob> jobs;
    htts::RunBestOfN(TaskAt(0), theta_, orm_, kBudget, 1, rng, &jobs);
    batcher.Run(jobs);
  }

  Pass Run(Route route, Tracer* tracer) override {
    Pass pass;
    Latency lat;
    ServingSums serving;
    DeviceSums device;
    std::vector<double> ms_per_token;
    double energy_j = 0.0;
    double answer_total_s = 0.0;
    int64_t kv_peak_bytes = 0;
    int64_t jobs_emitted = 0;

    const Clock::time_point t0 = Clock::now();
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    hserve::FunctionalBackend backend(dev, weights_, kBatch, kMaxContext);
    ProbeBackend probe(backend, tracer);
    hserve::ExecutionBackend& be =
        route == Route::kDirect ? static_cast<hserve::ExecutionBackend&>(backend) : probe;
    hserve::ServeOptions so;
    so.max_batch = kBatch;
    hserve::ContinuousBatcher batcher(be, so);
    probe.WatchClock(&batcher);
    hexllm::Rng rng(seed_ ^ 0x7A5C);
    hserve::ScheduleResult last;
    for (int k = 0; k < kTasks; ++k) {
      const htts::TaskSet task = TaskAt(k);
      std::vector<hserve::ServeJob> jobs;
      if (k % 2 == 0) {
        Span s(tracer, "tts.RunBestOfN", k);
        htts::RunBestOfN(task, theta_, orm_, kBudget, 1, rng, &jobs);
      } else {
        Span s(tracer, "tts.RunBeamSearch", k);
        htts::RunBeamSearch(task, theta_, prm_, kBudget, kExpansion, 1, rng, &jobs);
      }
      jobs_emitted += static_cast<int64_t>(jobs.size());
      probe.ClearObservations();
      hserve::ScheduleResult s;
      {
        Span span(tracer, "serving.ContinuousBatcher::Run", k);
        s = batcher.Run(jobs);
      }
      probe.Flush();
      const std::string task_key = "task" + std::to_string(k);
      pass.failures.Check(s.error.empty(), task_key + ": " + s.error);
      for (size_t i = 0; i < jobs.size(); ++i) {
        const std::vector<int> none;
        const std::vector<int>& toks = i < s.job_tokens.size() ? s.job_tokens[i] : none;
        pass.failures.Check(static_cast<int>(toks.size()) == jobs[i].decode_tokens,
                            task_key + " job " + std::to_string(jobs[i].id) + " incomplete");
        pass.outputs[task_key + "/job" + std::to_string(jobs[i].id)] =
            Hex(TokenChecksum(toks)) + ":" + std::to_string(toks.size());
      }
      pass.schedules.push_back(task_key + " " + DumpSchedule(s));
      pass.tokens += s.decoded_tokens;
      serving.Add(s);
      for (const hserve::Admission& a : s.admissions) {
        if (!a.resumed) {
          serving.queue_wait_s.Add(a.time_s);
        }
      }
      energy_j += s.energy_j;
      answer_total_s += s.makespan_s;
      kv_peak_bytes = std::max(kv_peak_bytes, s.kv.peak_physical_bytes());
      if (s.steps > 0) {
        ms_per_token.push_back(s.makespan_s / static_cast<double>(s.steps) * 1e3);
      }
      if (route != Route::kDirect) {
        std::vector<double> done;
        AddBatchRun(jobs, probe, &lat, &done);
      }
      lat.answer_s.push_back(s.makespan_s);
      last = std::move(s);
    }
    pass.host_s = Since(t0);
    device.Add(last.metrics);

    pass.sim["sim_ms_per_token"] = GeoMean(ms_per_token);
    pass.sim["sim_mj_per_token"] =
        pass.tokens > 0 ? energy_j / static_cast<double>(pass.tokens) * 1e3 : 0.0;
    pass.sim["kv_peak_mib"] = static_cast<double>(kv_peak_bytes) / kMiB;
    pass.sim["max_slo_rate_hz"] = answer_total_s > 0.0 ? kTasks / answer_total_s : 0.0;
    pass.sim["accuracy_pct"] = accuracy_pct_;
    lat.Export(pass.sim);
    serving.Export(pass.layer);
    device.Export(pass.tokens, pass.layer);
    pass.layer["tts.jobs_emitted"] = static_cast<double>(jobs_emitted);
    return pass;
  }

 private:
  static constexpr int kTasks = 48;
  static constexpr int kLengthScale = 16;
  static constexpr int kBatch = 16;
  static constexpr int kBudget = 16;
  static constexpr int kExpansion = 4;
  static constexpr int kMaxContext = 512;
  static constexpr uint64_t kWeightSeed = 1234;

  htts::TaskSet TaskAt(int k) const {
    htts::TaskSet t;
    t.dataset = htts::Dataset::kMath500;
    t.tasks = {tasks_[static_cast<size_t>(k)]};
    return t;
  }

  // Accuracy of the alternating method mix over the whole MATH500 set (statistics only:
  // no job stream is emitted for the unserved questions).
  double MethodAccuracy() const {
    hexllm::Rng rng(seed_ ^ 0xACC);
    htts::TaskSet even, odd;
    even.dataset = odd.dataset = htts::Dataset::kMath500;
    for (size_t i = 0; i < Math500().tasks.size(); ++i) {
      (i % 2 == 0 ? even : odd).tasks.push_back(Math500().tasks[i]);
    }
    const double bon =
        htts::RunBestOfN(even, theta_, orm_, kBudget, kAccuracyTrials, rng).accuracy;
    const double beam =
        htts::RunBeamSearch(odd, theta_, prm_, kBudget, kExpansion, kAccuracyTrials, rng).accuracy;
    return 100.0 * (bon * static_cast<double>(even.tasks.size()) +
                    beam * static_cast<double>(odd.tasks.size())) /
           static_cast<double>(Math500().tasks.size());
  }

  uint64_t seed_;
  const htts::CapabilityModel cap_;
  const hllm::ModelWeights weights_;
  const double theta_;
  const htts::OutcomeRewardModel orm_;
  const htts::ProcessRewardModel prm_;
  const double accuracy_pct_;
  std::vector<htts::ReasoningTask> tasks_;  // the served questions, lengths scaled
};

// ---------------------------------------------------------------------------------------
// serve_open: an open loop of independent users at four fixed arrival rates.

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(uint64_t seed)
      : seed_(seed), weights_(hllm::ModelWeights::Random(hllm::ToyConfig(), kWeightSeed)) {
    for (size_t i = 0; i < kRatesHz.size(); ++i) {
      // The traffic mix of bench_serving_slo (the repository's serving benchmark on the
      // same toy, batch 4 and preemption), with its prompt and answer lengths divided by
      // kLengthScale so that a pass of over 1000 requests fits the run's host time.
      hfront::TrafficOptions t;
      t.arrivals = i == kNominal ? kNominalArrivals : kSideArrivals;
      t.seed = seed * 3 + i;
      t.arrival_rate_hz = kRatesHz[i];
      t.burst_fraction = 0.4;
      t.burst_size = 5;
      t.interactive_fraction = 0.35;
      t.interactive_slo = {kTtftSloS, kTpotSloS};
      t.mean_prompt_tokens = 40 / kLengthScale;
      t.min_prompt_tokens = 8 / kLengthScale;
      t.mean_decode_tokens = 32 / kLengthScale;
      t.min_decode_tokens = 8 / kLengthScale;
      t.session_fraction = 0.25;
      t.session_turns = 3;
      t.mean_think_s = 0.5;
      std::vector<hfront::Request> trace = hfront::GenerateTraffic(t);
      // Every kLongEvery-th single-turn request carries a long-context prompt of a quarter
      // of the toy's context. A fixed share and length, rather than the generator's
      // Bernoulli draw, keep these rare, expensive requests alike across seeds: they set
      // the latency tails and the KV peak.
      int single = 0;
      for (hfront::Request& r : trace) {
        if (r.session < 0 && single++ % kLongEvery == kLongEvery / 2) {
          r.prompt_tokens = kMaxContext / 4;
        }
      }
      traces_.push_back(FitContext(std::move(trace), t.session_turns));
    }
  }

  void Warmup() override {
    std::vector<hfront::Request> head(traces_[kNominal].begin(),
                                      traces_[kNominal].begin() + kWarmupRequests);
    for (hfront::Request& r : head) {
      r.session = -1;
      r.turn_index = 0;
    }
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    std::unique_ptr<hserve::FunctionalBackend> backend = MakeBackend(dev);
    hserve::ContinuousBatcher batcher(*backend, ServeOpts());
    hfront::ServingEngine(batcher).Run(head);
  }

  Pass Run(Route route, Tracer* tracer) override {
    Pass pass;
    ServingSums serving;
    DeviceSums device;
    std::vector<RateLevel> levels;
    Latency lat;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < traces_.size(); ++i) {
      const std::vector<hfront::Request>& trace = traces_[i];
      hexsim::NpuDevice dev(hexsim::OnePlus12());
      std::unique_ptr<hserve::FunctionalBackend> backend = MakeBackend(dev);
      ProbeBackend probe(*backend, tracer);
      hserve::ExecutionBackend& be =
          route == Route::kDirect ? static_cast<hserve::ExecutionBackend&>(*backend) : probe;
      hserve::ContinuousBatcher batcher(be, ServeOpts());
      hfront::ServingEngine engine(batcher);
      const bool nominal = i == kNominal;
      std::vector<double> last_token_s(trace.size(), -1.0);
      engine.set_token_callback([&](const hfront::Request& r, int, double t) {
        double& last = last_token_s[static_cast<size_t>(r.id)];
        if (nominal && last >= 0.0) {
          lat.itl_s.Add(t - last);
        }
        last = t;
      });
      hfront::EngineSummary sum;
      {
        Span span(tracer, "frontend.ServingEngine::Run", static_cast<int64_t>(i));
        sum = engine.Run(trace);
      }
      const std::string rate_key = "rate" + std::to_string(i);
      pass.failures.Check(sum.schedule.error.empty(), rate_key + ": " + sum.schedule.error);
      pass.schedules.push_back(rate_key + " " + DumpSchedule(sum.schedule));
      pass.tokens += sum.schedule.decoded_tokens;
      serving.Add(sum.schedule);
      device.Add(sum.schedule.metrics);

      RateLevel level;
      level.rate_hz = kRatesHz[i];
      std::vector<double> arrivals, batch_arrival, batch_done;
      for (size_t k = 0; k < sum.requests.size(); ++k) {
        const hfront::RequestStats& st = sum.requests[k];
        const bool complete = st.done && st.tokens == trace[k].decode_tokens;
        pass.failures.Check(complete, rate_key + " request " + std::to_string(st.id) +
                                          " incomplete");
        pass.outputs[rate_key + "/req" + std::to_string(st.id)] =
            Hex(st.checksum) + ":" + std::to_string(st.tokens);
        if (st.turn_index == 0) {
          arrivals.push_back(st.arrival_s);  // the open loop's schedule; follow-ups trail it
        }
        const bool slo_bound = st.slo.ttft_s > 0.0 || st.slo.tpot_s > 0.0;
        if (slo_bound) {
          ++level.slo_total;
          level.slo_met += complete && st.slo_ok() ? 1 : 0;
        } else {
          batch_arrival.push_back(st.arrival_s);
          batch_done.push_back(st.done ? st.done_s : -1.0);
        }
        if (nominal) {
          if (st.admit_s >= 0.0) {
            serving.queue_wait_s.Add(st.admit_s - st.arrival_s);
          }
          if (complete) {
            lat.ttft_s.push_back(st.ttft_s());
            lat.answer_s.push_back(st.done_s - st.arrival_s);
          }
        }
      }
      std::sort(arrivals.begin(), arrivals.end());
      // Backlog trend: mean over the tenth of the initial arrivals up to the middle one,
      // against the last tenth; one batch of in-flight requests is noise, not growth. Below
      // the knee the last tenth's mean stayed under 5 for every seed tried; past it, over 17.
      const size_t n = arrivals.size();
      const size_t w = std::max<size_t>(1, n / 10);
      level.backlog_mid = MeanBacklog(batch_arrival, batch_done, arrivals, n / 2 + 1 - w, n / 2 + 1);
      level.backlog_last = MeanBacklog(batch_arrival, batch_done, arrivals, n - w, n);
      level.slack = kBatch;
      level.cap = 2 * kBatch;
      levels.push_back(level);
      const std::string tag = ".rate" + std::to_string(i);
      const hserve::ScheduleResult& sr = sum.schedule;
      pass.sim["busy_share" + tag] = (sr.prefill_s + sr.decode_s) / sr.makespan_s;
      pass.sim["backlog_mid" + tag] = level.backlog_mid;
      pass.sim["backlog_last" + tag] = level.backlog_last;
      if (nominal) {
        const hserve::ScheduleResult& s = sum.schedule;
        lat.slo_total = level.slo_total;
        lat.slo_met = level.slo_met;
        pass.sim["sim_ms_per_token"] =
            s.steps > 0 ? s.decode_s / static_cast<double>(s.steps) * 1e3 : 0.0;
        pass.sim["sim_mj_per_token"] =
            s.decoded_tokens > 0 ? s.energy_j / static_cast<double>(s.decoded_tokens) * 1e3 : 0.0;
        pass.sim["kv_peak_mib"] = static_cast<double>(s.kv.peak_physical_bytes()) / kMiB;
        pass.sim["samples.requests"] = static_cast<double>(sum.requests.size());
      }
      pass.sim["slo_attainment.rate" + std::to_string(i)] =
          level.slo_total > 0
              ? static_cast<double>(level.slo_met) / static_cast<double>(level.slo_total)
              : 0.0;
    }
    const double accuracy = SingleSampleAccuracy(cap_, seed_, tracer);
    pass.host_s = Since(t0);

    pass.sim["accuracy_pct"] = accuracy;
    pass.sim["max_slo_rate_hz"] = MaxSloRate(levels);
    lat.Export(pass.sim);
    serving.Export(pass.layer);
    device.Export(pass.tokens, pass.layer);
    return pass;
  }

 private:
  static constexpr int kBatch = 4;
  static constexpr int kMaxContext = 512;
  static constexpr int64_t kResidentBlocks = 8;
  static constexpr int64_t kPoolBlocks = 512;
  static constexpr int kLengthScale = 8;
  // 1440 initial arrivals at the nominal rate make over 2000 requests with session turns:
  // with half as many, ttft_p99_ms spread by 0.38 (interquartile range over the median)
  // across ten seeds, with these 0.14.
  static constexpr int kNominalArrivals = 1440;
  static constexpr int kSideArrivals = 100;
  static constexpr int kWarmupRequests = 16;
  static constexpr int kLongEvery = 10;
  // SLO scale 5 over the toy's uncontended latencies (OnePlus 12, simulated): the TTFT
  // limit is five times a 128-token prompt's TTFT served alone (0.354 ms); the per-token
  // limit is five times the longest gap one such prompt opens between two tokens, its
  // prefill plus a full 4-row decode step (0.087 ms).
  static constexpr double kSloScale = 5.0;
  static constexpr double kTtftSloS = kSloScale * 0.354e-3;
  static constexpr double kTpotSloS = kSloScale * (0.354e-3 + 0.087e-3);
  static constexpr uint64_t kWeightSeed = 1234;
  // Initial-arrival rates. The nominal one (index kNominal) carries the percentiles; the
  // others feed only max_slo_rate_hz. Between 2800 and 5600 per second whether the SLO
  // holds depends on the seed; 1400 holds and 8000 fails for every seed tried, so the
  // ladder brackets that knee and a capacity change of about 2x moves the metric.
  static constexpr size_t kNominal = 1;
  static constexpr std::array<double, 4> kRatesHz = {350.0, 700.0, 1400.0, 8000.0};

  static hserve::ServeOptions ServeOpts() {
    hserve::ServeOptions so;
    so.max_batch = kBatch;
    so.enable_preemption = true;
    return so;
  }

  std::unique_ptr<hserve::FunctionalBackend> MakeBackend(hexsim::NpuDevice& dev) const {
    auto backend = std::make_unique<hserve::FunctionalBackend>(
        dev, weights_, kBatch, kMaxContext, kPoolBlocks, hquant::KvDtype::kInt8);
    hkv::KvOffloadOptions offload;
    offload.resident_block_budget = kResidentBlocks;
    backend->ConfigureLongContext(offload, hkern::AttnWindowSpec{});
    return backend;
  }

  // Keeps every session's accumulated dialog inside the toy's context (the generator draws
  // lengths without that bound): each turn may use an equal share of the room its session
  // has left, and a longer prompt or answer is cut to fit.
  static std::vector<hfront::Request> FitContext(std::vector<hfront::Request> trace,
                                                 int session_turns) {
    std::map<int, int> session_len;
    for (hfront::Request& r : trace) {
      const bool in_session = r.session >= 0;
      int& used = session_len[in_session ? r.session : -1 - r.id];
      const int turns_left = in_session ? session_turns - r.turn_index : 1;
      const int share = (kMaxContext - used) / std::max(1, turns_left);
      r.decode_tokens = std::max(1, std::min(r.decode_tokens, share / 2));
      r.prompt_tokens = std::max(1, std::min(r.prompt_tokens, share - r.decode_tokens));
      used += r.prompt_tokens + r.decode_tokens;
    }
    return trace;
  }

  uint64_t seed_;
  const htts::CapabilityModel cap_;
  const hllm::ModelWeights weights_;
  std::vector<std::vector<hfront::Request>> traces_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tts_sweep", "tts_toy", "serve_open"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tts_sweep") {
    return std::make_unique<SweepWorkload>(seed);
  }
  if (name == "tts_toy") {
    return std::make_unique<ToyWorkload>(seed);
  }
  if (name == "serve_open") {
    return std::make_unique<ServeWorkload>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
