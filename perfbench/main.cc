// The repository benchmark program (README.md in this directory has the metric table, the
// per-layer map and the rules). One invocation runs one workload:
//
//   perfbench --workload <tts_sweep|tts_toy|serve_open> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>] [--reference-dir <dir>]
//             [--write-reference]
//
// It sets the workload up several times (the median is setup_s), runs whole untraced
// passes for --seconds, then makes the check passes: straight to the backend without the
// probe (decorator parity), at one lane (lane invariance) and, with --trace 1, traced
// (bit-identity and the per-layer numbers). The last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::FailureTally;
using perfbench::Pass;
using perfbench::Route;
using Clock = std::chrono::steady_clock;

// Set-up repetitions (setup_s is their median) and the most passes the timed phase makes.
constexpr int kSetups = 5;
constexpr size_t kMaxPasses = 200;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported on every workload (README.md defines each per workload).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_tokens_per_s", "tok/s"},
    {"peak_rss_mib", "MiB"},
    {"sim_ms_per_token", "sim_ms"},
    {"sim_mj_per_token", "sim_mJ"},
    {"accuracy_pct", "%"},
    {"kv_peak_mib", "MiB"},
    {"answer_p50_s", "sim_s"},
    {"itl_p50_ms", "sim_ms"},
    {"itl_p99_ms", "sim_ms"},
    {"ttft_p50_ms", "sim_ms"},
    {"ttft_p99_ms", "sim_ms"},
    {"slo_attainment", "ratio"},
    {"max_slo_rate_hz", "sim_Hz"},
};

// Per-layer metrics of the traced pass, reported on every workload; a layer the workload
// does not execute reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"serving.self_host_s", "s"},
    {"serving.backend_step_host_s", "s"},
    {"serving.backend_admit_host_s", "s"},
    {"serving.backend_step_calls_per_token", "count"},
    {"serving.queue_wait_p99_ms", "sim_ms"},
    {"serving.admission_deferrals", "count"},
    {"serving.preemptions", "count"},
    {"serving.prefill_share", "ratio"},
    {"serving.avg_active_batch", "rows"},
    {"serving.overlap_saved_share", "ratio"},
    {"llm.host_us_per_token", "us"},
    {"hexsim.host_s_per_gmac", "s"},
    {"hexsim.hmx.busy_s_per_token", "sim_s"},
    {"hexsim.hvx.busy_s_per_token", "sim_s"},
    {"hexsim.dma.busy_s_per_token", "sim_s"},
    {"hexsim.cpu.busy_s_per_token", "sim_s"},
    {"hexsim.hmx.macs_per_token", "count"},
    {"hexsim.hvx.packets_per_token", "count"},
    {"hexsim.dma.ddr_bytes_per_token", "B"},
    {"hexsim.tag_s_per_token.attn.qk", "sim_s"},
    {"hexsim.tag_s_per_token.attn.softmax", "sim_s"},
    {"hexsim.tag_s_per_token.attn.pv", "sim_s"},
    {"hexsim.tag_s_per_token.attn.pack", "sim_s"},
    {"hexsim.tag_s_per_token.attn.rescale", "sim_s"},
    {"hexsim.tag_s_per_token.attn.kv_dequant", "sim_s"},
    {"hexsim.tag_s_per_token.linear.dequant", "sim_s"},
    {"hexsim.tag_s_per_token.misc", "sim_s"},
    {"kernels.flash_attention.calls", "count"},
    {"kernels.attn_kv_dequant.calls", "count"},
    {"kernels.ddr_bytes_per_attention_call", "B"},
    {"kvcache.peak_physical_blocks", "count"},
    {"kvcache.sharing_ratio", "ratio"},
    {"kvcache.cow_splits", "count"},
    {"kvcache.offload.demand_faults", "count"},
    {"kvcache.offload.prefetch_hit_ratio", "ratio"},
    {"kvcache.offload.stall_s", "sim_s"},
    {"kvcache.offload.flash_read_bytes", "B"},
    {"kvcache.offload.flash_write_bytes", "B"},
    {"exec.tasks_executed_per_token", "count"},
    {"exec.tasks_stolen_per_token", "count"},
    {"exec.parallel_for_calls_per_token", "count"},
    {"runtime.engine_host_s", "s"},
    {"runtime.step_sim_ms", "sim_ms"},
    {"tts.method_host_s", "s"},
    {"tts.jobs_emitted", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct PoolCounters {
  int64_t executed = 0;
  int64_t stolen = 0;
  int64_t parallel_for = 0;
};

PoolCounters ReadPool() {
  obs::Registry reg;
  hexec::ExportPoolMetrics(reg);
  const obs::MetricsSnapshot m = reg.Snapshot();
  return {m.CounterValue("exec.tasks.executed"), m.CounterValue("exec.tasks.stolen"),
          m.CounterValue("exec.parallel_for.calls")};
}

// Every unit of `want` must be present in `got` with the same value; each is one
// attempted operation.
void CompareOutputs(const std::map<std::string, std::string>& want,
                    const std::map<std::string, std::string>& got, const std::string& what,
                    FailureTally* f) {
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    f->Check(it != got.end() && it->second == value, what + ": " + key + " differs");
  }
  f->Check(want.size() == got.size(), what + ": unit count differs");
}

// Every scheduling result (with its metrics snapshot) must be identical; a mismatch
// reports the first differing run and the text around the first differing character.
void CompareSchedules(const Pass& want, const Pass& got, const std::string& what,
                      FailureTally* f) {
  for (size_t i = 0; i < std::max(want.schedules.size(), got.schedules.size()); ++i) {
    const std::string a = i < want.schedules.size() ? want.schedules[i] : "";
    const std::string b = i < got.schedules.size() ? got.schedules[i] : "";
    if (a != b) {
      size_t k = 0;
      while (k < a.size() && k < b.size() && a[k] == b[k]) {
        ++k;
      }
      const size_t from = k > 60 ? k - 60 : 0;
      f->Check(false, what + ": scheduling result " + std::to_string(i) + " differs at ..." +
                          a.substr(from, 100) + " vs ..." + b.substr(from, 100));
      return;
    }
  }
  f->Check(true, "");
}

void Absorb(const FailureTally& from, FailureTally* into) {
  into->Attempt(from.attempted() - from.failed());
  for (int64_t i = 0; i < from.failed(); ++i) {
    into->Attempt();
    into->Fail(i < static_cast<int64_t>(from.reasons().size()) ? from.reasons()[i]
                                                               : "pass failure");
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string reference_dir;
  bool write_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--write-reference") {
      a->write_reference = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return false;
    }
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
      if (std::string(v) != "0" && std::string(v) != "1") {
        return false;
      }
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--reference-dir") {
      a->reference_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

std::string ReferencePath(const Args& a) {
  return a.reference_dir + "/" + a.workload + ".json";
}

// Checks the analysis pass against the stored reference when it was recorded for this
// seed. Returns false when no reference applies.
bool CheckReference(const Args& a, const Pass& analysis, FailureTally* f) {
  std::ifstream in(ReferencePath(a));
  if (!in) {
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  obs::Json ref;
  std::string error;
  if (!obs::Json::Parse(ss.str(), &ref, &error) || !ref.is_object() ||
      ref.Find("seed") == nullptr || ref.Find("outputs") == nullptr) {
    f->Check(false, "unreadable reference " + ReferencePath(a) + ": " + error);
    return true;
  }
  if (static_cast<uint64_t>(ref.At("seed").AsInt()) != a.seed) {
    return false;
  }
  std::map<std::string, std::string> want;
  for (const auto& [key, value] : ref.At("outputs").members()) {
    want[key] = value.AsString();
  }
  CompareOutputs(want, analysis.outputs, "reference", f);
  return true;
}

void WriteReference(const Args& a, const Pass& analysis) {
  obs::Json outputs = obs::Json::Object();
  for (const auto& [key, value] : analysis.outputs) {
    outputs.Set(key, value);
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("workload", a.workload);
  doc.Set("seed", static_cast<int64_t>(a.seed));
  doc.Set("outputs", std::move(outputs));
  obs::WriteFile(ReferencePath(a), doc.Dump(1) + "\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (!ParseArgs(argc, argv, &args) ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tts_sweep|tts_toy|serve_open> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] [--reference-dir <dir>] "
                 "[--write-reference]\n");
    return 2;
  }
  const int lanes = hexec::MaxSlots();
  std::printf("workload %s  seed %llu  lanes %d  seconds %.1f  trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), lanes,
              args.seconds, args.trace ? 1 : 0);

  // Set-up: inputs from the seed, the stack's construction and a warm-up that fills its lazy
  // caches, repeated; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = perfbench::MakeWorkload(args.workload, args.seed);
    w->Warmup();
    setup_s.push_back(Since(t0));
  }

  // Timed phase: whole untraced passes until the time is up.
  std::vector<Pass> measured;
  const Clock::time_point start = Clock::now();
  do {
    measured.push_back(w->measured_is_opaque() ? w->RunOpaque() : w->Run(Route::kProbe, nullptr));
  } while (Since(start) < args.seconds && measured.size() < kMaxPasses);
  const double peak_rss_mib = PeakRssMib();

  // Checks. The analysis pass supplies the simulated metrics; every other pass must match it.
  FailureTally f;
  const Pass analysis = w->measured_is_opaque() ? w->Run(Route::kProbe, nullptr) : measured[0];
  Absorb(analysis.failures, &f);
  std::vector<double> tok_per_s;
  std::vector<double> measured_host_s;
  for (size_t i = 0; i < measured.size(); ++i) {
    const Pass& m = measured[i];
    const std::string what = "pass " + std::to_string(i);
    if (w->measured_is_opaque()) {
      w->CheckMeasured(m, analysis, &f);
    } else if (i > 0) {
      Absorb(m.failures, &f);
      CompareOutputs(analysis.outputs, m.outputs, what, &f);
      CompareSchedules(analysis, m, what, &f);
    }
    const int64_t tokens = w->measured_is_opaque() ? analysis.tokens : m.tokens;
    tok_per_s.push_back(static_cast<double>(tokens) / m.host_s);
    measured_host_s.push_back(m.host_s);
  }
  const bool referenced = CheckReference(args, analysis, &f);
  {
    const Pass direct = w->Run(Route::kDirect, nullptr);
    Absorb(direct.failures, &f);
    CompareOutputs(analysis.outputs, direct.outputs, "without the probe", &f);
    CompareSchedules(analysis, direct, "without the probe", &f);
  }
  {
    hexec::ParallelismOverride one_lane(1);
    const Pass serial = w->Run(Route::kProbe, nullptr);
    Absorb(serial.failures, &f);
    CompareOutputs(analysis.outputs, serial.outputs, "at one lane", &f);
  }

  // Metrics. The per-layer ones come from a traced pass, made only when they are asked for.
  std::map<std::string, double> values;
  if (!args.trace) {
    values = analysis.sim;
    values["setup_s"] = Median(setup_s);
    values["host_tokens_per_s"] = Median(tok_per_s);
    values["peak_rss_mib"] = peak_rss_mib;
  } else {
    perfbench::Tracer tracer;
    const PoolCounters pool0 = ReadPool();
    const Pass traced = w->Run(Route::kProbe, &tracer);
    const PoolCounters pool1 = ReadPool();
    Absorb(traced.failures, &f);
    CompareOutputs(analysis.outputs, traced.outputs, "traced", &f);
    CompareSchedules(analysis, traced, "traced", &f);
    values = traced.layer;
    const double tokens = static_cast<double>(std::max<int64_t>(1, traced.tokens));
    const double step_s =
        tracer.TotalSeconds("backend.Step") + tracer.TotalSeconds("backend.SpeculativeStep");
    const double admit_s = tracer.TotalSeconds("backend.AdmitSlot");
    const int64_t step_calls =
        tracer.Calls("backend.Step") + tracer.Calls("backend.SpeculativeStep");
    values["serving.self_host_s"] = tracer.SelfSeconds("serving.") + tracer.SelfSeconds("frontend.");
    values["serving.backend_step_host_s"] = step_s;
    values["serving.backend_admit_host_s"] = admit_s;
    values["serving.backend_step_calls_per_token"] = static_cast<double>(step_calls) / tokens;
    // The functional model ran when the device counted HMX MACs (the analytic path has
    // no device). The MACs include the prefills done inside AdmitSlot, so the host time
    // per GMAC covers admissions and steps alike.
    const auto macs = traced.layer.find("hexsim.hmx.macs");
    const double gmac = macs != traced.layer.end() ? macs->second / 1e9 : 0.0;
    if (gmac > 0.0) {
      values["llm.host_us_per_token"] = step_s / tokens * 1e6;
      values["hexsim.host_s_per_gmac"] = (step_s + admit_s) / gmac;
    }
    values["exec.tasks_executed_per_token"] =
        static_cast<double>(pool1.executed - pool0.executed) / tokens;
    values["exec.tasks_stolen_per_token"] = static_cast<double>(pool1.stolen - pool0.stolen) / tokens;
    values["exec.parallel_for_calls_per_token"] =
        static_cast<double>(pool1.parallel_for - pool0.parallel_for) / tokens;
    values["runtime.engine_host_s"] = tracer.TotalSeconds("runtime.");
    values["tts.method_host_s"] = tracer.TotalSeconds("tts.");
    const double untraced_s =
        w->measured_is_opaque() ? analysis.host_s : Median(measured_host_s);
    values["trace.overhead_share"] = traced.host_s / untraced_s - 1.0;
    values["trace.spans"] = static_cast<double>(tracer.recorded() + tracer.dropped());
    std::printf("  %-34s %.6g\n", "host tok/s traced",
                static_cast<double>(traced.tokens) / traced.host_s);
    if (!args.trace_out.empty()) {
      obs::WriteFile(args.trace_out, tracer.ChromeJson());
    }
  }

  // Report.
  std::printf("passes %zu (host s min %.3f median %.3f max %.3f)  setup runs %d  reference %s  "
              "checks %lld attempted, %lld failed\n",
              measured.size(), *std::min_element(measured_host_s.begin(), measured_host_s.end()),
              Median(measured_host_s),
              *std::max_element(measured_host_s.begin(), measured_host_s.end()), kSetups,
              referenced ? "matched against the stored outputs" : "none for this seed",
              static_cast<long long>(f.attempted()), static_cast<long long>(f.failed()));
  for (const std::string& r : f.reasons()) {
    std::printf("FAILED: %s\n", r.c_str());
  }
  for (const auto& [name, v] : analysis.sim) {
    if (name.find('.') != std::string::npos) {  // sample counts and per-rate details
      std::printf("  %-34s %.6g\n", name.c_str(), v);
    }
  }
  const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
  obs::Json metrics = obs::Json::Object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-40s %.9g %s\n", d.name, v, d.unit);
    obs::Json m = obs::Json::Object();
    m.Set("value", v);
    m.Set("unit", d.unit);
    metrics.Set(d.name, std::move(m));
  }
  if (args.write_reference && f.ok() && !args.reference_dir.empty()) {
    WriteReference(args, analysis);
    std::printf("wrote %s\n", ReferencePath(args).c_str());
  }
  obs::Json result = obs::Json::Object();
  result.Set("correct", f.ok());
  result.Set("attempted", f.attempted());
  result.Set("failed", f.failed());
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return f.ok() ? 0 : 1;
}
