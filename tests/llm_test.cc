#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"
#include "src/llm/model_config.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/obs/metrics.h"
#include "src/quant/error_stats.h"
#include "src/serving/execution_backend.h"

// Global heap-allocation counter backing SteadyStateDecodeDoesNotHeapAllocate: replacing
// the allocation functions in one TU replaces them binary-wide, so every operator new in
// the test process funnels through the counter. malloc/free-compatible, as required of
// replacements.
static std::atomic<int64_t> g_heap_allocs{0};

namespace {
void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n != 0 ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace hllm {
namespace {

using hexllm::F16;
using hexllm::Rng;

// --- model configs ---

TEST(ModelConfigTest, ParameterCountsMatchPublishedSizes) {
  for (const auto* m : EvaluationModels()) {
    double params = 0.0;
    for (const auto& mat : m->LayerMatrices()) {
      params += static_cast<double>(mat.k) * mat.n;
    }
    params *= m->layers;
    params += static_cast<double>(m->vocab) * m->hidden;  // embedding (tied lm_head)
    EXPECT_NEAR(params / 1e9, m->params_b, 0.12 * m->params_b) << m->name;
  }
}

TEST(ModelConfigTest, DmabufMatchesFigure16) {
  // §7.5: pmap reports 1056 MiB (1.5B) and 2090 MiB (3B) of dmabuf under a 4096-token
  // context budget.
  const int64_t mib = 1 << 20;
  EXPECT_NEAR(static_cast<double>(Qwen25_1_5B().DmabufBytes(4096, 16)) / mib, 1056.0, 80.0);
  EXPECT_NEAR(static_cast<double>(Qwen25_3B().DmabufBytes(4096, 16)) / mib, 2090.0, 150.0);
}

TEST(ModelConfigTest, GqaShapes) {
  const auto& q = Qwen25_1_5B();
  EXPECT_EQ(q.q_dim(), 1536);
  EXPECT_EQ(q.kv_dim(), 256);
  EXPECT_EQ(q.heads % q.kv_heads, 0);
  const auto& l = Llama32_1B();
  EXPECT_EQ(l.q_dim(), 2048);
  EXPECT_EQ(l.kv_dim(), 512);
}

TEST(ModelConfigTest, FfnDownUsesQ8) {
  // §7.1: FFN down matrices use Q8_0 to protect accuracy.
  for (const auto* m : EvaluationModels()) {
    for (const auto& mat : m->LayerMatrices()) {
      if (std::string(mat.name) == "w_down") {
        EXPECT_EQ(mat.scheme, hquant::WeightScheme::kQ8_0);
      } else {
        EXPECT_EQ(mat.scheme, hquant::WeightScheme::kQ4_0);
      }
    }
  }
}

// --- quantized linear ---

TEST(QuantizedLinearTest, DequantizeReconstructsWithinQ4Error) {
  Rng rng(3);
  const int64_t k = 64, n = 64;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  const auto lin = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ4_0);
  const auto back = lin.Dequantize();
  const auto err = hquant::ComputeErrorStats(w, back);
  EXPECT_LT(err.rel_rms, 0.12);
  EXPECT_GT(err.cosine, 0.99);
}

TEST(QuantizedLinearTest, ForwardMatchesDequantizedMatmul) {
  Rng rng(4);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  const int64_t k = 64, n = 96;
  const int m = 3;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  for (const auto scheme : {hquant::WeightScheme::kQ4_0, hquant::WeightScheme::kQ8_0}) {
    const auto lin = QuantizedLinear::Create(w, k, n, scheme);
    const auto wd = lin.Dequantize();
    std::vector<F16> x(static_cast<size_t>(m) * k);
    for (auto& v : x) {
      v = F16(static_cast<float>(rng.NextGaussian() * 0.3));
    }
    std::vector<F16> y(static_cast<size_t>(m) * n);
    lin.Forward(dev, x.data(), y.data(), m);
    for (int mi = 0; mi < m; ++mi) {
      for (int64_t ni = 0; ni < n; ++ni) {
        float expected = 0.0f;
        for (int64_t ki = 0; ki < k; ++ki) {
          expected += x[static_cast<size_t>(mi) * k + ki].ToFloat() *
                      hexllm::RoundToF16(wd[static_cast<size_t>(ni * k + ki)]);
        }
        EXPECT_NEAR(y[static_cast<size_t>(mi) * n + ni].ToFloat(), expected,
                    std::fabs(expected) * 3e-3 + 2e-2);
      }
    }
  }
}

TEST(QuantizedLinearTest, QuantizedBytesMatchBpw) {
  Rng rng(5);
  const int64_t k = 128, n = 128;
  std::vector<float> w(static_cast<size_t>(k * n), 0.01f);
  const auto q4 = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ4_0);
  const auto q8 = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ8_0);
  EXPECT_EQ(q4.quantized_bytes(), k * n * 18 / 32);  // 4.5 bpw
  EXPECT_EQ(q8.quantized_bytes(), k * n * 34 / 32);  // 8.5 bpw
}

// --- KV cache ---

TEST(KvCacheTest, IndexingAndAdvance) {
  const ModelConfig c = ToyConfig();
  KvCache kv(c.layers, c.kv_dim(), /*num_seqs=*/2, /*max_context=*/64);
  EXPECT_EQ(kv.length(0), 0);
  // Writes target the append region: every layer stores its rows for a position, then the
  // sequence advances. Distinct (layer, seq, k/v) rows must not alias.
  kv.KeyRow(0, 0, 0)[0] = F16(1.5f);
  kv.ValueRow(0, 0, 0)[0] = F16(2.0f);
  kv.KeyRow(1, 0, 0)[0] = F16(3.0f);
  kv.KeyRow(0, 1, 0)[0] = F16(4.0f);
  kv.Advance(0);
  EXPECT_EQ(kv.length(0), 1);
  EXPECT_EQ(kv.length(1), 0);
  EXPECT_FLOAT_EQ(kv.KeyRowAt(0, 0, 0)[0].ToFloat(), 1.5f);
  EXPECT_FLOAT_EQ(kv.ValueRowAt(0, 0, 0)[0].ToFloat(), 2.0f);
  EXPECT_FLOAT_EQ(kv.KeyRowAt(1, 0, 0)[0].ToFloat(), 3.0f);
  EXPECT_FLOAT_EQ(kv.KeyRowAt(0, 1, 0)[0].ToFloat(), 4.0f);
  kv.ResetSeq(0);
  EXPECT_EQ(kv.length(0), 0);
}

TEST(KvCacheTest, PoolSizeCoversDenseWorstCase) {
  const ModelConfig c = ToyConfig();
  // The default pool must hold every sequence at full context (dense worst case, no
  // sharing), and the block-pool bytes for one block must match the dense config math.
  KvCache kv(c.layers, c.kv_dim(), /*num_seqs=*/2, /*max_context=*/128);
  EXPECT_GE(kv.num_blocks() * static_cast<int64_t>(kv.block_tokens()),
            2 * static_cast<int64_t>(128));
  EXPECT_EQ(kv.stats().bytes_per_block, c.KvCacheBytes(kv.block_tokens()));
  EXPECT_EQ(kv.byte_size(), kv.num_blocks() * kv.stats().bytes_per_block);
}

// --- functional transformer on the simulator ---

class TransformerTest : public ::testing::Test {
 protected:
  TransformerTest()
      : config_(ToyConfig()),
        weights_(ModelWeights::Random(config_, 42)),
        dev_(hexsim::OnePlus12()) {}

  ModelConfig config_;
  ModelWeights weights_;
  hexsim::NpuDevice dev_;
};

TEST_F(TransformerTest, StepProducesFiniteLogits) {
  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<int> tokens{1, 2};
  std::vector<float> logits(2 * static_cast<size_t>(config_.vocab));
  tf.Step(tokens, logits);
  for (const float v : logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Logits are non-degenerate (some spread).
  float mn = logits[0], mx = logits[0];
  for (const float v : logits) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx - mn, 0.01f);
  EXPECT_EQ(tf.kv().length(0), 1);
  EXPECT_EQ(tf.kv().length(1), 1);
}

TEST_F(TransformerTest, DecodeIsDeterministic) {
  std::vector<int> out1;
  std::vector<int> out2;
  for (auto* out : {&out1, &out2}) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    int tok = 7;
    for (int i = 0; i < 6; ++i) {
      tf.Step({&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      out->push_back(tok);
    }
  }
  EXPECT_EQ(out1, out2);
}

TEST_F(TransformerTest, FullCoverageWindowDecodesBitIdenticalTokens) {
  // A sliding window + sinks covering the whole (short) context must be normalized away
  // end-to-end: tokens AND logits stay bit-identical to the unwindowed transformer
  // (docs/long_context.md's CI invariant).
  std::vector<std::vector<int>> outs;
  std::vector<std::vector<float>> last_logits;
  for (int use_window = 0; use_window < 2; ++use_window) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    if (use_window != 0) {
      hkern::AttnWindowSpec w;
      w.sink_blocks = 1;
      w.window_blocks = 8;  // >= the 16-token context in blocks — full coverage
      tf.SetAttentionWindow(w);
      ASSERT_TRUE(tf.attention_window().enabled());
    }
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    std::vector<int> out;
    int tok = 7;
    for (int i = 0; i < 6; ++i) {
      tf.Step({&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      out.push_back(tok);
    }
    outs.push_back(std::move(out));
    last_logits.push_back(std::move(logits));
  }
  EXPECT_EQ(outs[0], outs[1]);
  for (size_t i = 0; i < last_logits[0].size(); ++i) {
    ASSERT_EQ(last_logits[0][i], last_logits[1][i]) << i;
  }
}

TEST_F(TransformerTest, BatchedStepMatchesSingleSequence) {
  // Two independent sequences decoded as a batch must produce the same logits as decoding
  // each alone (row independence of every kernel).
  std::vector<float> logits_batch(2 * static_cast<size_t>(config_.vocab));
  {
    Transformer tf(dev_, weights_, 2, 16);
    std::vector<int> tokens{5, 9};
    tf.Step(tokens, logits_batch);
  }
  for (int seq = 0; seq < 2; ++seq) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    const int tok = (seq == 0) ? 5 : 9;
    tf.Step({&tok, 1}, logits);
    for (int64_t v = 0; v < config_.vocab; ++v) {
      EXPECT_NEAR(logits[static_cast<size_t>(v)],
                  logits_batch[static_cast<size_t>(seq * config_.vocab + v)], 1e-3)
          << "seq " << seq << " vocab " << v;
    }
  }
}

TEST_F(TransformerTest, PrefillAdvancesContext) {
  Transformer tf(dev_, weights_, 1, 16);
  std::vector<int> prompt{1, 2, 3, 4};
  tf.Prefill(0, prompt);
  EXPECT_EQ(tf.kv().length(0), 4);
}

TEST_F(TransformerTest, ChunkedPrefillMatchesTokenByToken) {
  // Causal chunked prefill must leave the model in the same state as decoding the prompt
  // token by token: the next-step logits agree.
  const std::vector<int> prompt{11, 402, 3, 77, 250, 9, 18};
  std::vector<float> logits_chunked(static_cast<size_t>(config_.vocab));
  std::vector<float> logits_stepwise(static_cast<size_t>(config_.vocab));
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 64);
    tf.Prefill(0, prompt);
    const int tok = 5;
    tf.Step({&tok, 1}, logits_chunked);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 64);
    std::vector<float> scratch(static_cast<size_t>(config_.vocab));
    for (const int t : prompt) {
      tf.Step({&t, 1}, scratch);
    }
    const int tok = 5;
    tf.Step({&tok, 1}, logits_stepwise);
  }
  for (int64_t v = 0; v < config_.vocab; ++v) {
    EXPECT_NEAR(logits_chunked[static_cast<size_t>(v)],
                logits_stepwise[static_cast<size_t>(v)], 0.02)
        << v;
  }
}

TEST_F(TransformerTest, MultiChunkPrefillCrossesChunkBoundary) {
  // Prompts longer than one 32-token chunk must still produce coherent state.
  std::vector<int> prompt(40);
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<int>((i * 13 + 7) % 512);
  }
  Transformer tf(dev_, weights_, 1, 64);
  tf.Prefill(0, prompt);
  EXPECT_EQ(tf.kv().length(0), 40);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 2;
  tf.Step({&tok, 1}, logits);
  for (const float v : logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(TransformerTest, ContextChangesPrediction) {
  // The same input token after different prefixes must yield different logits (attention
  // actually reads the KV cache).
  std::vector<float> a(static_cast<size_t>(config_.vocab));
  std::vector<float> b(static_cast<size_t>(config_.vocab));
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<int> prompt{1, 2, 3};
    tf.Prefill(0, prompt);
    const int tok = 8;
    tf.Step({&tok, 1}, a);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<int> prompt{400, 301, 77};
    tf.Prefill(0, prompt);
    const int tok = 8;
    tf.Step({&tok, 1}, b);
  }
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff += std::fabs(a[i] - b[i]);
  }
  EXPECT_GT(diff, 0.01);
}

TEST_F(TransformerTest, ChargesAllEngineCategories) {
  Transformer tf(dev_, weights_, 1, 16);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 3;
  tf.Step({&tok, 1}, logits);
  const auto& ledger = dev_.ledger();
  EXPECT_GT(ledger.TagSeconds("linear.dequant"), 0.0);
  EXPECT_GT(ledger.TagSeconds("gemm.hmx"), 0.0);
  EXPECT_GT(ledger.TagSeconds("attn.softmax"), 0.0);
  EXPECT_GT(ledger.TagSeconds("misc.rmsnorm"), 0.0);
  EXPECT_GT(ledger.TagSeconds("misc.silu"), 0.0);
}

// --- zero-copy decode hot path (docs/performance.md) ---

// Per-sequence contiguous K/V history for the gather-style reference decode.
struct GatherSeq {
  std::vector<std::vector<F16>> k;  // [layer] -> [len * kv_dim] rows
  std::vector<std::vector<F16>> v;

  explicit GatherSeq(int layers) : k(static_cast<size_t>(layers)), v(static_cast<size_t>(layers)) {}
};

// One forward in the pre-zero-copy style: heap scratch, per-head gather of Q/K/V into
// contiguous buffers consumed by the contiguous FlashAttentionF16, theta_base RoPE, and
// the all-F16 lm_head. Span b is span_rows[b] consecutive rows of seqs[b] (empty
// span_rows: one row each); `causal` attends from the span base (the verify and prefill
// form) instead of the decode form, and empty `logits` stops before the final norm (a
// prefill chunk). The production forward (in-place paged attention, persistent
// workspace, dequant-once replay, blocked FP32 lm_head) must match this bit-for-bit in
// logits AND in every simulated charge.
void GatherReferenceStep(hexsim::NpuDevice& dev, const hkern::ExpLut& lut,
                         const ModelWeights& weights, std::span<const int> tokens,
                         std::span<GatherSeq* const> seqs, std::span<float> logits,
                         std::span<const int> span_rows = {}, bool causal = false) {
  const ModelConfig& c = weights.config;
  const int batch = static_cast<int>(tokens.size());
  const int hidden = c.hidden;
  const int q_dim = static_cast<int>(c.q_dim());
  const int kv_dim = static_cast<int>(c.kv_dim());
  const int dh = c.head_dim;
  const int group = c.heads / c.kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const auto rows_of = [&](size_t b) { return span_rows.empty() ? 1 : span_rows[b]; };

  std::vector<F16> x(static_cast<size_t>(batch) * hidden);
  std::vector<F16> xn(static_cast<size_t>(batch) * hidden);
  std::vector<F16> q(static_cast<size_t>(batch) * q_dim);
  std::vector<F16> k(static_cast<size_t>(batch) * kv_dim);
  std::vector<F16> v(static_cast<size_t>(batch) * kv_dim);
  std::vector<F16> attn(static_cast<size_t>(batch) * q_dim);
  std::vector<F16> proj(static_cast<size_t>(batch) * hidden);
  std::vector<F16> gate(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> up(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> act(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> kbuf;
  std::vector<F16> vbuf;
  std::vector<F16> qbuf;
  std::vector<F16> obuf;

  for (int b = 0; b < batch; ++b) {
    std::memcpy(x.data() + static_cast<int64_t>(b) * hidden,
                weights.embedding.data() +
                    static_cast<size_t>(tokens[static_cast<size_t>(b)]) * hidden,
                static_cast<size_t>(hidden) * 2);
  }

  for (int l = 0; l < c.layers; ++l) {
    const LayerWeights& lw = weights.layers[static_cast<size_t>(l)];
    hkern::RmsNormF16(dev, x.data(), lw.attn_norm.data(), xn.data(), batch, hidden,
                      c.rms_eps);
    lw.wq.Forward(dev, xn.data(), q.data(), batch);
    lw.wk.Forward(dev, xn.data(), k.data(), batch);
    lw.wv.Forward(dev, xn.data(), v.data(), batch);

    int r = 0;
    for (size_t b = 0; b < seqs.size(); ++b) {
      GatherSeq& s = *seqs[b];
      for (int i = 0; i < rows_of(b); ++i, ++r) {
        const int pos = static_cast<int>(s.k[static_cast<size_t>(l)].size()) / kv_dim;
        hkern::RopeHeadsF16(dev, q.data() + static_cast<int64_t>(r) * q_dim, c.heads, dh,
                            pos, c.rope_theta);
        hkern::RopeHeadsF16(dev, k.data() + static_cast<int64_t>(r) * kv_dim, c.kv_heads,
                            dh, pos, c.rope_theta);
        s.k[static_cast<size_t>(l)].insert(s.k[static_cast<size_t>(l)].end(),
                                           k.begin() + static_cast<int64_t>(r) * kv_dim,
                                           k.begin() + static_cast<int64_t>(r + 1) * kv_dim);
        s.v[static_cast<size_t>(l)].insert(s.v[static_cast<size_t>(l)].end(),
                                           v.begin() + static_cast<int64_t>(r) * kv_dim,
                                           v.begin() + static_cast<int64_t>(r + 1) * kv_dim);
      }
    }

    int r0 = 0;
    for (size_t b = 0; b < seqs.size(); ++b) {
      GatherSeq& s = *seqs[b];
      const int n = rows_of(b);
      const int kv_len = static_cast<int>(s.k[static_cast<size_t>(l)].size()) / kv_dim;
      kbuf.resize(static_cast<size_t>(kv_len) * dh);
      vbuf.resize(static_cast<size_t>(kv_len) * dh);
      qbuf.resize(static_cast<size_t>(n) * dh);
      obuf.resize(static_cast<size_t>(n) * dh);
      for (int h = 0; h < c.heads; ++h) {
        const int kvh = h / group;
        for (int p = 0; p < kv_len; ++p) {
          std::memcpy(kbuf.data() + static_cast<int64_t>(p) * dh,
                      s.k[static_cast<size_t>(l)].data() +
                          static_cast<int64_t>(p) * kv_dim + static_cast<int64_t>(kvh) * dh,
                      static_cast<size_t>(dh) * 2);
          std::memcpy(vbuf.data() + static_cast<int64_t>(p) * dh,
                      s.v[static_cast<size_t>(l)].data() +
                          static_cast<int64_t>(p) * kv_dim + static_cast<int64_t>(kvh) * dh,
                      static_cast<size_t>(dh) * 2);
        }
        for (int i = 0; i < n; ++i) {
          std::memcpy(qbuf.data() + static_cast<int64_t>(i) * dh,
                      q.data() + static_cast<int64_t>(r0 + i) * q_dim + h * dh,
                      static_cast<size_t>(dh) * 2);
        }
        hkern::FlashAttentionF16(dev, lut, hkern::SoftmaxVariant::kLut, qbuf.data(),
                                 kbuf.data(), vbuf.data(), obuf.data(), n, kv_len, dh, scale,
                                 causal ? kv_len - n : -1);
        for (int i = 0; i < n; ++i) {
          std::memcpy(attn.data() + static_cast<int64_t>(r0 + i) * q_dim + h * dh,
                      obuf.data() + static_cast<int64_t>(i) * dh, static_cast<size_t>(dh) * 2);
        }
      }
      r0 += n;
    }

    lw.wo.Forward(dev, attn.data(), proj.data(), batch);
    hkern::AddF16(dev, x.data(), proj.data(), x.data(), static_cast<int64_t>(batch) * hidden);
    hkern::RmsNormF16(dev, x.data(), lw.ffn_norm.data(), xn.data(), batch, hidden, c.rms_eps);
    lw.w_gate.Forward(dev, xn.data(), gate.data(), batch);
    lw.w_up.Forward(dev, xn.data(), up.data(), batch);
    hkern::SiluMulF16(dev, gate.data(), up.data(), act.data(),
                      static_cast<int64_t>(batch) * c.ffn_hidden);
    lw.w_down.Forward(dev, act.data(), proj.data(), batch);
    hkern::AddF16(dev, x.data(), proj.data(), x.data(), static_cast<int64_t>(batch) * hidden);
  }
  if (logits.empty()) {
    return;
  }

  hkern::RmsNormF16(dev, x.data(), weights.final_norm.data(), xn.data(), batch, hidden,
                    c.rms_eps);
  hkern::LmHeadForward(xn.data(), weights.lm_head.data(), logits.data(), batch, hidden,
                       c.vocab);
}

// Asserts the full simulated-activity profile of two devices is identical: every event
// count, DDR byte, per-unit instruction counter, and (same charges in the same order, so
// exactly equal) every busy-second total and tag.
void ExpectSameCharges(const hexsim::NpuDevice& a, const hexsim::NpuDevice& b) {
  EXPECT_EQ(a.ledger().counts(), b.ledger().counts());
  EXPECT_EQ(a.ledger().dma_bytes(), b.ledger().dma_bytes());
  EXPECT_EQ(a.hmx().tile_ops(), b.hmx().tile_ops());
  EXPECT_EQ(a.hvx().packets(), b.hvx().packets());
  EXPECT_EQ(a.hvx().vgather_ops(), b.hvx().vgather_ops());
  EXPECT_EQ(a.hvx().vscatter_ops(), b.hvx().vscatter_ops());
  EXPECT_EQ(a.hvx().vlut16_ops(), b.hvx().vlut16_ops());
  for (int e = 0; e < static_cast<int>(hexsim::Engine::kCount); ++e) {
    EXPECT_DOUBLE_EQ(a.ledger().EngineSeconds(static_cast<hexsim::Engine>(e)),
                     b.ledger().EngineSeconds(static_cast<hexsim::Engine>(e)))
        << hexsim::EngineName(static_cast<hexsim::Engine>(e));
  }
  ASSERT_EQ(a.ledger().tags().size(), b.ledger().tags().size());
  auto ib = b.ledger().tags().begin();
  for (const auto& [tag, seconds] : a.ledger().tags()) {
    EXPECT_EQ(tag, ib->first);
    EXPECT_DOUBLE_EQ(seconds, ib->second) << tag;
    ++ib;
  }
}

TEST_F(TransformerTest, PagedAttentionMatchesGatherReference) {
  // Multi-layer, GQA (4 heads over 2 KV heads), with a copy-on-write fork mid-decode: the
  // in-place paged attention path must reproduce the gather-style reference decode down to
  // the last logit bit and the last simulated counter.
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;

  hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
  hkern::ExpLut ref_lut(dev_ref);
  GatherSeq ref0(config_.layers);
  GatherSeq ref1(config_.layers);

  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<float> logits(2 * static_cast<size_t>(vocab));
  std::vector<float> ref_logits(2 * static_cast<size_t>(vocab));

  // Phase 1: three steps of sequence 0 alone.
  std::vector<int> tokens{7};
  std::vector<int> seq_ids{0};
  std::vector<GatherSeq*> ref_seqs{&ref0};
  for (int step = 0; step < 3; ++step) {
    tf.StepSeqs(tokens, seq_ids, std::span<float>(logits.data(), static_cast<size_t>(vocab)));
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs,
                        std::span<float>(ref_logits.data(), static_cast<size_t>(vocab)));
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * vocab), 0)
        << "phase-1 step " << step;
    tokens[0] = ArgmaxToken(std::span<const float>(logits.data(), static_cast<size_t>(vocab)));
  }

  // Fork sequence 0 into sequence 1: paged cache shares the blocks copy-on-write, the
  // reference duplicates the history.
  const int64_t handle = tf.kv().Retain(0);
  tf.kv().ShareFromHandle(handle, /*dst_seq=*/1, tf.kv().handle_length(handle));
  tf.kv().DropHandle(handle);
  ASSERT_EQ(tf.kv().length(1), 3);
  ref1 = ref0;

  // Phase 2: the sequences diverge — the first write into the shared tail block must
  // CoW-split it, never perturbing sequence 0.
  tokens = {tokens[0], (tokens[0] + 11) % static_cast<int>(vocab)};
  seq_ids = {0, 1};
  ref_seqs = {&ref0, &ref1};
  for (int step = 0; step < 4; ++step) {
    tf.StepSeqs(tokens, seq_ids, logits);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs, ref_logits);
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * 2 * vocab), 0)
        << "phase-2 step " << step;
    for (int b = 0; b < 2; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + static_cast<int64_t>(b) * vocab, static_cast<size_t>(vocab)));
    }
  }
  EXPECT_GE(tf.kv().stats().cow_splits, 1);

  ExpectSameCharges(dev_, dev_ref);
}

TEST_F(TransformerTest, ChunkedPrefillMatchesGatherReference) {
  // A 40-token prompt prefills as a 32-row and an 8-row causal chunk (more rows than
  // max_batch), then decodes: logits and every simulated charge match the gather
  // reference.
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;
  hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
  hkern::ExpLut ref_lut(dev_ref);
  GatherSeq ref(config_.layers);
  std::vector<GatherSeq*> ref_seqs{&ref};
  Transformer tf(dev_, weights_, /*max_batch=*/1, /*max_context=*/64);

  std::vector<int> prompt(40);
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<int>((i * 13 + 7) % vocab);
  }
  tf.Prefill(0, prompt);
  for (const int chunk_begin : {0, hkern::kAttnQTile}) {
    const std::span<const int> chunk = std::span<const int>(prompt).subspan(
        static_cast<size_t>(chunk_begin),
        std::min<size_t>(hkern::kAttnQTile, prompt.size() - chunk_begin));
    const int rows = static_cast<int>(chunk.size());
    GatherReferenceStep(dev_ref, ref_lut, weights_, chunk, ref_seqs, {}, {&rows, 1},
                        /*causal=*/true);
  }
  ASSERT_EQ(tf.kv().length(0), 40);

  std::vector<float> logits(static_cast<size_t>(vocab));
  std::vector<float> ref_logits(static_cast<size_t>(vocab));
  std::vector<int> tokens{2};
  for (int step = 0; step < 3; ++step) {
    tf.Step(tokens, logits);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs, ref_logits);
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * vocab), 0)
        << "step " << step;
    tokens[0] = ArgmaxToken(logits);
  }
  ExpectSameCharges(dev_, dev_ref);
}

TEST_F(TransformerTest, StepSpansMatchesGatherReference) {
  // The speculative verify forward: after a copy-on-write fork, one call mixes a 1-row and
  // a 3-row causal span (and the next call swaps them). Logits for every row and every
  // simulated charge match the gather reference.
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;
  hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
  hkern::ExpLut ref_lut(dev_ref);
  GatherSeq ref0(config_.layers);
  GatherSeq ref1(config_.layers);
  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/32, /*kv_pool_blocks=*/0,
                 hquant::KvDtype::kF16, hquant::kGroupSize, /*max_step_rows=*/4);

  std::vector<float> logits(4 * static_cast<size_t>(vocab));
  std::vector<float> ref_logits(4 * static_cast<size_t>(vocab));
  std::vector<int> tokens{7};
  std::vector<int> seq_ids{0};
  std::vector<GatherSeq*> ref_seqs{&ref0};
  for (int step = 0; step < 3; ++step) {
    const std::span<float> out(logits.data(), static_cast<size_t>(vocab));
    tf.StepSeqs(tokens, seq_ids, out);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs,
                        std::span<float>(ref_logits.data(), static_cast<size_t>(vocab)));
    tokens[0] = ArgmaxToken(out);
  }
  const int64_t handle = tf.kv().Retain(0);
  tf.kv().ShareFromHandle(handle, /*dst_seq=*/1, tf.kv().handle_length(handle));
  tf.kv().DropHandle(handle);
  ref1 = ref0;

  seq_ids = {0, 1};
  ref_seqs = {&ref0, &ref1};
  tokens = {11, 402, 3, 77};
  for (const std::vector<int>& span_rows : {std::vector<int>{1, 3}, std::vector<int>{3, 1}}) {
    tf.StepSpans(tokens, seq_ids, span_rows, logits);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs, ref_logits, span_rows,
                        /*causal=*/true);
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * 4 * vocab), 0)
        << "spans " << span_rows[0] << "+" << span_rows[1];
  }
  EXPECT_EQ(tf.kv().length(0), 3 + 1 + 3);
  EXPECT_EQ(tf.kv().length(1), 3 + 3 + 1);
  EXPECT_GE(tf.kv().stats().cow_splits, 1);
  ExpectSameCharges(dev_, dev_ref);
}

TEST_F(TransformerTest, WeightCacheReplayParity) {
  // Dequant-once cache replay must be invisible to the simulation: identical logits,
  // decoded tokens, and charge profile whether every Forward re-simulates the dequant
  // (cache off) or replays the memoized charges (cache on).
  struct WeightCacheGuard {
    bool prev = WeightCacheEnabled();
    ~WeightCacheGuard() { SetWeightCacheEnabled(prev); }
  } guard;
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;
  const int steps = 5;

  std::vector<std::vector<float>> logits_runs[2];
  std::vector<int> token_runs[2];
  hexsim::NpuDevice dev_off(hexsim::OnePlus12());
  hexsim::NpuDevice dev_on(hexsim::OnePlus12());
  for (int run = 0; run < 2; ++run) {
    SetWeightCacheEnabled(run == 1);
    hexsim::NpuDevice& dev = (run == 0) ? dev_off : dev_on;
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(vocab));
    int tok = 3;
    for (int i = 0; i < steps; ++i) {
      tf.Step({&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      logits_runs[run].push_back(logits);
      token_runs[run].push_back(tok);
    }
  }

  EXPECT_EQ(token_runs[0], token_runs[1]);
  for (int i = 0; i < steps; ++i) {
    EXPECT_EQ(std::memcmp(logits_runs[0][static_cast<size_t>(i)].data(),
                          logits_runs[1][static_cast<size_t>(i)].data(),
                          sizeof(float) * vocab),
              0)
        << "step " << i;
  }
  EXPECT_GT(dev_on.ledger().Count("kernel.dequant_coalesced_lut.calls"), 0);
  ExpectSameCharges(dev_off, dev_on);
}

TEST_F(TransformerTest, SteadyStateDecodeDoesNotHeapAllocate) {
  // The zero-alloc contract (docs/performance.md): after warmup (workspace sized, weight
  // caches filled, ledger tags registered), a decode step performs no heap allocation at
  // all — counted through the binary-wide operator new replacements above.
  hexec::ParallelismOverride serial(1);
  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/64);
  std::vector<int> tokens{3, 5};
  std::vector<float> logits(2 * static_cast<size_t>(config_.vocab));
  for (int i = 0; i < 3; ++i) {
    tf.Step(tokens, logits);
  }
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    tf.Step(tokens, logits);
    for (int b = 0; b < 2; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + static_cast<int64_t>(b) * config_.vocab,
          static_cast<size_t>(config_.vocab)));
    }
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0);
}

TEST_F(TransformerTest, WorkspaceBytesGaugeExported) {
  // The serving backend publishes the step-arena high watermark as exec.workspace.bytes
  // (docs/metrics_schema.md).
  hserve::FunctionalBackend backend(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 3;
  backend.transformer().Step({&tok, 1}, logits);

  obs::Registry registry;
  backend.ExportMetrics(registry);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  bool found = false;
  const double bytes = snap.GaugeValue("exec.workspace.bytes", {}, &found);
  EXPECT_TRUE(found);
  EXPECT_GT(bytes, 0.0);
  EXPECT_EQ(bytes,
            static_cast<double>(backend.transformer().workspace().high_watermark()));
}

// --- sampling ---

TEST(SamplingTest, GreedyPicksArgmax) {
  std::vector<float> logits{0.1f, 2.0f, -1.0f, 1.9f};
  EXPECT_EQ(ArgmaxToken(logits), 1);
  Rng rng(1);
  SamplerOptions opts;
  opts.temperature = 0.0f;
  EXPECT_EQ(SampleToken(logits, opts, rng), 1);
}

TEST(SamplingTest, TemperatureSamplingFollowsDistribution) {
  std::vector<float> logits{std::log(0.7f), std::log(0.2f), std::log(0.1f)};
  Rng rng(2);
  SamplerOptions opts;
  opts.temperature = 1.0f;
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[SampleToken(logits, opts, rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(SamplingTest, TopKRestrictsSupport) {
  std::vector<float> logits{5.0f, 4.0f, -10.0f, 3.0f};
  Rng rng(3);
  SamplerOptions opts;
  opts.temperature = 2.0f;
  opts.top_k = 2;
  for (int i = 0; i < 500; ++i) {
    const int t = SampleToken(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(SamplingTest, TopPRestrictsTail) {
  std::vector<float> logits{std::log(0.6f), std::log(0.3f), std::log(0.05f),
                            std::log(0.05f)};
  Rng rng(4);
  SamplerOptions opts;
  opts.temperature = 1.0f;
  opts.top_p = 0.85f;
  for (int i = 0; i < 500; ++i) {
    const int t = SampleToken(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(SamplingTest, TokenLogProbIsConsistent) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  double total = 0.0;
  for (int t = 0; t < 3; ++t) {
    total += std::exp(TokenLogProb(logits, t, 1.0f));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(TokenLogProb(logits, 2, 1.0f), TokenLogProb(logits, 0, 1.0f));
}

// A HEXLLM_NO_WEIGHT_CACHE other than "0", "1" or empty aborts naming the knob instead of
// silently switching the cache off.
TEST(EnvKnobDeathTest, NoWeightCacheMustBeZeroOrOne) {
  // The switch is read once per process, so each death child re-executes the binary to
  // start with the knob unread.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"yes", "2", "true"}) {
    EXPECT_DEATH(
        {
          setenv("HEXLLM_NO_WEIGHT_CACHE", bad, 1);
          WeightCacheEnabled();
        },
        "HEXLLM_NO_WEIGHT_CACHE")
        << bad;
  }
}

}  // namespace
}  // namespace hllm
