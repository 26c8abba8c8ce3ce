#include "src/llm/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/base/check.h"
#include "src/exec/thread_pool.h"
#include "src/kernels/attention.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"

namespace hllm {

using hexllm::F16;

namespace {

// Capacity of the per-forward scratch arena for `rows` rows: every forward buffer
// (embedding rows, normed rows, QKV, attention output, FFN intermediates, float hidden for
// the lm_head), with 64-byte alignment slack per allocation. The GEMMs read and write
// these buffers in place, so no padded staging is needed.
// Sized once so steady-state decode never grows it (docs/performance.md).
int64_t StepWorkspaceBytes(const ModelConfig& c, int64_t rows) {
  const int64_t f16_elems =
      rows * (3 * static_cast<int64_t>(c.hidden) + 2 * c.q_dim() + 2 * c.kv_dim() +
              3 * static_cast<int64_t>(c.ffn_hidden));
  const int64_t float_elems = rows * static_cast<int64_t>(c.hidden);
  return f16_elems * 2 + float_elems * 4 + 64 * 32;
}

}  // namespace

Transformer::Transformer(hexsim::NpuDevice& dev, const ModelWeights& weights, int max_batch,
                         int max_context, int64_t kv_pool_blocks, hquant::KvDtype kv_dtype,
                         int kv_quant_group, int max_step_rows)
    : dev_(dev), weights_(weights), lut_(dev),
      kv_(weights.config.layers, weights.config.kv_dim(), max_batch, max_context,
          hkv::kDefaultBlockTokens, kv_pool_blocks, hquant::KvDtypeFromEnv(kv_dtype),
          kv_quant_group),
      max_batch_(max_batch),
      max_rows_(std::max({max_step_rows, max_batch, hkern::kAttnQTile})),
      ws_(StepWorkspaceBytes(weights.config, max_rows_)) {
  if (kv_.dtype() != hquant::KvDtype::kF16) {
    // Per-kv-head attention views slice rows at head boundaries, so quant groups must not
    // straddle heads.
    HEXLLM_CHECK(weights.config.head_dim % kv_.quant_group() == 0);
  }
  kv_.ReserveSeqs(max_batch);
  identity_seq_ids_.resize(static_cast<size_t>(max_batch));
  std::iota(identity_seq_ids_.begin(), identity_seq_ids_.end(), 0);
  unit_rows_.assign(static_cast<size_t>(max_batch), 1);
  span_row0_.reserve(static_cast<size_t>(max_batch));
  // lm_head converted to float once and transposed to row-major [hidden x vocab]: the
  // blocked CPU lm_head then converts each hidden row once per step and streams contiguous
  // vocab slices. F16::ToFloat is exact and the per-logit accumulation order is unchanged,
  // so the logits are bit-identical to the all-F16 path.
  const ModelConfig& c = weights_.config;
  lm_head_f32_.resize(static_cast<size_t>(c.hidden) * c.vocab);
  for (int64_t v = 0; v < c.vocab; ++v) {
    for (int64_t i = 0; i < c.hidden; ++i) {
      lm_head_f32_[static_cast<size_t>(i * c.vocab + v)] =
          weights_.lm_head[static_cast<size_t>(v * c.hidden + i)].ToFloat();
    }
  }
  rope_inv_freq_ = hkern::RopeInvFreq(c.head_dim, c.rope_theta);
}

hkern::PagedQKvHeadView Transformer::QuantHeadView(const uint8_t* const* k_bases,
                                                   const uint8_t* const* v_bases,
                                                   int kv_head) const {
  const int dh = weights_.config.head_dim;
  const int64_t head_start = static_cast<int64_t>(kv_head) * dh;
  hkern::PagedQKvHeadView view;
  view.k_blocks = k_bases;
  view.v_blocks = v_bases;
  view.block_tokens = kv_.block_tokens();
  view.row_bytes = kv_.row_bytes();
  view.payload_offset = hquant::KvPayloadBytes(kv_.dtype(), head_start);
  view.scales_offset = kv_.scales_offset() + (head_start / kv_.quant_group()) * 2;
  view.group = kv_.quant_group();
  view.dtype = kv_.dtype();
  return view;
}

void Transformer::FaultAttendedBlocks(int seq, int q_len, int kv_len, int q_pos_offset) {
  if (!kv_.offload_enabled()) {
    return;
  }
  attended_scratch_.clear();
  hkern::AppendAttendedBlocks(win(), q_len, kv_len, q_pos_offset, kv_.block_tokens(),
                              &attended_scratch_);
  kv_.EnsureResidentTableBlocks(seq, attended_scratch_);
}

std::span<const hkern::ExpLut* const> Transformer::EnsureShardLuts(int slots) {
  dev_.EnsureShards(slots);
  if (slot_lut_ptrs_.empty()) {
    slot_lut_ptrs_.push_back(&lut_);
  }
  while (static_cast<int>(slot_lut_ptrs_.size()) < slots) {
    const int slot = static_cast<int>(slot_lut_ptrs_.size());
    shard_luts_.push_back(std::make_unique<hkern::ExpLut>(dev_.Shard(slot)));
    slot_lut_ptrs_.push_back(shard_luts_.back().get());
  }
  return std::span<const hkern::ExpLut* const>(slot_lut_ptrs_.data(),
                                               static_cast<size_t>(slots));
}

void Transformer::EnsureSlotScratch(int slots) {
  const size_t cap = static_cast<size_t>(kv_.blocks_per_seq_capacity());
  if (kv_.dtype() == hquant::KvDtype::kF16) {
    while (static_cast<int>(slot_k_ptrs_.size()) < slots) {
      slot_k_ptrs_.emplace_back(cap);
      slot_v_ptrs_.emplace_back(cap);
    }
  } else {
    while (static_cast<int>(slot_kq_ptrs_.size()) < slots) {
      slot_kq_ptrs_.emplace_back(cap);
      slot_vq_ptrs_.emplace_back(cap);
    }
  }
}

void Transformer::Step(std::span<const int> tokens, std::span<float> logits,
                       hkern::SoftmaxVariant exp_variant) {
  HEXLLM_CHECK(static_cast<int>(tokens.size()) <= max_batch_);
  StepSeqs(tokens, std::span<const int>(identity_seq_ids_.data(), tokens.size()), logits,
           exp_variant);
}

void Transformer::StepSeqs(std::span<const int> tokens, std::span<const int> seq_ids,
                           std::span<float> logits, hkern::SoftmaxVariant exp_variant) {
  HEXLLM_CHECK(tokens.size() == seq_ids.size() && !logits.empty());
  HEXLLM_CHECK(static_cast<int>(seq_ids.size()) <= max_batch_);
  Forward(tokens, seq_ids, std::span<const int>(unit_rows_.data(), seq_ids.size()), logits,
          exp_variant, /*causal=*/false);
}

void Transformer::StepSpans(std::span<const int> tokens, std::span<const int> seq_ids,
                            std::span<const int> span_rows, std::span<float> logits,
                            hkern::SoftmaxVariant exp_variant) {
  HEXLLM_CHECK(!logits.empty());
  Forward(tokens, seq_ids, span_rows, logits, exp_variant, /*causal=*/true);
}

void Transformer::Prefill(int seq, std::span<const int> tokens) {
  for (size_t done = 0; done < tokens.size();) {
    const int chunk =
        static_cast<int>(std::min<size_t>(hkern::kAttnQTile, tokens.size() - done));
    Forward(tokens.subspan(done, static_cast<size_t>(chunk)), {&seq, 1}, {&chunk, 1}, {},
            hkern::SoftmaxVariant::kLut, /*causal=*/true);
    done += static_cast<size_t>(chunk);
  }
}

void Transformer::Forward(std::span<const int> tokens, std::span<const int> seq_ids,
                          std::span<const int> span_rows, std::span<float> logits,
                          hkern::SoftmaxVariant exp_variant, bool causal) {
  const ModelConfig& c = weights_.config;
  const int spans = static_cast<int>(seq_ids.size());
  const bool prefill = logits.empty();
  HEXLLM_CHECK(spans >= 1 && spans <= max_batch_ && span_rows.size() == seq_ids.size());
  span_row0_.resize(static_cast<size_t>(spans));
  int64_t total = 0;
  for (int s = 0; s < spans; ++s) {
    HEXLLM_CHECK(span_rows[static_cast<size_t>(s)] >= 1);
    span_row0_[static_cast<size_t>(s)] = static_cast<int>(total);
    total += span_rows[static_cast<size_t>(s)];
  }
  HEXLLM_CHECK(total <= max_rows_ && tokens.size() == static_cast<size_t>(total));
  const int rows = static_cast<int>(total);
  HEXLLM_CHECK(prefill ? spans == 1 : logits.size() == static_cast<size_t>(rows) * c.vocab);
  const int hidden = c.hidden;
  const int q_dim = c.q_dim();
  const int kv_dim = c.kv_dim();
  const int dh = c.head_dim;
  const int group = c.heads / c.kv_heads;

  // All forward scratch from the persistent arena — no heap traffic in steady state.
  ws_.Reset();
  F16* x = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* xn = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* q = ws_.Alloc<F16>(static_cast<int64_t>(rows) * q_dim);
  F16* k = ws_.Alloc<F16>(static_cast<int64_t>(rows) * kv_dim);
  F16* v = ws_.Alloc<F16>(static_cast<int64_t>(rows) * kv_dim);
  F16* attn_out = ws_.Alloc<F16>(static_cast<int64_t>(rows) * q_dim);
  F16* proj = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* gate = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);
  F16* up = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);
  F16* act = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);

  // Embedding lookup on the CPU.
  for (int r = 0; r < rows; ++r) {
    HEXLLM_CHECK(tokens[static_cast<size_t>(r)] >= 0 &&
                 tokens[static_cast<size_t>(r)] < c.vocab);
    std::memcpy(x + static_cast<int64_t>(r) * hidden,
                weights_.embedding.data() +
                    static_cast<size_t>(tokens[static_cast<size_t>(r)]) * hidden,
                static_cast<size_t>(hidden) * 2);
  }

  // Attention fans out over heads for a prefill chunk (one long span) and over spans
  // otherwise. The partition decides which shard ledger each charge lands on, and shard
  // seconds are merged as doubles, so it is part of the charge contract.
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int fan = prefill ? c.heads : spans;
  const int slots = hexec::PlannedSlots(fan);
  const auto slot_luts = EnsureShardLuts(slots);
  EnsureSlotScratch(slots);

  // Tiered offload: promote every block attention will stage, once per forward, on this
  // (bookkeeping) thread — blocks hold all layers' rows, so the attended set is
  // layer-invariant, and the parallel lanes below must never mutate pool residency.
  for (int s = 0; s < spans; ++s) {
    const int seq = seq_ids[static_cast<size_t>(s)];
    const int pos0 = kv_.length(seq);
    const int n = span_rows[static_cast<size_t>(s)];
    FaultAttendedBlocks(seq, n, pos0 + n, causal ? pos0 : -1);
  }

  const bool kv_quant = kv_.dtype() != hquant::KvDtype::kF16;
  for (int l = 0; l < c.layers; ++l) {
    const LayerWeights& lw = weights_.layers[static_cast<size_t>(l)];

    // --- attention block: every span's rows share the batched norms and GEMMs ---
    hkern::RmsNormF16(dev_, x, lw.attn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.wq.Forward(dev_, xn, q, rows);
    lw.wk.Forward(dev_, xn, k, rows);
    lw.wv.Forward(dev_, xn, v, rows);

    // Per-row RoPE at the row's absolute position, then append each span's K/V rows to
    // its sequence (the table length itself only advances after the layer loop).
    for (int s = 0; s < spans; ++s) {
      const int seq = seq_ids[static_cast<size_t>(s)];
      const int pos0 = kv_.length(seq);
      const int r0 = span_row0_[static_cast<size_t>(s)];
      for (int r = r0; r < r0 + span_rows[static_cast<size_t>(s)]; ++r) {
        const int pos = pos0 + r - r0;
        hkern::RopeHeadsF16(dev_, q + static_cast<int64_t>(r) * q_dim, c.heads, dh, pos,
                            rope_inv_freq_.data());
        hkern::RopeHeadsF16(dev_, k + static_cast<int64_t>(r) * kv_dim, c.kv_heads, dh, pos,
                            rope_inv_freq_.data());
        kv_.WriteKeyRow(l, seq, pos, k + static_cast<int64_t>(r) * kv_dim);
        kv_.WriteValueRow(l, seq, pos, v + static_cast<int64_t>(r) * kv_dim);
      }
    }

    // Heads [h_begin, h_end) of span s on one lane, charging that lane's shard device (and
    // its exp LUT). The lane resolves the span's block table into its own pointer scratch
    // and the kernel reads K/V rows in place — no gather copies. The KV cache is read-only
    // in this region (the appends above already ran) and lanes write disjoint attn_out
    // rows or heads, so results are bit-identical at any lane count.
    auto attend = [&](int slot, int s, int h_begin, int h_end) {
      hexsim::NpuDevice& d = dev_.ForSlot(slot);
      const hkern::ExpLut& lut = *slot_luts[static_cast<size_t>(slot)];
      const int seq = seq_ids[static_cast<size_t>(s)];
      const int n = span_rows[static_cast<size_t>(s)];
      const int pos0 = kv_.length(seq);
      const int kv_len = pos0 + n;  // includes the rows just written
      const int q_pos_offset = causal ? pos0 : -1;
      const int64_t row0 = static_cast<int64_t>(span_row0_[static_cast<size_t>(s)]) * q_dim;
      const uint8_t** kq_bases = nullptr;
      const uint8_t** vq_bases = nullptr;
      hkern::PagedKvHeadView view;
      if (kv_quant) {
        kq_bases = slot_kq_ptrs_[static_cast<size_t>(slot)].data();
        vq_bases = slot_vq_ptrs_[static_cast<size_t>(slot)].data();
        kv_.FillQuantBlockPointers(l, seq, kv_len, kq_bases, vq_bases);
      } else {
        const F16** k_bases = slot_k_ptrs_[static_cast<size_t>(slot)].data();
        const F16** v_bases = slot_v_ptrs_[static_cast<size_t>(slot)].data();
        kv_.FillBlockPointers(l, seq, kv_len, k_bases, v_bases);
        view.k_blocks = k_bases;
        view.v_blocks = v_bases;
        view.block_tokens = kv_.block_tokens();
        view.row_stride = kv_.row_stride();
      }
      for (int h = h_begin; h < h_end; ++h) {
        const F16* qh = q + row0 + h * dh;
        F16* oh = attn_out + row0 + h * dh;
        if (kv_quant) {
          hkern::FlashAttentionPagedQ(d, lut, exp_variant, qh, q_dim,
                                      QuantHeadView(kq_bases, vq_bases, h / group), oh, q_dim,
                                      n, kv_len, dh, scale, q_pos_offset, win());
        } else {
          view.head_offset = static_cast<int64_t>(h / group) * dh;
          hkern::FlashAttentionPagedF16(d, lut, exp_variant, qh, q_dim, view, oh, q_dim, n,
                                        kv_len, dh, scale, q_pos_offset, win());
        }
      }
    };
    hexec::ParallelFor(
        fan,
        [&](int64_t begin, int64_t end, int slot) {
          if (prefill) {
            attend(slot, 0, static_cast<int>(begin), static_cast<int>(end));
            return;
          }
          for (int64_t s = begin; s < end; ++s) {
            attend(slot, static_cast<int>(s), 0, c.heads);
          }
        },
        slots);
    dev_.MergeShards();

    lw.wo.Forward(dev_, attn_out, proj, rows);
    hkern::AddF16(dev_, x, proj, x, static_cast<int64_t>(rows) * hidden);

    // --- FFN block ---
    hkern::RmsNormF16(dev_, x, lw.ffn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.w_gate.Forward(dev_, xn, gate, rows);
    lw.w_up.Forward(dev_, xn, up, rows);
    hkern::SiluMulF16(dev_, gate, up, act, static_cast<int64_t>(rows) * c.ffn_hidden);
    lw.w_down.Forward(dev_, act, proj, rows);
    hkern::AddF16(dev_, x, proj, x, static_cast<int64_t>(rows) * hidden);
  }

  for (int s = 0; s < spans; ++s) {
    for (int r = 0; r < span_rows[static_cast<size_t>(s)]; ++r) {
      kv_.Advance(seq_ids[static_cast<size_t>(s)]);
    }
  }
  if (prefill) {
    return;
  }

  // Final norm + blocked CPU lm_head: each hidden row converts F16->float once, and the
  // pre-converted weight matrix streams through in vocab tiles (bit-identical logits —
  // see LmHeadForwardF32W).
  hkern::RmsNormF16(dev_, x, weights_.final_norm.data(), xn, rows, hidden, c.rms_eps);
  float* xf = ws_.Alloc<float>(static_cast<int64_t>(rows) * hidden);
  for (int64_t i = 0; i < static_cast<int64_t>(rows) * hidden; ++i) {
    xf[i] = xn[i].ToFloat();
  }
  hkern::LmHeadForwardF32W(xf, lm_head_f32_.data(), logits.data(), rows, hidden, c.vocab);
}

}  // namespace hllm
