// FP16 FlashAttention on the simulated Hexagon NPU (Algorithm 1) plus a conventional FP32
// reference implementation.
//
// Structure of the NPU kernel (per attention head):
//   * Q is processed in 32-row tiles (the HMX tile height); KV in chunks of 128 (4 tiles).
//   * S = (Q * K^T) * scale runs on HMX with FP32 accumulation ("attn.qk").
//   * Online safe softmax runs on HVX: running row-max m, running row-sum l (FP32
//     accumulation), P = exp(S - m) through one of the three exp variants ("attn.softmax").
//   * O_new = diag(exp(m_prev - m_new)) * O + P * V: the P*V product on HMX ("attn.pv"),
//     the rescale/accumulate sweep on HVX ("attn.rescale").
//   * Tile packing into the Figure 4a layout is charged under "attn.pack"; DMA under "dma".
//
// The tags drive the Figure 8 latency breakdown. All matrices are FP16 with FP32 accumulation
// exactly where Algorithm 1 says (MatMul accumulators and the row-sum).
#ifndef SRC_KERNELS_ATTENTION_H_
#define SRC_KERNELS_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/softmax.h"
#include "src/quant/quant_types.h"

namespace hkern {

inline constexpr int kAttnQTile = 32;    // HMX tile height
inline constexpr int kAttnKvChunk = 128; // KV positions per online-softmax step (4 tiles)

// Sliding-window attention with attention sinks (docs/long_context.md): a query at
// absolute position qa attends the first `sink_blocks` blocks (the attention-sink prefix
// that anchors softmax mass), the trailing `window_blocks` blocks ending at its own block,
// and nothing in between. Block-aligned on the KV-cache block size so masked interior
// blocks become whole-block eviction candidates for the tiered KV offload.
//
// window_blocks <= 0 disables the window (plain causal attention). A window that covers
// the whole KV range (CoversAll) is normalized away at the kernel entry points, so the
// full-coverage configuration takes the exact legacy code path — charges and outputs stay
// bit-identical to unwindowed attention, the invariant the CI gate checks.
struct AttnWindowSpec {
  int sink_blocks = 0;
  int window_blocks = 0;
  int block_tokens = 32;  // must match the paged KV cache's block size

  bool enabled() const { return window_blocks > 0; }
  int sink_tokens() const { return sink_blocks * block_tokens; }
  // First KV position the query at absolute position qa may attend outside the sinks: the
  // window is the `window_blocks` whole blocks ending at qa's own block.
  int WindowStart(int qa) const {
    const int start = (qa / block_tokens - window_blocks + 1) * block_tokens;
    return start > 0 ? start : 0;
  }
  // True when position `p` is masked for the query at absolute position `qa`.
  bool Masked(int p, int qa) const {
    return p >= sink_tokens() && p < WindowStart(qa);
  }
  // True when KV chunk [kv0, kv0 + n) is masked for EVERY query row at absolute positions
  // >= qa0 (the masked interior only grows with qa, so the first row decides).
  bool ChunkFullyMasked(int kv0, int n, int qa0) const {
    return kv0 >= sink_tokens() && kv0 + n <= WindowStart(qa0);
  }
  // True when no position in [0, kv_len) is masked for any query up to qa_max — the
  // full-coverage case that must degrade to legacy causal attention.
  bool CoversAll(int qa_max) const { return WindowStart(qa_max) <= sink_tokens(); }
  // Resident tokens a window keeps attendable regardless of context length (sinks + window
  // + the partially-filled current block) — what admission math prices.
  int ResidentTokens() const { return (sink_blocks + window_blocks + 1) * block_tokens; }
};

// Builds an AttnWindowSpec from HEXLLM_ATTN_SINK_BLOCKS / HEXLLM_ATTN_WINDOW_BLOCKS,
// overriding `spec` (a window of 0 blocks disables it). Each must be an integer >= 0;
// anything else CHECK-fails naming the variable.
AttnWindowSpec AttnWindowFromEnv(AttnWindowSpec spec = AttnWindowSpec());

// Appends to `out` the KV-cache table-block indices a windowed FlashAttention call over
// [0, kv_len) with `q_len` query rows at base position `q_pos_offset` (< 0: rows aligned
// to the end of kv, the decode convention) will actually stage — chunk-granular, matching
// FlashAttentionCore's causal and window chunk-skip logic exactly. The serving layer
// faults exactly these blocks resident before the kernel runs; everything else is
// evictable. `window` may be null (plain causal attention stages every block up to the
// causal frontier).
void AppendAttendedBlocks(const AttnWindowSpec* window, int q_len, int kv_len,
                          int q_pos_offset, int block_tokens, std::vector<int>* out);

// Runs one head of FP16 FlashAttention. q: [q_len, head_dim], k/v: [kv_len, head_dim],
// o: [q_len, head_dim], all row-major FP16 in (simulated) DDR. head_dim must be a multiple
// of 32. `scale` is the 1/sqrt(d) factor (with log2 e absorbed upstream when the polynomial
// exp2 variants are used — here variants all compute natural exp, so scale is just
// 1/sqrt(d)).
//
// Causal masking (chunked prefill): when q_pos_offset >= 0, query row i attends only to KV
// positions <= q_pos_offset + i (masked scores become -inf and exp to 0; fully-masked KV
// chunks are skipped, which also halves the average cost — the standard causal-prefill
// saving). q_pos_offset < 0 disables masking (pure cross-attention over the whole KV).
void FlashAttentionF16(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                       const hexllm::F16* q, const hexllm::F16* k, const hexllm::F16* v,
                       hexllm::F16* o, int q_len, int kv_len, int head_dim, float scale,
                       int q_pos_offset = -1);

// One attention head's view of a paged KV cache (hkv::PagedKvCache), consumed in place —
// no per-step gather of K/V into contiguous scratch. k_blocks/v_blocks[i] point at the
// position-0 K / V row of table block i for the owning (layer, sequence); KV position j
// lives at blocks[j / block_tokens] + (j % block_tokens) * row_stride + head_offset.
// `head_offset` selects the head's columns inside the packed kv_dim row, so GQA query
// heads sharing one KV head use the same view with the same offset — rows are never
// duplicated. Block staging into TCM charges the DMA engine exactly like the contiguous
// kernel (hexsim::DmaEngine::Cost2D depends only on row bytes / rows / direction), so
// counters are bit-identical to the gather path (docs/performance.md).
struct PagedKvHeadView {
  const hexllm::F16* const* k_blocks = nullptr;
  const hexllm::F16* const* v_blocks = nullptr;
  int block_tokens = 0;
  int64_t row_stride = 0;  // F16 elements between consecutive positions in a block
  int64_t head_offset = 0; // F16 elements from the row start to this head's columns
};

// FlashAttentionF16 over a paged KV view. q rows are strided by `q_stride` elements
// (q row r = q + r * q_stride, first head_dim columns), o rows by `o_stride` — so the
// kernel reads/writes head columns of the transformer's packed activations directly.
// Same math, same charging as the contiguous kernel.
// `window`, when non-null and enabled, applies sliding-window + attention-sink masking on
// top of the causal mask: fully-masked KV chunks are skipped (never staged, never charged)
// and partially-masked chunks get -inf scores like the causal mask. A window covering the
// whole KV range is normalized away, taking the exact legacy path (bit-identical charges
// and outputs). When q_pos_offset < 0 the query rows are treated as ending at kv_len (the
// decode convention) for window purposes.
void FlashAttentionPagedF16(hexsim::NpuDevice& dev, const ExpLut& lut,
                            SoftmaxVariant exp_variant, const hexllm::F16* q,
                            int64_t q_stride, const PagedKvHeadView& kv, hexllm::F16* o,
                            int64_t o_stride, int q_len, int kv_len, int head_dim,
                            float scale, int q_pos_offset = -1,
                            const AttnWindowSpec* window = nullptr);

// One attention head's view of a low-bit quantized paged KV cache
// (hkv::PagedKvCache with KvDtype kInt8/kInt4; docs/kv_quantization.md). Blocks store
// group-quantized rows — payload bytes then one F16 scale per `group` elements — and the
// kernel dequantizes each head's slice through the vlut16 table-lookup path while staging
// into TCM, so DMA is charged the *quantized* row bytes (the whole point: 1.9-3.6x less KV
// traffic). KV position j's row starts at blocks[j / block_tokens] +
// (j % block_tokens) * row_bytes; this head's payload is at +payload_offset and its scales
// at +scales_offset. `group` must divide head_dim so head slices stay group-aligned.
struct PagedQKvHeadView {
  const uint8_t* const* k_blocks = nullptr;
  const uint8_t* const* v_blocks = nullptr;
  int block_tokens = 0;
  int64_t row_bytes = 0;       // bytes between consecutive positions in a block
  int64_t payload_offset = 0;  // bytes from row start to this head's quantized payload
  int64_t scales_offset = 0;   // bytes from row start to this head's first F16 group scale
  int group = 0;               // elements per quantization group
  hquant::KvDtype dtype = hquant::KvDtype::kInt4;
};

// FlashAttention over a quantized paged KV view: same Algorithm 1 core and math as
// FlashAttentionPagedF16, but K/V blocks are dequantized inside the staging step (per the
// LUT-GEMM idiom: nibble extract + VLut16 level/scale lookups, committed under the
// "attn.kv_dequant" ledger tag) and the DMA ledger is charged the quantized bytes only.
// Numerics match PagedKvCache::ReadKeyRow/ReadValueRow exactly — the attention output
// deviates from the F16 kernel only by the KV round-trip quantization error.
void FlashAttentionPagedQ(hexsim::NpuDevice& dev, const ExpLut& lut,
                          SoftmaxVariant exp_variant, const hexllm::F16* q, int64_t q_stride,
                          const PagedQKvHeadView& kv, hexllm::F16* o, int64_t o_stride,
                          int q_len, int kv_len, int head_dim, float scale,
                          int q_pos_offset = -1, const AttnWindowSpec* window = nullptr);

// Conventional full-precision attention (the Table 5 baseline): FP32 throughout, full S
// matrix materialized. Pure host math — used as the numeric reference.
void AttentionF32Reference(const float* q, const float* k, const float* v, float* o,
                           int q_len, int kv_len, int head_dim, float scale);

// Analytic per-head cost model of FlashAttentionF16 (validated against emulation in tests;
// consumed by the timing-mode engine). Seconds by component.
struct AttentionCost {
  double hmx_qk_s = 0.0;
  double hmx_pv_s = 0.0;
  double hvx_softmax_s = 0.0;   // single-thread busy seconds
  double hvx_rescale_s = 0.0;
  double hvx_pack_s = 0.0;
  double dma_s = 0.0;

  double HvxBusySeconds() const { return hvx_softmax_s + hvx_rescale_s + hvx_pack_s; }
  double TotalSerialSeconds() const {
    return hmx_qk_s + hmx_pv_s + HvxBusySeconds() + dma_s;
  }
};

AttentionCost FlashAttentionCost(const hexsim::DeviceProfile& profile,
                                 SoftmaxVariant exp_variant, int q_len, int kv_len,
                                 int head_dim);

}  // namespace hkern

#endif  // SRC_KERNELS_ATTENTION_H_
