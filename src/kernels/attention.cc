#include "src/kernels/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/base/check.h"
#include "src/base/env.h"
#include "src/base/math_util.h"
#include "src/hexsim/hmx.h"

namespace hkern {

using hexllm::F16;
using hexllm::RoundToF16;
using hexsim::DmaDirection;
using hexsim::HmxEngine;
using hexsim::HvxContext;
using hexsim::HvxVec;
using hexsim::HvxVecPair;

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Packet cost of packing one 32x32 FP16 tile into the Figure 4a layout with VShuffH-style
// cross-lane shuffles (16 row-pairs, one shuffle step each — matching §3.1.2's "HVX
// cross-lane shuffling on every two adjacent rows").
constexpr int kTilePackPackets = 16;
constexpr int kTileUnpackPackets = 4;  // streaming store of an already-shuffled accumulator

// Packs src[r * src_stride + c] (with transpose option) into an HMX-layout tile, zero-padding
// rows/cols beyond the valid range. Only the occupied region is visited (one memset covers
// the padding), so a decode-shaped tile with a single live row costs ~32 stores, not 1024.
void PackTilePadded(const F16* src, int64_t src_stride, int valid_rows, int valid_cols,
                    bool transpose, F16* tile) {
  const int tile_rows = transpose ? valid_cols : valid_rows;
  const int tile_cols = transpose ? valid_rows : valid_cols;
  if (tile_rows < HmxEngine::kTileDim || tile_cols < HmxEngine::kTileDim) {
    std::memset(static_cast<void*>(tile), 0, HmxEngine::kTileBytes);  // F16 zero = zero bits
  }
  for (int r = 0; r < tile_rows; ++r) {
    for (int c = 0; c < tile_cols; ++c) {
      const int sr = transpose ? c : r;
      const int sc = transpose ? r : c;
      tile[HmxEngine::TileHalfwordOffset(r, c)] = src[sr * src_stride + sc];
    }
  }
}

// K/V staging policies for the shared attention core. Both charge the DMA engine with one
// descriptor of (head_dim * 2)-byte rows x n rows per call — DmaEngine::Cost2D depends only
// on row bytes, row count and direction, so the two policies are charge-identical and the
// paged kernel's counters match the gather-then-contiguous path bit for bit.
struct ContigKvRows {
  const F16* base;
  int64_t stride;  // elements between consecutive KV positions

  void Stage(hexsim::NpuDevice& dev, F16* dst, int j0, int n, int head_dim) const {
    dev.dma().Transfer2D(dst, head_dim * 2, base + static_cast<int64_t>(j0) * stride,
                         stride * 2, head_dim * 2, n, DmaDirection::kDdrToTcm);
  }
};

struct PagedKvRows {
  const F16* const* blocks;
  int block_tokens;
  int64_t row_stride;
  int64_t head_offset;

  void Stage(hexsim::NpuDevice& dev, F16* dst, int j0, int n, int head_dim) const {
    // Charge-only descriptor (null pointers move no bytes but cost the same), then copy the
    // rows block-by-block — same bytes staged, same DMA accounting.
    dev.dma().Transfer2D(nullptr, head_dim * 2, nullptr, head_dim * 2, head_dim * 2, n,
                         DmaDirection::kDdrToTcm);
    for (int r = 0; r < n; ++r) {
      const int j = j0 + r;
      const F16* src = blocks[j / block_tokens] +
                       static_cast<int64_t>(j % block_tokens) * row_stride + head_offset;
      std::memcpy(dst + static_cast<int64_t>(r) * head_dim, src,
                  static_cast<size_t>(head_dim) * 2);
    }
  }
};

// Quantized paged staging: DMA is charged the *quantized* row bytes (payload + scales for
// this head's slice) instead of the F16 bytes, then each group is dequantized into the F16
// TCM staging buffer. The dequant work is charged as HVX packets under "attn.kv_dequant"
// following the DequantCoalescedLut shape (mixed_gemm.cc): INT4 costs 17 packets per 256
// elements (nibble extract via vand/vshr + 2 level VLut16 + 2 scale-broadcast VLut16 +
// multiply/store), INT8 costs 3 packets per 64 elements (load + widen + scale-multiply, no
// table lookups). vlut16 instruction-class counters are bumped for the INT4 lookups.
struct PagedQuantKvRows {
  const uint8_t* const* blocks;
  int block_tokens;
  int64_t row_bytes;        // bytes between consecutive KV positions in a block
  int64_t payload_offset;   // row start -> this head's payload
  int64_t scales_offset;    // row start -> this head's first F16 scale
  int group;
  hquant::KvDtype dtype;
  int64_t staged_row_bytes;  // quantized bytes staged per row for this head

  void Stage(hexsim::NpuDevice& dev, F16* dst, int j0, int n, int head_dim) const {
    dev.dma().Transfer2D(nullptr, staged_row_bytes, nullptr, staged_row_bytes,
                         staged_row_bytes, n, DmaDirection::kDdrToTcm);
    const int groups = head_dim / group;
    const int64_t group_payload = hquant::KvPayloadBytes(dtype, group);
    for (int r = 0; r < n; ++r) {
      const int j = j0 + r;
      const uint8_t* row =
          blocks[j / block_tokens] + static_cast<int64_t>(j % block_tokens) * row_bytes;
      const uint8_t* payload = row + payload_offset;
      const uint8_t* scales = row + scales_offset;
      F16* out = dst + static_cast<int64_t>(r) * head_dim;
      for (int g = 0; g < groups; ++g) {
        uint16_t d_bits;
        std::memcpy(&d_bits, scales + static_cast<int64_t>(g) * 2, 2);
        const float d = hexllm::F16BitsToF32(d_bits);
        if (dtype == hquant::KvDtype::kInt4) {
          hquant::KvDequantGroupInt4(payload + g * group_payload, d, group, out + g * group);
        } else {
          hquant::KvDequantGroupInt8(
              reinterpret_cast<const int8_t*>(payload + g * group_payload), d, group,
              out + g * group);
        }
      }
    }
    const int64_t elems = static_cast<int64_t>(n) * head_dim;
    int64_t packets;
    int64_t vlut16_ops = 0;
    if (dtype == hquant::KvDtype::kInt4) {
      packets = (elems * 17 + 255) / 256;    // 17 packets per 256-element super-block
      vlut16_ops = (elems * 4 + 255) / 256;  // 2 level + 2 scale lookups per super-block
    } else {
      packets = (elems * 3 + 63) / 64;  // load + widen + scale-multiply per register
    }
    dev.hvx().ReplayOps(0, 0, vlut16_ops);
    dev.CommitHvxPackets(packets, 1, "attn.kv_dequant");
  }
};

// Drops a window that is disabled or covers the whole KV range, so full-coverage windowed
// calls run the exact legacy code path (bit-identical charges and outputs).
const AttnWindowSpec* NormalizeWindow(const AttnWindowSpec* window, int q_len, int kv_len,
                                      int q_pos_offset) {
  if (window == nullptr || !window->enabled()) {
    return nullptr;
  }
  const int eff_off = q_pos_offset >= 0 ? q_pos_offset : kv_len - q_len;
  return window->CoversAll(eff_off + q_len - 1) ? nullptr : window;
}

// Algorithm 1 core, shared by the contiguous and paged entry points. `KvRows::Stage` fills
// the TCM staging buffer with KV positions [j0, j0 + n); Q/O rows are strided by
// q_stride/o_stride elements so callers can point directly into packed activations.
template <typename KvRows>
void FlashAttentionCore(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                        const F16* q, int64_t q_stride, const KvRows& k_rows,
                        const KvRows& v_rows, F16* o, int64_t o_stride, int q_len,
                        int kv_len, int head_dim, float scale, int q_pos_offset,
                        const AttnWindowSpec* window) {
  const bool causal = q_pos_offset >= 0;
  const AttnWindowSpec* win = NormalizeWindow(window, q_len, kv_len, q_pos_offset);
  // Absolute position of query row 0: rows align to the end of kv when no causal offset is
  // given (the single-row decode convention).
  const int win_off = causal ? q_pos_offset : kv_len - q_len;
  if (win != nullptr) {
    dev.ledger().AddCount("kernel.flash_attention.windowed_calls");
  }
  HEXLLM_CHECK(head_dim % HmxEngine::kTileDim == 0);
  HEXLLM_CHECK(q_len > 0 && kv_len > 0);
  dev.ledger().AddCount("kernel.flash_attention.calls");
  const int d_tiles = head_dim / HmxEngine::kTileDim;
  const int q_tiles = static_cast<int>(hexllm::CeilDiv(q_len, kAttnQTile));
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(kv_len, kAttnKvChunk));
  const int parallel_rows = q_len;  // rows in flight across HVX threads (gather contention)

  HvxContext& ctx = dev.hvx();
  HmxEngine& hmx = dev.hmx();
  hexsim::Tcm& tcm = dev.tcm();
  hexsim::TcmFrame frame(tcm);

  // TCM working set for one (q-tile, kv-chunk) step.
  F16* q_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(d_tiles) * HmxEngine::kTileBytes));
  F16* kt_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(4) * d_tiles * HmxEngine::kTileBytes));
  F16* v_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(4) * d_tiles * HmxEngine::kTileBytes));
  F16* p_tiles_mem = reinterpret_cast<F16*>(tcm.Alloc(4 * HmxEngine::kTileBytes));
  F16* s_rows = reinterpret_cast<F16*>(tcm.Alloc(kAttnQTile * kAttnKvChunk * 2));
  F16* o_rows = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(kAttnQTile) * head_dim * 2));
  F16* kv_stage = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(kAttnKvChunk) * head_dim * 2));
  F16* pv_tile = reinterpret_cast<F16*>(tcm.Alloc(HmxEngine::kTileBytes));

  // Stack scratch: the decode hot path must not heap-allocate (docs/performance.md).
  float acc[HmxEngine::kTileElems];
  float col_scale[HmxEngine::kTileDim];
  std::fill(col_scale, col_scale + HmxEngine::kTileDim, scale);

  for (int qt = 0; qt < q_tiles; ++qt) {
    const int q0 = qt * kAttnQTile;
    const int rows = std::min(kAttnQTile, q_len - q0);

    // Load and pack the Q tile strip.
    dev.dma().Transfer2D(kv_stage, head_dim * 2, q + static_cast<int64_t>(q0) * q_stride,
                         q_stride * 2, head_dim * 2, rows, DmaDirection::kDdrToTcm);
    int64_t pack_packets = 0;
    for (int dt = 0; dt < d_tiles; ++dt) {
      PackTilePadded(kv_stage + dt * HmxEngine::kTileDim, head_dim, rows, HmxEngine::kTileDim,
                     /*transpose=*/false, q_tiles_mem + dt * HmxEngine::kTileElems);
      pack_packets += kTilePackPackets;
    }

    float m_run[kAttnQTile];
    float l_run[kAttnQTile];
    std::fill(m_run, m_run + rows, kNegInf);
    std::fill(l_run, l_run + rows, 0.0f);
    std::fill(o_rows, o_rows + static_cast<int64_t>(rows) * head_dim, F16::Zero());

    int64_t softmax_packets = 0;
    int64_t rescale_packets = 0;
    int64_t qk_tile_ops = 0;
    int64_t pv_tile_ops = 0;

    for (int chunk = 0; chunk < kv_chunks; ++chunk) {
      const int kv0 = chunk * kAttnKvChunk;
      const int kvn = std::min(kAttnKvChunk, kv_len - kv0);
      const int kvt = static_cast<int>(hexllm::CeilDiv(kvn, HmxEngine::kTileDim));
      if (causal && kv0 > q_pos_offset + q0 + rows - 1) {
        continue;  // every position in this chunk is in the future for every row
      }
      if (win != nullptr && win->ChunkFullyMasked(kv0, kvn, win_off + q0)) {
        continue;  // interior chunk outside every row's sink+window span: never staged
      }

      // Stage K rows and pack K^T tiles (weight layout: [head_dim x kv] tiles).
      k_rows.Stage(dev, kv_stage, kv0, kvn, head_dim);
      for (int t = 0; t < kvt; ++t) {
        const int tile_rows = std::min(HmxEngine::kTileDim, kvn - t * HmxEngine::kTileDim);
        for (int dt = 0; dt < d_tiles; ++dt) {
          // K arrives pre-packed: the runtime writes the KV cache in HMX layout when rows
          // are appended, so no per-q-tile shuffle cost recurs here.
          PackTilePadded(kv_stage + static_cast<int64_t>(t) * HmxEngine::kTileDim * head_dim +
                             dt * HmxEngine::kTileDim,
                         head_dim, tile_rows, HmxEngine::kTileDim, /*transpose=*/true,
                         kt_tiles_mem + (t * d_tiles + dt) * HmxEngine::kTileElems);
        }
      }
      // Stage V rows and pack V tiles ([kv x head_dim]).
      v_rows.Stage(dev, kv_stage, kv0, kvn, head_dim);
      for (int t = 0; t < kvt; ++t) {
        const int tile_rows = std::min(HmxEngine::kTileDim, kvn - t * HmxEngine::kTileDim);
        for (int dt = 0; dt < d_tiles; ++dt) {
          PackTilePadded(kv_stage + static_cast<int64_t>(t) * HmxEngine::kTileDim * head_dim +
                             dt * HmxEngine::kTileDim,
                         head_dim, tile_rows, HmxEngine::kTileDim, /*transpose=*/false,
                         v_tiles_mem + (t * d_tiles + dt) * HmxEngine::kTileElems);
        }
      }

      // S chunk = scale * (Q K^T): HMX with FP32 accumulation, written back as FP16 rows.
      for (int t = 0; t < kvt; ++t) {
        std::fill(acc, acc + rows * HmxEngine::kTileDim, 0.0f);  // live rows only
        for (int dt = 0; dt < d_tiles; ++dt) {
          hmx.TileMacc(tcm, q_tiles_mem + dt * HmxEngine::kTileElems,
                       kt_tiles_mem + (t * d_tiles + dt) * HmxEngine::kTileElems, acc, rows);
          ++qk_tile_ops;
        }
        hmx.StoreAcc(acc, pv_tile, col_scale, nullptr, rows);
        // Unpack the S tile into row-major chunk columns [t*32, t*32+32) — live rows only,
        // the padded rows are never read (softmax and P-packing stop at `rows`).
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < HmxEngine::kTileDim; ++c) {
            s_rows[r * kAttnKvChunk + t * HmxEngine::kTileDim + c] =
                pv_tile[HmxEngine::TileHalfwordOffset(r, c)];
          }
        }
        pack_packets += kTileUnpackPackets;
      }
      // Mask padded KV positions so they contribute exp(-inf) = 0.
      if (kvn < kAttnKvChunk) {
        for (int r = 0; r < rows; ++r) {
          for (int c = kvn; c < kAttnKvChunk; ++c) {
            s_rows[r * kAttnKvChunk + c] = F16::NegInf();
          }
        }
        ctx.Charge(1);
      }
      // Causal mask: row r (global position q_pos_offset + q0 + r) must not see KV
      // positions beyond itself. Applied as a precomputed -inf mask register per row pair.
      if (causal) {
        for (int r = 0; r < rows; ++r) {
          const int limit = q_pos_offset + q0 + r;  // last visible KV position
          for (int c = 0; c < kvn; ++c) {
            if (kv0 + c > limit) {
              s_rows[r * kAttnKvChunk + c] = F16::NegInf();
            }
          }
        }
        ctx.Charge(rows);  // one masked vmux sweep per row (2 regs, amortized)
      }
      // Sliding-window + sink mask: positions between the sink prefix and the row's
      // trailing window contribute exp(-inf) = 0, same mechanism as the causal mask.
      if (win != nullptr) {
        for (int r = 0; r < rows; ++r) {
          const int qa = win_off + q0 + r;
          for (int c = 0; c < kvn; ++c) {
            if (win->Masked(kv0 + c, qa)) {
              s_rows[r * kAttnKvChunk + c] = F16::NegInf();
            }
          }
        }
        ctx.Charge(rows);  // one masked vmux sweep per row, mirroring the causal charge
      }

      // Online softmax over the chunk (2 registers per row).
      const int64_t sm_start = ctx.packets();
      for (int r = 0; r < rows; ++r) {
        F16* srow = s_rows + r * kAttnKvChunk;
        HvxVec va = ctx.LoadAligned(srow);
        HvxVec vb = ctx.LoadAligned(srow + HvxVec::kHalfwords);
        const float chunk_max = ctx.ReduceMaxHf(ctx.VMaxHf(va, vb));
        const float m_new = std::max(m_run[r], chunk_max);
        ctx.ChargeScalar(3);  // m/alpha bookkeeping on the scalar core
        const float alpha =
            (m_run[r] == kNegInf) ? 0.0f : RoundToF16(std::exp(RoundToF16(m_run[r] - m_new)));
        const HvxVec vm = ctx.VSplatHf(m_new);
        HvxVec acc_sum = ctx.VSplatSf(0.0f);
        float row_sum = 0.0f;
        for (int g = 0; g < 2; ++g) {
          F16* chunk_ptr = srow + g * HvxVec::kHalfwords;
          HvxVec x = ctx.LoadAligned(chunk_ptr);
          x = ctx.VSubHf(x, vm);
          const HvxVec e = ExpNonPosF16(dev, exp_variant, &lut, x, parallel_rows);
          ctx.Store(chunk_ptr, e);
          const HvxVecPair wide = ctx.WidenHfToSf(e);
          acc_sum = ctx.VAddSf(acc_sum, wide.lo);
          acc_sum = ctx.VAddSf(acc_sum, wide.hi);
        }
        row_sum = ctx.ReduceSumSf(acc_sum);
        ctx.ChargeScalar(2);
        l_run[r] = RoundToF16(RoundToF16(alpha * l_run[r]) + row_sum);
        m_run[r] = m_new;

        // Rescale O rows by alpha (deferred: multiply now, add PV below).
        if (alpha != 1.0f) {
          for (int c = 0; c < head_dim; ++c) {
            o_rows[r * head_dim + c] = F16(RoundToF16(alpha * o_rows[r * head_dim + c].ToFloat()));
          }
        }
        rescale_packets += (head_dim / HvxVec::kHalfwords) * 3;  // load, mul, store per reg
      }
      softmax_packets += ctx.packets() - sm_start;

      // Pack P tiles from the post-softmax chunk.
      for (int t = 0; t < kvt; ++t) {
        PackTilePadded(s_rows + t * HmxEngine::kTileDim, kAttnKvChunk, rows,
                       std::min(HmxEngine::kTileDim, kvn - t * HmxEngine::kTileDim),
                       /*transpose=*/false, p_tiles_mem + t * HmxEngine::kTileElems);
        pack_packets += kTilePackPackets;
      }

      // O += P V (HMX, FP32 accumulation), added into the FP16 O rows.
      for (int dt = 0; dt < d_tiles; ++dt) {
        std::fill(acc, acc + rows * HmxEngine::kTileDim, 0.0f);  // live rows only
        for (int t = 0; t < kvt; ++t) {
          hmx.TileMacc(tcm, p_tiles_mem + t * HmxEngine::kTileElems,
                       v_tiles_mem + (t * d_tiles + dt) * HmxEngine::kTileElems, acc, rows);
          ++pv_tile_ops;
        }
        hmx.StoreAcc(acc, pv_tile, nullptr, nullptr, rows);
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < HmxEngine::kTileDim; ++c) {
            F16& dst = o_rows[r * head_dim + dt * HmxEngine::kTileDim + c];
            dst = F16(RoundToF16(dst.ToFloat() +
                                 pv_tile[HmxEngine::TileHalfwordOffset(r, c)].ToFloat()));
          }
        }
        pack_packets += kTileUnpackPackets;
        rescale_packets += (HmxEngine::kTileDim * kAttnQTile / HvxVec::kHalfwords) * 2;
      }
    }

    // Final normalization: O = diag(1/l) O, then DMA the valid rows out.
    for (int r = 0; r < rows; ++r) {
      ctx.ChargeScalar(2);
      const float inv = (l_run[r] > 0.0f) ? 1.0f / l_run[r] : 0.0f;
      for (int c = 0; c < head_dim; ++c) {
        o_rows[r * head_dim + c] = F16(RoundToF16(inv * o_rows[r * head_dim + c].ToFloat()));
      }
      rescale_packets += (head_dim / HvxVec::kHalfwords) * 3;
    }
    dev.dma().Transfer2D(o + static_cast<int64_t>(q0) * o_stride, o_stride * 2, o_rows,
                         head_dim * 2, head_dim * 2, rows, DmaDirection::kTcmToDdr);

    // Commit HVX costs with component tags (packets were counted locally above).
    dev.CommitHvxPackets(softmax_packets, 1, "attn.softmax");
    dev.CommitHvxPackets(rescale_packets, 1, "attn.rescale");
    dev.CommitHvxPackets(pack_packets, 1, "attn.pack");
    dev.CommitHmxTileOps(qk_tile_ops, "attn.qk");
    dev.CommitHmxTileOps(pv_tile_ops, "attn.pv");
    ctx.ResetPackets();
  }
}

}  // namespace

AttnWindowSpec AttnWindowFromEnv(AttnWindowSpec spec) {
  spec.sink_blocks = hexllm::EnvInt("HEXLLM_ATTN_SINK_BLOCKS", spec.sink_blocks, 0);
  spec.window_blocks = hexllm::EnvInt("HEXLLM_ATTN_WINDOW_BLOCKS", spec.window_blocks, 0);
  return spec;
}

void AppendAttendedBlocks(const AttnWindowSpec* window, int q_len, int kv_len,
                          int q_pos_offset, int block_tokens, std::vector<int>* out) {
  HEXLLM_CHECK(block_tokens >= 1);
  if (q_len <= 0 || kv_len <= 0) {
    return;
  }
  const AttnWindowSpec* win = NormalizeWindow(window, q_len, kv_len, q_pos_offset);
  const bool causal = q_pos_offset >= 0;
  const int win_off = causal ? q_pos_offset : kv_len - q_len;
  const int q_tiles = static_cast<int>(hexllm::CeilDiv(q_len, kAttnQTile));
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(kv_len, kAttnKvChunk));
  int prev_last = -1;  // chunks ascend, so blocks ascend: dedup is a high-water mark
  for (int chunk = 0; chunk < kv_chunks; ++chunk) {
    const int kv0 = chunk * kAttnKvChunk;
    const int kvn = std::min(kAttnKvChunk, kv_len - kv0);
    // A chunk is staged iff some q-tile both causally reaches it and does not have it
    // fully window-masked — the exact pair of skip predicates in FlashAttentionCore.
    bool staged = false;
    for (int qt = 0; qt < q_tiles && !staged; ++qt) {
      const int q0 = qt * kAttnQTile;
      const int rows = std::min(kAttnQTile, q_len - q0);
      if (causal && kv0 > q_pos_offset + q0 + rows - 1) {
        continue;
      }
      if (win != nullptr && win->ChunkFullyMasked(kv0, kvn, win_off + q0)) {
        continue;
      }
      staged = true;
    }
    if (!staged) {
      continue;
    }
    const int first = kv0 / block_tokens;
    const int last = (kv0 + kvn - 1) / block_tokens;
    for (int b = std::max(first, prev_last + 1); b <= last; ++b) {
      out->push_back(b);
    }
    prev_last = last;
  }
}

void FlashAttentionF16(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                       const F16* q, const F16* k, const F16* v, F16* o, int q_len, int kv_len,
                       int head_dim, float scale, int q_pos_offset) {
  const ContigKvRows k_rows{k, head_dim};
  const ContigKvRows v_rows{v, head_dim};
  FlashAttentionCore(dev, lut, exp_variant, q, head_dim, k_rows, v_rows, o, head_dim, q_len,
                     kv_len, head_dim, scale, q_pos_offset, /*window=*/nullptr);
}

void FlashAttentionPagedF16(hexsim::NpuDevice& dev, const ExpLut& lut,
                            SoftmaxVariant exp_variant, const F16* q, int64_t q_stride,
                            const PagedKvHeadView& kv, F16* o, int64_t o_stride, int q_len,
                            int kv_len, int head_dim, float scale, int q_pos_offset,
                            const AttnWindowSpec* window) {
  HEXLLM_CHECK(kv.k_blocks != nullptr && kv.v_blocks != nullptr && kv.block_tokens >= 1);
  const PagedKvRows k_rows{kv.k_blocks, kv.block_tokens, kv.row_stride, kv.head_offset};
  const PagedKvRows v_rows{kv.v_blocks, kv.block_tokens, kv.row_stride, kv.head_offset};
  FlashAttentionCore(dev, lut, exp_variant, q, q_stride, k_rows, v_rows, o, o_stride, q_len,
                     kv_len, head_dim, scale, q_pos_offset, window);
}

void FlashAttentionPagedQ(hexsim::NpuDevice& dev, const ExpLut& lut,
                          SoftmaxVariant exp_variant, const F16* q, int64_t q_stride,
                          const PagedQKvHeadView& kv, F16* o, int64_t o_stride, int q_len,
                          int kv_len, int head_dim, float scale, int q_pos_offset,
                          const AttnWindowSpec* window) {
  HEXLLM_CHECK(kv.k_blocks != nullptr && kv.v_blocks != nullptr && kv.block_tokens >= 1);
  HEXLLM_CHECK(kv.dtype != hquant::KvDtype::kF16);
  HEXLLM_CHECK(kv.group >= 2 && head_dim % kv.group == 0);
  dev.ledger().AddCount("kernel.attn_kv_dequant.calls");
  const int64_t staged_row_bytes =
      hquant::KvPayloadBytes(kv.dtype, head_dim) + (head_dim / kv.group) * 2;
  const PagedQuantKvRows k_rows{kv.k_blocks,       kv.block_tokens, kv.row_bytes,
                                kv.payload_offset, kv.scales_offset, kv.group,
                                kv.dtype,          staged_row_bytes};
  const PagedQuantKvRows v_rows{kv.v_blocks,       kv.block_tokens, kv.row_bytes,
                                kv.payload_offset, kv.scales_offset, kv.group,
                                kv.dtype,          staged_row_bytes};
  FlashAttentionCore(dev, lut, exp_variant, q, q_stride, k_rows, v_rows, o, o_stride, q_len,
                     kv_len, head_dim, scale, q_pos_offset, window);
}

void AttentionF32Reference(const float* q, const float* k, const float* v, float* o, int q_len,
                           int kv_len, int head_dim, float scale) {
  std::vector<double> s(static_cast<size_t>(kv_len));
  for (int i = 0; i < q_len; ++i) {
    const float* qi = q + static_cast<int64_t>(i) * head_dim;
    double m = -std::numeric_limits<double>::infinity();
    for (int j = 0; j < kv_len; ++j) {
      const float* kj = k + static_cast<int64_t>(j) * head_dim;
      double dot = 0.0;
      for (int c = 0; c < head_dim; ++c) {
        dot += static_cast<double>(qi[c]) * kj[c];
      }
      s[static_cast<size_t>(j)] = dot * scale;
      m = std::max(m, s[static_cast<size_t>(j)]);
    }
    double l = 0.0;
    for (int j = 0; j < kv_len; ++j) {
      s[static_cast<size_t>(j)] = std::exp(s[static_cast<size_t>(j)] - m);
      l += s[static_cast<size_t>(j)];
    }
    float* oi = o + static_cast<int64_t>(i) * head_dim;
    for (int c = 0; c < head_dim; ++c) {
      double acc = 0.0;
      for (int j = 0; j < kv_len; ++j) {
        acc += s[static_cast<size_t>(j)] * v[static_cast<int64_t>(j) * head_dim + c];
      }
      oi[c] = static_cast<float>(acc / l);
    }
  }
}

AttentionCost FlashAttentionCost(const hexsim::DeviceProfile& profile,
                                 SoftmaxVariant exp_variant, int q_len, int kv_len,
                                 int head_dim) {
  AttentionCost cost;
  const int d_tiles = head_dim / HmxEngine::kTileDim;
  const int q_tiles = static_cast<int>(hexllm::CeilDiv(q_len, kAttnQTile));
  const int kv_tiles = static_cast<int>(hexllm::CeilDiv(kv_len, HmxEngine::kTileDim));
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(kv_len, kAttnKvChunk));

  hexsim::HmxEngine hmx(profile);
  const int64_t mm_tile_ops = static_cast<int64_t>(q_tiles) * kv_tiles * d_tiles;
  cost.hmx_qk_s = hmx.TileOpsToSeconds(mm_tile_ops);
  cost.hmx_pv_s = hmx.TileOpsToSeconds(mm_tile_ops);

  // Softmax: per valid row per chunk: rowmax(2+1+7) + scalar(3) + 2 splats +
  // 2 regs x (load+sub+exp+store+widen2+2adds = 7+E) + reduce(6) + scalar(2).
  const int64_t exp_cost = ExpRegPacketCost(profile, exp_variant, q_len);
  const int64_t per_row_chunk = 10 + 3 + 2 + 2 * (7 + exp_cost) + 6 + 2;
  const int64_t softmax_packets =
      static_cast<int64_t>(q_len) * kv_chunks * per_row_chunk;
  const double hz = profile.hvx_freq_ghz * 1e9;
  cost.hvx_softmax_s = static_cast<double>(softmax_packets) / hz;

  // Rescale: per chunk per row: O-rescale (d/64 regs x 3) + PV accumulate
  // (d_tiles x 32x32/64 x 2 per tile row... simplified to the emulation's charges) and the
  // final normalization sweep.
  const int64_t regs_d = head_dim / HvxVec::kHalfwords;
  const int64_t rescale_packets =
      static_cast<int64_t>(q_len) * kv_chunks * regs_d * 3 +
      static_cast<int64_t>(q_tiles) * kv_chunks * d_tiles *
          (HmxEngine::kTileDim * kAttnQTile / HvxVec::kHalfwords) * 2 +
      static_cast<int64_t>(q_len) * regs_d * 3;
  cost.hvx_rescale_s = static_cast<double>(rescale_packets) / hz;

  // Packing: Q tiles once per q-tile; P packs and S/PV unpacks per chunk. K/V tiles arrive
  // pre-packed (the runtime stores the KV cache in HMX layout at append time).
  const int64_t pack_packets =
      static_cast<int64_t>(q_tiles) *
      (d_tiles * kTilePackPackets +
       static_cast<int64_t>(kv_tiles) * (kTilePackPackets + kTileUnpackPackets) +  // P, S
       static_cast<int64_t>(kv_chunks) * d_tiles * kTileUnpackPackets);  // PV
  cost.hvx_pack_s = static_cast<double>(pack_packets) / hz;

  // DMA: Q in + O out once per q-tile; K and V per (q-tile, chunk).
  hexsim::CycleLedger scratch;
  hexsim::DmaEngine dma(profile, scratch);
  const double q_dma = dma.Cost2D(head_dim * 2, std::min(q_len, kAttnQTile), DmaDirection::kDdrToTcm);
  const double kv_dma = dma.Cost2D(head_dim * 2, std::min(kv_len, kAttnKvChunk), DmaDirection::kDdrToTcm);
  cost.dma_s = q_tiles * (2 * q_dma + kv_chunks * 2 * kv_dma);
  return cost;
}

}  // namespace hkern
