// Quantization block formats.
//
// The storage layouts follow llama.cpp conventions (the system is built as a llama.cpp NPU
// backend, §6): Q4_0 stores a group of 32 weights as one FP16 scale plus 16 nibble-packed
// bytes; Q8_0 stores one FP16 scale plus 32 int8 values. Blocks interleave payload and scale
// (AoS) because NPU prefetch prefers one contiguous stream over two (§5.1.2).
#ifndef SRC_QUANT_QUANT_TYPES_H_
#define SRC_QUANT_QUANT_TYPES_H_

#include <cmath>
#include <cstdint>

#include "src/base/env.h"
#include "src/base/fp16.h"
#include "src/base/math_util.h"

namespace hquant {

inline constexpr int kGroupSize = 32;  // elements per quantization group

enum class WeightScheme : uint8_t {
  kF16,             // unquantized half weights
  kQ4_0,            // 4-bit symmetric groups of 32 (4.5 bits/weight)
  kQ8_0,            // 8-bit symmetric groups of 32 (8.5 bits/weight)
  kPerChannelInt4,  // QNN-style: one scale per output channel (coarse-grained)
};

const char* WeightSchemeName(WeightScheme s);

// Bits per weight including scale overhead.
double WeightSchemeBpw(WeightScheme s);

// One Q4_0 group: 32 weights. value(i) = (nibble(i) - 8) * d.
// Nibble packing: byte j holds element j in the low nibble and element j+16 in the high
// nibble (llama.cpp block_q4_0 layout).
struct BlockQ4_0 {
  hexllm::F16 d;
  uint8_t qs[kGroupSize / 2];
};
static_assert(sizeof(BlockQ4_0) == 18, "Q4_0 block is 18 bytes");

// One Q8_0 group: 32 weights. value(i) = qs[i] * d.
struct BlockQ8_0 {
  hexllm::F16 d;
  int8_t qs[kGroupSize];
};
static_assert(sizeof(BlockQ8_0) == 34, "Q8_0 block is 34 bytes");

// Super-block produced by coalescing 8 Q4_0 groups (256 elements) so that the INT4 payload
// fills exactly one 128-byte HVX register (§5.1.2, Figure 7).
//
// Payload nibble layout: byte i holds element i in the low nibble and element 128+i in the
// high nibble. A single vand/vshr pair therefore yields two full index registers covering
// elements 0..127 and 128..255 in order — no cross-register merging.
// Scales: 8 FP16 scales, one per original group of 32 consecutive elements.
struct SuperBlockQ4 {
  static constexpr int kElems = 256;
  static constexpr int kGroups = 8;
  uint8_t qs[128];
  hexllm::F16 scales[kGroups];
};
static_assert(sizeof(SuperBlockQ4) == 144, "super-block is 144 bytes");

// ---------------------------------------------------------------------------------------
// Paged KV cache element types (docs/kv_quantization.md).
//
// The KV cache reuses the weight-side group-quantization rules (Q4_0 / Q8_0 scale
// derivation above) but with a row-oriented layout: one K or V row of `kv_dim` elements is
// stored as a contiguous payload followed by one F16 scale per `group` consecutive
// elements. INT4 payloads pack pairwise — byte j holds element 2j in the low nibble and
// element 2j+1 in the high nibble — unlike BlockQ4_0's j/j+16 split, so a row slices
// cleanly at any group boundary (per-kv-head attention views need group-aligned slices).
//
// These helpers are header-only on purpose: src/kvcache links neither hexllm_quant nor
// hexllm_kernels, and the writer (PagedKvCache) and reader (FlashAttentionPagedQ) must
// share bit-exact numerics.
// ---------------------------------------------------------------------------------------

enum class KvDtype : uint8_t {
  kF16,   // unquantized half rows — the default; byte-identical to the pre-quant layout
  kInt8,  // Q8_0-style: int8 payload + one F16 scale per group (~1.9x smaller than F16)
  kInt4,  // Q4_0-style: nibble payload + one F16 scale per group (~3.6x smaller than F16)
};

inline const char* KvDtypeName(KvDtype d) {
  switch (d) {
    case KvDtype::kF16:
      return "f16";
    case KvDtype::kInt8:
      return "int8";
    case KvDtype::kInt4:
      return "int4";
  }
  return "?";
}

inline int KvDtypeBits(KvDtype d) {
  switch (d) {
    case KvDtype::kF16:
      return 16;
    case KvDtype::kInt8:
      return 8;
    case KvDtype::kInt4:
      return 4;
  }
  return 16;
}

// Payload bytes for `elems` quantized elements (elems must be group-aligned for kInt4).
inline int64_t KvPayloadBytes(KvDtype d, int64_t elems) {
  switch (d) {
    case KvDtype::kF16:
      return elems * 2;
    case KvDtype::kInt8:
      return elems;
    case KvDtype::kInt4:
      return elems / 2;
  }
  return elems * 2;
}

// Bytes of one K (or V) row of `row_elems` elements: payload, then one F16 scale per
// quantization group. F16 rows carry no scales and keep the legacy 2-bytes/element layout.
inline int64_t KvRowBytes(KvDtype d, int64_t row_elems, int group) {
  if (d == KvDtype::kF16) {
    return row_elems * 2;
  }
  return KvPayloadBytes(d, row_elems) + (row_elems / group) * 2;
}

// Escape hatch: HEXLLM_KV_DTYPE=f16|int8|int4 overrides the configured KV dtype (e.g. to
// force a quantized deployment back to F16 when chasing an accuracy regression). Unset or
// empty keeps `configured`; any other value CHECK-fails.
inline KvDtype KvDtypeFromEnv(KvDtype configured) {
  return static_cast<KvDtype>(hexllm::EnvChoice("HEXLLM_KV_DTYPE", static_cast<int>(configured),
                                                {"f16", "int8", "int4"}));
}

// Quantizes `group` consecutive floats into an INT4 KV payload group, returning the F16
// scale. Scale rule mirrors QuantizeQ4_0 (group_quant.cc): d = signed-max / -8.
inline hexllm::F16 KvQuantizeGroupInt4(const float* x, int group, uint8_t* payload) {
  float amax = 0.0f;
  float vmax = 0.0f;  // signed value of the max-magnitude element
  for (int i = 0; i < group; ++i) {
    const float a = std::fabs(x[i]);
    if (a > amax) {
      amax = a;
      vmax = x[i];
    }
  }
  const float d = vmax / -8.0f;
  const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
  for (int j = 0; j < group / 2; ++j) {
    const int q_lo = hexllm::Clamp(static_cast<int>(std::lrintf(x[2 * j] * id)) + 8, 0, 15);
    const int q_hi =
        hexllm::Clamp(static_cast<int>(std::lrintf(x[2 * j + 1] * id)) + 8, 0, 15);
    payload[j] = static_cast<uint8_t>(q_lo | (q_hi << 4));
  }
  return hexllm::F16(d);
}

// Quantizes `group` consecutive floats into an INT8 KV payload group, returning the F16
// scale. Scale rule mirrors QuantizeQ8_0 (group_quant.cc): d = amax / 127.
inline hexllm::F16 KvQuantizeGroupInt8(const float* x, int group, int8_t* payload) {
  float amax = 0.0f;
  for (int i = 0; i < group; ++i) {
    amax = std::max(amax, std::fabs(x[i]));
  }
  const float d = amax / 127.0f;
  const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
  for (int i = 0; i < group; ++i) {
    payload[i] = static_cast<int8_t>(
        hexllm::Clamp(static_cast<int>(std::lrintf(x[i] * id)), -127, 127));
  }
  return hexllm::F16(d);
}

// Dequantizes one INT4 KV group into F16 (the attention kernels stage K/V as F16 tiles).
// value(i) = F16((nibble(i) - 8) * d) — the multiply happens in float and rounds through
// FP16 once, matching what the HVX vlut16 scale-multiply produces.
inline void KvDequantGroupInt4(const uint8_t* payload, float d, int group, hexllm::F16* out) {
  for (int j = 0; j < group / 2; ++j) {
    const uint8_t byte = payload[j];
    out[2 * j] = hexllm::F16(static_cast<float>((byte & 0x0F) - 8) * d);
    out[2 * j + 1] = hexllm::F16(static_cast<float>((byte >> 4) - 8) * d);
  }
}

// Dequantizes one INT8 KV group into F16. value(i) = F16(qs[i] * d).
inline void KvDequantGroupInt8(const int8_t* payload, float d, int group, hexllm::F16* out) {
  for (int i = 0; i < group; ++i) {
    out[i] = hexllm::F16(static_cast<float>(payload[i]) * d);
  }
}

}  // namespace hquant

#endif  // SRC_QUANT_QUANT_TYPES_H_
