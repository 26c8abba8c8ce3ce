// FP16 GEMM on the matrix unit (HMX) and on the vector unit (HVX).
//
// These two kernels are the subjects of Table 2: the same 1024^3 FP16 GEMM runs ~365x faster
// on HMX than on a single HVX thread, which is the imbalance motivating the whole system.
// Both kernels exist in functional form (real numerics through the simulators, used by tests
// and small benches) and as analytic cost models (used for full-size shapes).
#ifndef SRC_KERNELS_GEMM_H_
#define SRC_KERNELS_GEMM_H_

#include <cstdint>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"

namespace hkern {

// C[M,N] (FP16, row-major) = A[M,K] (FP16, row-major) x B (FP16, HMX tile stream order:
// column-major 32x32 tiles, Figure 4b). M, K, N must be multiples of 32. When
// `operands_in_tcm` is true no DMA is charged (the Table 2 peak-measurement configuration).
// `valid_m` (default m) marks how many leading rows of A actually carry data: only those
// rows of A are read and only those rows of C are written, so A and C need hold just
// valid_m rows. The tile/packet charges are those of the full padded shape either way, so a
// caller with a partial batch passes its rows straight through.
// Each B tile is decoded to FP32 once per row strip (once per call for m <= 32), and the
// product is GemmF16HmxPanels's, bit for bit. Returns the simulated latency in seconds.
double GemmF16Hmx(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b_tiles,
                  hexllm::F16* c, int m, int k, int n, bool operands_in_tcm,
                  int valid_m = -1);

// Decodes the HMX tile stream of a [K, N] matrix into FP32 column panels laid out
// [N/32][K][32]: panel j holds columns [32j, 32j+32), row-major. F16 -> FP32 is exact.
void DecodeHmxTilesToPanels(const hexllm::F16* b_tiles, int k, int n, float* panels);

// GemmF16Hmx on a B already decoded by DecodeHmxTilesToPanels (QuantizedLinear's weight
// cache keeps it), with the same charges. Each live row of C is an FP32 sum of FP16
// products in ascending k with zero-magnitude activations skipped, rounded to F16 — the
// sequence of HmxEngine::TileMacc calls over the k tiles followed by StoreAcc, bit for bit.
double GemmF16HmxPanels(hexsim::NpuDevice& dev, const hexllm::F16* a, const float* b_panels,
                        hexllm::F16* c, int m, int k, int n, bool operands_in_tcm,
                        int valid_m = -1);

// C[M,N] = A[M,K] x B[K,N] (all FP16 row-major) on ONE HVX thread: per 64-wide output chunk,
// a vsplat/load/multiply/accumulate inner loop over K. Returns the simulated latency.
double GemmF16Hvx(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b,
                  hexllm::F16* c, int m, int k, int n);

// Analytic packet count of GemmF16Hvx (exact match with the emulated kernel).
int64_t GemmF16HvxPackets(const hexsim::DeviceProfile& profile, int m, int k, int n);

// Analytic HMX tile-op count of GemmF16Hmx.
int64_t GemmF16HmxTileOps(int m, int k, int n);

}  // namespace hkern

#endif  // SRC_KERNELS_GEMM_H_
