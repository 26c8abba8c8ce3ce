#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/quant/codebooks.h"
#include "src/quant/error_stats.h"
#include "src/quant/group_quant.h"
#include "src/quant/quant_types.h"
#include "src/quant/synthetic_weights.h"
#include "src/quant/tile_quant.h"

namespace hquant {
namespace {

std::vector<float> RandomValues(size_t n, uint64_t seed, double sigma = 1.0) {
  hexllm::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.NextGaussian() * sigma);
  }
  return v;
}

TEST(GroupQuantTest, Q4RoundTripErrorBounded) {
  const auto values = RandomValues(32 * 64, 1);
  const auto blocks = QuantizeQ4_0(values);
  std::vector<float> back(values.size());
  DequantizeQ4_0(blocks, back);
  // Per-group error bound: half a step (|d|/2 = amax/16) for in-range values, plus up to a
  // full step of clipping on the side opposite the max-magnitude element (the [-8, 7] grid
  // only reaches 7|d| on one side) -> 3/16 * amax.
  for (size_t b = 0; b < blocks.size(); ++b) {
    float amax = 0.0f;
    for (int i = 0; i < 32; ++i) {
      amax = std::max(amax, std::fabs(values[b * 32 + i]));
    }
    const float bound = amax * 3.0f / 16.0f + 1e-3f;
    for (int i = 0; i < 32; ++i) {
      EXPECT_LE(std::fabs(back[b * 32 + i] - values[b * 32 + i]), bound) << b << ":" << i;
    }
  }
}

TEST(GroupQuantTest, Q4UsesFullRange) {
  // The llama.cpp scale rule (d = signed max / -8) must make the -8 code reachable.
  std::vector<float> values(32, 0.1f);
  values[5] = -4.0f;  // max-magnitude element, negative
  const auto blocks = QuantizeQ4_0(values);
  EXPECT_FLOAT_EQ(blocks[0].d.ToFloat(), hexllm::RoundToF16(0.5f));
  EXPECT_FLOAT_EQ(BlockQ4Value(blocks[0], 5), -4.0f);
}

TEST(GroupQuantTest, Q8RoundTripTighterThanQ4) {
  const auto values = RandomValues(32 * 64, 2);
  const auto b4 = QuantizeQ4_0(values);
  const auto b8 = QuantizeQ8_0(values);
  std::vector<float> r4(values.size());
  std::vector<float> r8(values.size());
  DequantizeQ4_0(b4, r4);
  DequantizeQ8_0(b8, r8);
  const auto e4 = ComputeErrorStats(values, r4);
  const auto e8 = ComputeErrorStats(values, r8);
  EXPECT_LT(e8.rel_rms, e4.rel_rms / 4.0);
}

TEST(GroupQuantTest, ZeroGroupIsExact) {
  std::vector<float> values(32, 0.0f);
  const auto blocks = QuantizeQ4_0(values);
  std::vector<float> back(32);
  DequantizeQ4_0(blocks, back);
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(PerChannelTest, MatchesGroupQuantOnGaussianWeights) {
  // Without outliers the coarse scheme is only mildly worse.
  hexllm::Rng rng(3);
  const auto w = GenerateGaussianMatrix(256, 128, rng);
  const auto pc = QuantizePerChannelInt4(w, 256, 128);
  std::vector<float> back(w.size());
  DequantizePerChannelInt4(pc, back);
  const auto pc_err = ComputeErrorStats(w, back);
  const auto blocks = ConventionalGroupQuantizeQ4(w, 256, 128);
  const auto g = DequantizeConventionalQ4(blocks, 256, 128);
  const auto g_err = ComputeErrorStats(w, g);
  EXPECT_LT(pc_err.rel_rms, g_err.rel_rms * 2.5);
}

TEST(PerChannelTest, CollapsesOnOutlierWeights) {
  // Table 1's mechanism: systematic outlier input dims blow up the coarse per-channel
  // scale (each column contains every outlier dim). The fine-grained groups along K
  // quarantine the damage to the few groups that contain an outlier dim.
  hexllm::Rng rng(4);
  const int64_t k = 2048;  // realistic hidden size: each column sees every outlier dim
  const int64_t n = 128;
  const auto w = GenerateLlmLikeMatrix(k, n, rng);
  const auto pc = QuantizePerChannelInt4(w, k, n);
  std::vector<float> back(w.size());
  DequantizePerChannelInt4(pc, back);
  const auto pc_err = ComputeErrorStats(w, back);
  const auto blocks = ConventionalGroupQuantizeQ4(w, k, n);
  const auto g = DequantizeConventionalQ4(blocks, k, n);
  const auto g_err = ComputeErrorStats(w, g);
  EXPECT_GT(pc_err.rel_rms, g_err.rel_rms * 3.0);
}

// --- HMX stream permutation ---

TEST(TileQuantTest, StreamPermutationIsBijective) {
  const int64_t k = 64;
  const int64_t n = 96;
  std::vector<bool> seen(static_cast<size_t>(k * n), false);
  for (int64_t i = 0; i < k * n; ++i) {
    const KnIndex kn = HmxStreamToKn(i, k, n);
    ASSERT_GE(kn.k, 0);
    ASSERT_LT(kn.k, k);
    ASSERT_GE(kn.n, 0);
    ASSERT_LT(kn.n, n);
    const size_t flat = static_cast<size_t>(kn.n * k + kn.k);
    EXPECT_FALSE(seen[flat]);
    seen[flat] = true;
    EXPECT_EQ(KnToHmxStream(kn.k, kn.n, k, n), i);
  }
}

TEST(TileQuantTest, PermuteUnpermuteRoundTrip) {
  const auto w = RandomValues(64 * 64, 5);
  const auto stream = PermuteToHmxOrder(w, 64, 64);
  const auto back = UnpermuteFromHmxOrder(stream, 64, 64);
  EXPECT_EQ(w, back);
}

TEST(TileQuantTest, TilesAreColumnMajor) {
  // Element (k=32, n=0) starts tile 1 (second K-tile of output-tile 0); element (0, 32)
  // starts after ALL K-tiles of output-tile 0 (Figure 4b: tile-level inner product).
  const int64_t k = 96;
  const int64_t n = 64;
  EXPECT_EQ(KnToHmxStream(32, 0, k, n), 1024);
  EXPECT_EQ(KnToHmxStream(0, 32, k, n), 3 * 1024);
}

TEST(TileQuantTest, GroupsAre2x16Tiles) {
  // §5.1.1: with group size 32, tile-group quantization groups cover 2x16 rectangles: one
  // quantization group = {rows 2p..2p+1} x {cols c0..c0+15} of a tile.
  const int64_t k = 64;
  const int64_t n = 64;
  for (int64_t g = 0; g < (k * n) / 32; ++g) {
    int64_t k_min = 1 << 20, k_max = -1, n_min = 1 << 20, n_max = -1;
    for (int64_t i = g * 32; i < (g + 1) * 32; ++i) {
      const KnIndex kn = HmxStreamToKn(i, k, n);
      k_min = std::min(k_min, kn.k);
      k_max = std::max(k_max, kn.k);
      n_min = std::min(n_min, kn.n);
      n_max = std::max(n_max, kn.n);
    }
    EXPECT_EQ(k_max - k_min, 1) << g;   // 2 rows
    EXPECT_EQ(n_max - n_min, 15) << g;  // 16 columns
  }
}

TEST(TileQuantTest, TileGroupErrorMatchesConventionalOnGaussian) {
  // §5.1.1's statistical argument: for ~zero-mean-Gaussian weights, quantizing within the
  // reshaped 2x16 tile groups is statistically equivalent to column groups.
  hexllm::Rng rng(6);
  const auto w = GenerateGaussianMatrix(256, 256, rng);
  const auto tile_blocks = TileGroupQuantizeQ4(w, 256, 256);
  const auto conv_blocks = ConventionalGroupQuantizeQ4(w, 256, 256);
  const auto tile_back = DequantizeTileGroupQ4(tile_blocks, 256, 256);
  const auto conv_back = DequantizeConventionalQ4(conv_blocks, 256, 256);
  const auto tile_err = ComputeErrorStats(w, tile_back);
  const auto conv_err = ComputeErrorStats(w, conv_back);
  EXPECT_NEAR(tile_err.rel_rms, conv_err.rel_rms, 0.1 * conv_err.rel_rms);
}

TEST(TileQuantTest, TileGroupErrorSameOrderOnLlmLikeWeights) {
  // With realistic outlier dims the two groupings differ slightly (Table 4's small deltas)
  // but stay within the same order of magnitude.
  hexllm::Rng rng(6);
  const auto w = GenerateLlmLikeMatrix(256, 256, rng);
  const auto tile_back = DequantizeTileGroupQ4(TileGroupQuantizeQ4(w, 256, 256), 256, 256);
  const auto conv_back =
      DequantizeConventionalQ4(ConventionalGroupQuantizeQ4(w, 256, 256), 256, 256);
  const auto tile_err = ComputeErrorStats(w, tile_back);
  const auto conv_err = ComputeErrorStats(w, conv_back);
  EXPECT_LT(tile_err.rel_rms, conv_err.rel_rms * 2.0);
  EXPECT_GT(tile_err.rel_rms, conv_err.rel_rms * 0.5);
}

// --- super-blocks ---

TEST(SuperBlockTest, SizeIs144Bytes) {
  EXPECT_EQ(sizeof(SuperBlockQ4), 144u);
  // INT4 payload of 256 elements = exactly one 128-byte HVX register (§5.1.2).
  EXPECT_EQ(sizeof(SuperBlockQ4::qs), 128u);
}

TEST(SuperBlockTest, CoalescePreservesValues) {
  const auto values = RandomValues(256 * 4, 7);
  const auto blocks = QuantizeQ4_0(values);
  const auto sbs = CoalesceSuperblocks(blocks);
  ASSERT_EQ(sbs.size(), 4u);
  std::vector<float> from_blocks(values.size());
  DequantizeQ4_0(blocks, from_blocks);
  std::vector<float> from_sbs(values.size());
  DequantizeSuperblocks(sbs, from_sbs);
  EXPECT_EQ(from_blocks, from_sbs);
}

TEST(SuperBlockTest, NibbleLayoutSplitsAt128) {
  // byte i must hold element i (low) and element 128+i (high) so one vand/vshr pair yields
  // in-order index registers.
  std::vector<float> values(256);
  for (int i = 0; i < 256; ++i) {
    values[static_cast<size_t>(i)] = static_cast<float>((i % 13) - 6);
  }
  const auto blocks = QuantizeQ4_0(values);
  const auto sbs = CoalesceSuperblocks(blocks);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(SuperBlockNibble(sbs[0], i), sbs[0].qs[i] & 0x0F);
    EXPECT_EQ(SuperBlockNibble(sbs[0], 128 + i), sbs[0].qs[i] >> 4);
  }
}

// --- codebooks ---

TEST(CodebookTest, Q4LevelsAreAffine) {
  const auto levels = CodebookLevels(Int4Codebook::kQ4_0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(levels[static_cast<size_t>(i)], static_cast<float>(i - 8));
  }
}

TEST(CodebookTest, Nf4IsMonotoneAndSymmetricRange) {
  const auto levels = CodebookLevels(Int4Codebook::kNf4);
  EXPECT_FLOAT_EQ(levels[0], -1.0f);
  EXPECT_FLOAT_EQ(levels[15], 1.0f);
  EXPECT_FLOAT_EQ(levels[7], 0.0f);
  for (int i = 1; i < 16; ++i) {
    EXPECT_GT(levels[static_cast<size_t>(i)], levels[static_cast<size_t>(i - 1)]);
  }
}

TEST(CodebookTest, EncoderPicksNearestLevel) {
  for (const auto cb : {Int4Codebook::kQ4_0, Int4Codebook::kNf4, Int4Codebook::kFp4,
                        Int4Codebook::kIq4Nl}) {
    const auto levels = CodebookLevels(cb);
    for (int i = 0; i < 16; ++i) {
      // Compare by value, not index: FP4 encodes zero twice (+0 at 0, -0 at 8).
      const int code = EncodeToCodebook(cb, levels[static_cast<size_t>(i)]);
      EXPECT_FLOAT_EQ(levels[static_cast<size_t>(code)], levels[static_cast<size_t>(i)])
          << Int4CodebookName(cb) << " level " << i;
    }
  }
}

TEST(CodebookTest, F16TableMatchesF32Levels) {
  const auto f32 = CodebookLevels(Int4Codebook::kNf4);
  const auto f16 = CodebookLevelsF16(Int4Codebook::kNf4);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(hexllm::F16BitsToF32(f16[static_cast<size_t>(i)]), f32[static_cast<size_t>(i)],
                1e-3);
  }
}

TEST(CodebookTest, Nf4BeatsQ4OnGaussianData) {
  // NF4 levels are optimized for Gaussian data: with per-group absmax scaling it should
  // reconstruct Gaussian weights better than the uniform grid.
  hexllm::Rng rng(8);
  std::vector<float> values(4096);
  for (auto& v : values) {
    v = static_cast<float>(rng.NextGaussian());
  }
  double q4_se = 0.0;
  double nf4_se = 0.0;
  for (size_t g = 0; g < values.size(); g += 32) {
    float amax = 0.0f;
    for (int i = 0; i < 32; ++i) {
      amax = std::max(amax, std::fabs(values[g + i]));
    }
    const auto nf4 = CodebookLevels(Int4Codebook::kNf4);
    for (int i = 0; i < 32; ++i) {
      const float x = values[g + i];
      const float q4_rec =
          static_cast<float>(EncodeToCodebook(Int4Codebook::kQ4_0, x / (amax / 8)) - 8) *
          (amax / 8);
      const float nf4_rec =
          nf4[static_cast<size_t>(EncodeToCodebook(Int4Codebook::kNf4, x / amax))] * amax;
      q4_se += (x - q4_rec) * (x - q4_rec);
      nf4_se += (x - nf4_rec) * (x - nf4_rec);
    }
  }
  EXPECT_LT(nf4_se, q4_se);
}

// --- error stats ---

TEST(ErrorStatsTest, PerfectReconstruction) {
  const auto v = RandomValues(128, 9);
  const auto s = ComputeErrorStats(v, v);
  EXPECT_EQ(s.mse, 0.0);
  EXPECT_EQ(s.rel_rms, 0.0);
  EXPECT_NEAR(s.cosine, 1.0, 1e-12);
}

TEST(ErrorStatsTest, KnownError) {
  std::vector<float> ref{1.0f, 0.0f, -1.0f, 0.0f};
  std::vector<float> rec{1.5f, 0.0f, -1.0f, 0.0f};
  const auto s = ComputeErrorStats(ref, rec);
  EXPECT_DOUBLE_EQ(s.mse, 0.25 / 4.0);
  EXPECT_DOUBLE_EQ(s.max_abs, 0.5);
  EXPECT_DOUBLE_EQ(s.rel_rms, std::sqrt(0.25 / 2.0));
}

}  // namespace
}  // namespace hquant

#include "src/quant/awq.h"

namespace hquant {
namespace {

// Synthetic calibration activations with outliers on the same input dims real transformers
// show them (correlated with the weight generator's outlier dims is not required — AWQ
// protects whatever the ACTIVATIONS say is salient).
std::vector<float> CalibrationActs(int64_t samples, int64_t k, hexllm::Rng& rng) {
  std::vector<double> dim_scale(static_cast<size_t>(k), 1.0);
  for (auto& v : dim_scale) {
    if (rng.NextBool(0.02)) {
      v = 15.0;
    }
  }
  std::vector<float> acts(static_cast<size_t>(samples * k));
  for (int64_t s = 0; s < samples; ++s) {
    for (int64_t i = 0; i < k; ++i) {
      acts[static_cast<size_t>(s * k + i)] =
          static_cast<float>(rng.NextGaussian() * dim_scale[static_cast<size_t>(i)]);
    }
  }
  return acts;
}

TEST(AwqTest, ReducesOutputErrorOnSalientActivations) {
  hexllm::Rng rng(91);
  const int64_t k = 512, n = 128, samples = 24;
  const auto w = GenerateGaussianMatrix(k, n, rng, 0.05);
  const auto acts = CalibrationActs(samples, k, rng);
  const auto act_scale = CalibrationActScales(acts, samples, k);

  const auto plain = AwqQuantize(w, k, n, act_scale, /*alpha=*/0.0);
  const auto awq = AwqQuantize(w, k, n, act_scale, /*alpha=*/0.5);
  const auto rec_plain = AwqDequantize(plain);
  const auto rec_awq = AwqDequantize(awq);
  const double mse_plain = OutputMse(w, rec_plain, k, n, acts, samples);
  const double mse_awq = OutputMse(w, rec_awq, k, n, acts, samples);
  EXPECT_LT(mse_awq, mse_plain * 0.8);
}

TEST(AwqTest, AlphaZeroIsPlainGroupQuant) {
  hexllm::Rng rng(92);
  const int64_t k = 128, n = 64;
  const auto w = GenerateGaussianMatrix(k, n, rng, 0.05);
  std::vector<float> act_scale(static_cast<size_t>(k), 1.0f);
  for (size_t i = 0; i < act_scale.size(); i += 3) {
    act_scale[i] = 9.0f;
  }
  const auto awq0 = AwqQuantize(w, k, n, act_scale, 0.0);
  const auto classic = ConventionalGroupQuantizeQ4(w, k, n);
  ASSERT_EQ(awq0.blocks.size(), classic.size());
  for (size_t b = 0; b < classic.size(); ++b) {
    EXPECT_EQ(awq0.blocks[b].d.bits(), classic[b].d.bits()) << b;
    for (int j = 0; j < kGroupSize / 2; ++j) {
      EXPECT_EQ(awq0.blocks[b].qs[j], classic[b].qs[j]) << b << ":" << j;
    }
  }
}

TEST(AwqTest, ScalesFollowActivationMagnitudes) {
  hexllm::Rng rng(93);
  const int64_t k = 64, n = 32;
  const auto w = GenerateGaussianMatrix(k, n, rng, 0.05);
  std::vector<float> act_scale(static_cast<size_t>(k), 1.0f);
  act_scale[5] = 100.0f;
  const auto q = AwqQuantize(w, k, n, act_scale, 0.5);
  for (int64_t i = 0; i < k; ++i) {
    if (i == 5) {
      EXPECT_GT(q.scales[static_cast<size_t>(i)], 3.0f);
    } else {
      EXPECT_NEAR(q.scales[static_cast<size_t>(i)], 1.0f, 0.2f);
    }
  }
}

TEST(AwqTest, CalibrationScalesAreMeanAbs) {
  std::vector<float> acts{1.0f, -2.0f, 3.0f, -4.0f};  // 2 samples x 2 dims
  const auto s = CalibrationActScales(acts, 2, 2);
  EXPECT_FLOAT_EQ(s[0], 2.0f);  // (1 + 3) / 2
  EXPECT_FLOAT_EQ(s[1], 3.0f);  // (2 + 4) / 2
}

// A HEXLLM_KV_DTYPE naming no dtype aborts naming the knob instead of silently keeping the
// configured one.
TEST(EnvKnobDeathTest, KvDtypeMustNameADtype) {
  EXPECT_DEATH(
      {
        setenv("HEXLLM_KV_DTYPE", "int3", 1);
        KvDtypeFromEnv(KvDtype::kF16);
      },
      "HEXLLM_KV_DTYPE");
}

}  // namespace
}  // namespace hquant
