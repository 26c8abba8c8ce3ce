#include "src/hexsim/hmx.h"

#include <cstring>

#include "src/base/check.h"

namespace hexsim {

using hexllm::F16;

void HmxEngine::PackTile(const F16* rowmajor, int64_t row_stride, F16* tile, int valid_rows) {
  if (valid_rows < kTileDim) {
    std::memset(static_cast<void*>(tile), 0, kTileBytes);  // F16 zero is all-zero bits
  }
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      tile[TileHalfwordOffset(r, c)] = rowmajor[r * row_stride + c];
    }
  }
}

void HmxEngine::UnpackTile(const F16* tile, F16* rowmajor, int64_t row_stride,
                           int valid_rows) {
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      rowmajor[r * row_stride + c] = tile[TileHalfwordOffset(r, c)];
    }
  }
}

void HmxEngine::DecodeTile(const F16* tile, float* rowmajor) {
  // Row pair p holds the transposed 2x32 block: halfwords (2p, c), (2p+1, c), (2p, c+1), ...
  for (int p = 0; p < kTileDim / 2; ++p) {
    const F16* pair = tile + p * 2 * kTileDim;
    float* even = rowmajor + (2 * p) * kTileDim;
    float* odd = even + kTileDim;
    for (int c = 0; c < kTileDim; ++c) {
      even[c] = pair[2 * c].ToFloat();
      odd[c] = pair[2 * c + 1].ToFloat();
    }
  }
}

void HmxEngine::TileMacc(const Tcm& tcm, const F16* a_tile, const F16* b_tile, float* acc,
                         int valid_rows) {
  HEXLLM_CHECK_MSG(tcm.Contains(a_tile), "HMX activation tile must reside in TCM");
  HEXLLM_CHECK_MSG(tcm.Contains(b_tile), "HMX weight tile must reside in TCM");
  HEXLLM_CHECK(valid_rows >= 0 && valid_rows <= kTileDim);
  ++tile_ops_;
  float b[kTileElems];
  DecodeTile(b_tile, b);
  // Activation row r starts at its row pair's parity slot and steps 2 halfwords per k.
  for (int r = 0; r < valid_rows; ++r) {
    MaccRow(a_tile + (r / 2) * 2 * kTileDim + (r % 2), 2, b, kTileDim, acc + r * kTileDim);
  }
}

void HmxEngine::StoreAcc(const float* acc, F16* out_tile, const float* col_scale,
                         const float* col_bias, int valid_rows) {
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      float v = acc[r * kTileDim + c];
      if (col_scale != nullptr) {
        v *= col_scale[c];
      }
      if (col_bias != nullptr) {
        v += col_bias[c];
      }
      out_tile[TileHalfwordOffset(r, c)] = F16(v);
    }
  }
}

}  // namespace hexsim
