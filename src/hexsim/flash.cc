#include "src/hexsim/flash.h"

#include "src/base/env.h"

namespace hexsim {

FlashSpec FlashSpecFromEnv(FlashSpec spec) {
  if (hexllm::EnvKnob("HEXLLM_KV_OFFLOAD_GBPS") != nullptr) {
    const double ratio = spec.write_gbps / spec.read_gbps;
    spec.read_gbps = hexllm::EnvPositive("HEXLLM_KV_OFFLOAD_GBPS", spec.read_gbps);
    spec.write_gbps = spec.read_gbps * ratio;
  }
  return spec;
}

}  // namespace hexsim
