/// \file
/// The KV-residency rules both serving backends share.
///
/// Parallel samples of one prompt_group map the group's prompt prefix from one retained
/// anchor, beam-search forks map a completed parent's retained stem copy-on-write, and a
/// preempted job parks its KV behind a retained handle until it resumes. KvResidency owns
/// those handles, each slot's committed end length, the shared-prefix lookup, and the one
/// reservation check that admission and resume share. It is a template over the block-table
/// owner — hkv::KvBlockManager (the analytic backend's storage-free accountant) or
/// hkv::PagedKvCache (the functional backend's real cache) — and makes its handle calls in
/// one fixed order, so both backends see the same block ids, CoW splits and peaks for one
/// job stream.
///
/// The backends differ in two inputs, passed as values (docs/long_context.md "Admission"):
///   * free blocks: the analytic DRAM budget minus its physical blocks (kUngatedBlocks
///     without a budget or with the flash tier on), or the functional pool's free list;
///   * the per-row resident cap: the analytic sliding window's resident blocks, or
///     kNoResidentCap for the functional pool, which still stores the masked blocks.
#ifndef SRC_SERVING_KV_RESIDENCY_H_
#define SRC_SERVING_KV_RESIDENCY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/llm/sampling.h"
#include "src/serving/job.h"

namespace hserve {

// What a decode row needs beyond its KV to continue bit-identically: the token its next
// step consumes, its sampler and sampler Rng state, and whether it decodes speculatively.
// KvResidency parks it beside each retained handle and never reads it; the analytic
// backend, which decodes no tokens, leaves it default.
struct DecodeState {
  int last_token = 0;
  bool speculative = false;
  hllm::SamplerOptions sampler;
  hexllm::Rng rng{0};
};

// Free blocks of a backend whose admission is not gated, and the cap of a row with no
// resident limit.
inline constexpr int64_t kUngatedBlocks = std::numeric_limits<int64_t>::max();
inline constexpr int64_t kNoResidentCap = std::numeric_limits<int64_t>::max();

template <typename Table>
class KvResidency {
 public:
  // What an admission mapped from retained KV.
  struct Mapped {
    int shared = 0;                      // prefix positions mapped copy-on-write
    const DecodeState* state = nullptr;  // parked beside the mapped handle (null: none)
    int anchor_len = 0;  // > 0: the group's first admission; Anchor() once it is appended
  };

  explicit KvResidency(Table& table) : table_(table) {}

  // Whether admitting `job` (KV starting at `context_tokens`) fits in `free_blocks` after
  // reserving, for every running slot, its growth to its end length (at most
  // `resident_cap` blocks) plus one block when its tail is shared (a pending CoW split).
  bool CanAdmit(const ServeJob& job, int context_tokens, int64_t free_blocks,
                int64_t resident_cap) const;
  // The same check for resuming a paused job: its pages are resident, so it needs only its
  // growth to its end length plus one block of tail slack. CHECK-fails unless it is paused.
  bool CanResume(int job_id, int64_t free_blocks, int64_t resident_cap) const;

  // Resets `slot`, commits its end length, and maps the job's fork stem or group anchor.
  // The caller appends positions [shared, context_tokens) itself.
  Mapped Admit(int slot, const ServeJob& job, int context_tokens);
  // Retains the first `len` positions of `slot` as `prompt_group`'s anchor.
  void Anchor(int slot, int prompt_group, int len, DecodeState state);
  void Release(int slot);

  // Fork stems: snapshot a completed job's KV under its id; drop it after the last child.
  void Retain(int slot, int job_id, DecodeState state);
  void DropRetained(int job_id);
  // Drops a prompt_group's anchor (no-op without one).
  void ReleaseGroup(int prompt_group);

  // Preemption: parks `slot`'s KV and end length under `job_id` and frees the slot; Resume
  // maps it back into `slot` (no new blocks, no CoW split) and returns the parked state.
  void Pause(int slot, int job_id, DecodeState state);
  DecodeState Resume(int slot, int job_id, int context_tokens);

 private:
  struct Parked {
    int64_t handle = 0;
    int len = 0;
    int end_len = 0;  // paused jobs only
    DecodeState state;
  };

  // The retained KV `job` maps on admission (its fork parent's stem or its group's prompt
  // anchor; null when none is resident) and the prefix length it maps.
  std::pair<const Parked*, int> SharedPrefix(const ServeJob& job, int context_tokens) const;
  bool Fits(int64_t needed, int64_t free_blocks, int64_t resident_cap) const;
  void SetEndLen(int slot, int end_len);

  Table& table_;
  std::vector<int> end_len_;         // per slot: context + decode at admission (0 = free)
  std::map<int, Parked> retained_;   // completed job id -> retained stem
  std::map<int, Parked> anchors_;    // prompt_group -> retained prompt prefix
  std::map<int, Parked> paused_;     // preempted job id -> parked snapshot
};

}  // namespace hserve

#endif  // SRC_SERVING_KV_RESIDENCY_H_
