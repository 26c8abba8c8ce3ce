#include "src/serving/kv_residency.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/kvcache/paged_kv_cache.h"

namespace hserve {

template <typename Table>
std::pair<const typename KvResidency<Table>::Parked*, int> KvResidency<Table>::SharedPrefix(
    const ServeJob& job, int context_tokens) const {
  if (job.parent_job >= 0) {
    const auto it = retained_.find(job.parent_job);
    if (it != retained_.end()) {
      return {&it->second, std::min(it->second.len, context_tokens)};
    }
  } else if (GroupPrefixLen(job) > 0) {
    const auto it = anchors_.find(job.prompt_group);
    if (it != anchors_.end()) {
      return {&it->second, std::min({it->second.len, GroupPrefixLen(job), context_tokens})};
    }
  }
  return {nullptr, 0};
}

template <typename Table>
bool KvResidency<Table>::Fits(int64_t needed, int64_t free_blocks,
                              int64_t resident_cap) const {
  // Reserve worst-case growth (plus a pending CoW tail split) for every running slot, so an
  // admission never starves a slot that already committed to decode to its end length.
  int64_t reserved = 0;
  for (size_t s = 0; s < end_len_.size(); ++s) {
    if (end_len_[s] <= 0) {
      continue;
    }
    const int seq = static_cast<int>(s);
    const int64_t growth = hexllm::CeilDiv(end_len_[s], table_.block_tokens()) -
                           table_.table_blocks(seq);
    reserved += std::min(resident_cap, std::max<int64_t>(0, growth)) +
                (table_.TailShared(seq) ? 1 : 0);
  }
  return free_blocks - reserved >= needed;
}

template <typename Table>
bool KvResidency<Table>::CanAdmit(const ServeJob& job, int context_tokens, int64_t free_blocks,
                                  int64_t resident_cap) const {
  const int64_t needed =
      std::min(resident_cap, table_.BlocksToAdmit(context_tokens + job.decode_tokens,
                                                  SharedPrefix(job, context_tokens).second));
  return Fits(needed, free_blocks, resident_cap);
}

template <typename Table>
bool KvResidency<Table>::CanResume(int job_id, int64_t free_blocks,
                                   int64_t resident_cap) const {
  const auto it = paused_.find(job_id);
  HEXLLM_CHECK_MSG(it != paused_.end(), "resume of a job that was never paused");
  const int bt = table_.block_tokens();
  const int64_t growth =
      hexllm::CeilDiv(it->second.end_len, bt) - hexllm::CeilDiv(it->second.len, bt);
  return Fits(std::min(resident_cap, growth) + 1, free_blocks, resident_cap);
}

template <typename Table>
typename KvResidency<Table>::Mapped KvResidency<Table>::Admit(int slot, const ServeJob& job,
                                                              int context_tokens) {
  table_.ResetSeq(slot);
  SetEndLen(slot, context_tokens + job.decode_tokens);
  const auto [src, shared] = SharedPrefix(job, context_tokens);
  if (job.parent_job >= 0) {
    // A fork maps its parent's whole stem; tokens past it (a session's new turn) are fresh.
    HEXLLM_CHECK_MSG(src != nullptr, "fork admitted before its parent was retained");
    HEXLLM_CHECK_MSG(src->len <= context_tokens,
                     "fork context must cover the parent's final KV length");
  }
  Mapped m;
  if (src != nullptr) {
    table_.ShareFromHandle(src->handle, slot, shared);
    m.shared = shared;
    m.state = &src->state;
  } else if (job.parent_job < 0 && GroupPrefixLen(job) > 0) {
    m.anchor_len = std::min(GroupPrefixLen(job), context_tokens);
  }
  return m;
}

template <typename Table>
void KvResidency<Table>::Anchor(int slot, int prompt_group, int len, DecodeState state) {
  anchors_.emplace(prompt_group, Parked{table_.Retain(slot, len), len, 0, std::move(state)});
}

template <typename Table>
void KvResidency<Table>::Release(int slot) {
  table_.ResetSeq(slot);
  SetEndLen(slot, 0);
}

template <typename Table>
void KvResidency<Table>::Retain(int slot, int job_id, DecodeState state) {
  const auto [it, inserted] = retained_.emplace(
      job_id, Parked{table_.Retain(slot, -1), table_.length(slot), 0, std::move(state)});
  HEXLLM_CHECK_MSG(inserted, "job retained twice");
}

template <typename Table>
void KvResidency<Table>::DropRetained(int job_id) {
  const auto it = retained_.find(job_id);
  HEXLLM_CHECK(it != retained_.end());
  table_.DropHandle(it->second.handle);
  retained_.erase(it);
}

template <typename Table>
void KvResidency<Table>::ReleaseGroup(int prompt_group) {
  const auto it = anchors_.find(prompt_group);
  if (it == anchors_.end()) {
    return;
  }
  table_.DropHandle(it->second.handle);
  anchors_.erase(it);
}

template <typename Table>
void KvResidency<Table>::Pause(int slot, int job_id, DecodeState state) {
  const auto [it, inserted] = paused_.emplace(
      job_id, Parked{table_.Retain(slot, -1), table_.length(slot),
                     end_len_[static_cast<size_t>(slot)], std::move(state)});
  HEXLLM_CHECK_MSG(inserted, "job paused twice");
  table_.ResetSeq(slot);  // the handle's references keep every page resident
  SetEndLen(slot, 0);
}

template <typename Table>
DecodeState KvResidency<Table>::Resume(int slot, int job_id, int context_tokens) {
  const auto it = paused_.find(job_id);
  HEXLLM_CHECK_MSG(it != paused_.end(), "resume of a job that was never paused");
  HEXLLM_CHECK(it->second.len == context_tokens);
  // Map the snapshot back, then drop the handle: the slot's own references keep the pages
  // alive, and the tail block's refcount returns to 1 so the next append extends in place —
  // no copy-on-write split, block statistics identical to an un-preempted run.
  table_.ShareFromHandle(it->second.handle, slot, context_tokens);
  table_.DropHandle(it->second.handle);
  SetEndLen(slot, it->second.end_len);
  DecodeState state = std::move(it->second.state);
  paused_.erase(it);
  return state;
}

template <typename Table>
void KvResidency<Table>::SetEndLen(int slot, int end_len) {
  HEXLLM_CHECK(slot >= 0);
  if (slot >= static_cast<int>(end_len_.size())) {
    end_len_.resize(static_cast<size_t>(slot) + 1, 0);
  }
  end_len_[static_cast<size_t>(slot)] = end_len;
}

template class KvResidency<hkv::KvBlockManager>;
template class KvResidency<hkv::PagedKvCache>;

}  // namespace hserve
