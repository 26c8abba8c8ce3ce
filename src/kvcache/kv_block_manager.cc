#include "src/kvcache/kv_block_manager.h"

#include <algorithm>
#include <span>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hkv {

KvBlockManager::KvBlockManager(int block_tokens, int64_t max_blocks, int64_t bytes_per_block)
    : block_tokens_(block_tokens), bytes_per_block_(bytes_per_block), pool_(max_blocks) {
  HEXLLM_CHECK(block_tokens_ >= 1);
}

KvBlockManager::Table& KvBlockManager::Seq(int seq) {
  HEXLLM_CHECK(seq >= 0);
  if (seq >= static_cast<int>(seqs_.size())) {
    seqs_.resize(static_cast<size_t>(seq) + 1);
  }
  return seqs_[static_cast<size_t>(seq)];
}

const KvBlockManager::Table* KvBlockManager::SeqOrNull(int seq) const {
  if (seq < 0 || seq >= static_cast<int>(seqs_.size())) {
    return nullptr;
  }
  return &seqs_[static_cast<size_t>(seq)];
}

void KvBlockManager::BumpLogical(int64_t delta) {
  logical_blocks_ += delta;
  if (logical_blocks_ > peak_logical_blocks_) {
    peak_logical_blocks_ = logical_blocks_;
  }
}

int KvBlockManager::length(int seq) const {
  const Table* t = SeqOrNull(seq);
  return t != nullptr ? t->length : 0;
}

int64_t KvBlockManager::table_blocks(int seq) const {
  const Table* t = SeqOrNull(seq);
  return t != nullptr ? static_cast<int64_t>(t->blocks.size()) : 0;
}

int KvBlockManager::block_at(int seq, int idx) const {
  const Table* t = SeqOrNull(seq);
  HEXLLM_CHECK(t != nullptr && idx >= 0 && idx < static_cast<int>(t->blocks.size()));
  return t->blocks[static_cast<size_t>(idx)];
}

KvBlockManager::WriteAccess KvBlockManager::EnsureWritable(int seq, int pos) {
  Table& t = Seq(seq);
  HEXLLM_CHECK_MSG(pos >= t.length, "KV writes may only target the append region");
  const int idx = pos / block_tokens_;
  HEXLLM_CHECK_MSG(idx <= static_cast<int>(t.blocks.size()),
                   "KV append skipped a block boundary");
  WriteAccess wa;
  if (idx == static_cast<int>(t.blocks.size())) {
    wa.block = pool_.Alloc();
    HEXLLM_CHECK_MSG(wa.block >= 0, "KV block pool exhausted");
    t.blocks.push_back(wa.block);
    BumpLogical(1);
    return wa;
  }
  const int cur = t.blocks[static_cast<size_t>(idx)];
  if (pool_.ref_count(cur) == 1) {
    wa.block = cur;
    return wa;  // already exclusive
  }
  // Copy-on-write split: privatize the shared block for this writer.
  wa.block = pool_.Alloc();
  HEXLLM_CHECK_MSG(wa.block >= 0, "KV block pool exhausted during copy-on-write split");
  wa.copied_from = cur;
  t.blocks[static_cast<size_t>(idx)] = wa.block;
  const bool freed = pool_.Unref(cur);
  HEXLLM_CHECK(!freed);  // the other owners still reference it
  ++cow_splits_;
  return wa;
}

void KvBlockManager::AdvanceBy(int seq, int n) {
  Table& t = Seq(seq);
  HEXLLM_CHECK(n >= 0);
  HEXLLM_CHECK_MSG(
      static_cast<int64_t>(t.length) + n <=
          static_cast<int64_t>(t.blocks.size()) * block_tokens_,
      "Advance past the last prepared KV block");
  t.length += n;
}

void KvBlockManager::Reserve(int num_seqs, int blocks_per_seq) {
  HEXLLM_CHECK(num_seqs >= 0 && blocks_per_seq >= 0);
  if (num_seqs > 0) {
    Seq(num_seqs - 1);  // materialize the table slots
  }
  for (auto& t : seqs_) {
    t.blocks.reserve(static_cast<size_t>(blocks_per_seq));
  }
}

void KvBlockManager::ResetSeq(int seq, std::vector<int>* freed) {
  Table* t = const_cast<Table*>(SeqOrNull(seq));
  if (t == nullptr) {
    return;
  }
  pool_.UnrefAll(t->blocks, freed);
  BumpLogical(-static_cast<int64_t>(t->blocks.size()));
  t->blocks.clear();
  t->length = 0;
}

int64_t KvBlockManager::Truncate(int seq, int new_len, std::vector<int>* freed) {
  Table& t = Seq(seq);
  HEXLLM_CHECK_MSG(new_len >= 0 && new_len <= t.length,
                   "Truncate target must lie within the sequence");
  const int64_t keep = hexllm::CeilDiv(new_len, block_tokens_);
  const int64_t dropped = static_cast<int64_t>(t.blocks.size()) - keep;
  pool_.UnrefAll(std::span<const int>(t.blocks).subspan(static_cast<size_t>(keep)), freed);
  t.blocks.resize(static_cast<size_t>(keep));
  BumpLogical(-dropped);
  t.length = new_len;
  return dropped;
}

int64_t KvBlockManager::Retain(int seq, int len) {
  const Table* t = SeqOrNull(seq);
  HEXLLM_CHECK(t != nullptr);
  if (len < 0) {
    len = t->length;
  }
  HEXLLM_CHECK(len <= t->length);
  Table h;
  h.length = len;
  const int64_t blocks = hexllm::CeilDiv(len, block_tokens_);
  h.blocks.assign(t->blocks.begin(), t->blocks.begin() + blocks);
  pool_.AddRefAll(h.blocks);
  const int64_t id = next_handle_++;
  handles_.emplace(id, std::move(h));
  return id;
}

int KvBlockManager::handle_length(int64_t handle) const {
  const auto it = handles_.find(handle);
  HEXLLM_CHECK_MSG(it != handles_.end(), "unknown retained-KV handle");
  return it->second.length;
}

void KvBlockManager::ShareFromHandle(int64_t handle, int dst, int len) {
  const auto it = handles_.find(handle);
  HEXLLM_CHECK_MSG(it != handles_.end(), "unknown retained-KV handle");
  HEXLLM_CHECK(len >= 0 && len <= it->second.length);
  Table& t = Seq(dst);
  HEXLLM_CHECK_MSG(t.blocks.empty() && t.length == 0,
                   "ShareFromHandle requires an empty destination sequence");
  const int64_t blocks = hexllm::CeilDiv(len, block_tokens_);
  t.blocks.assign(it->second.blocks.begin(), it->second.blocks.begin() + blocks);
  pool_.AddRefAll(t.blocks);
  t.length = len;
  BumpLogical(blocks);
}

void KvBlockManager::DropHandle(int64_t handle, std::vector<int>* freed) {
  const auto it = handles_.find(handle);
  HEXLLM_CHECK_MSG(it != handles_.end(), "unknown retained-KV handle");
  pool_.UnrefAll(it->second.blocks, freed);
  handles_.erase(it);
}

int64_t KvBlockManager::BlocksToAdmit(int total_tokens, int shared_tokens) const {
  HEXLLM_CHECK(shared_tokens >= 0 && shared_tokens <= total_tokens);
  const int64_t total_blocks = hexllm::CeilDiv(total_tokens, block_tokens_);
  const int64_t shared_blocks = hexllm::CeilDiv(shared_tokens, block_tokens_);
  int64_t need = total_blocks - shared_blocks;
  if (shared_tokens % block_tokens_ != 0 && total_tokens > shared_tokens) {
    ++need;  // the partial shared tail CoW-splits on the first append
  }
  return need;
}

bool KvBlockManager::TailShared(int seq) const {
  const Table* t = SeqOrNull(seq);
  if (t == nullptr || t->blocks.empty()) {
    return false;
  }
  return pool_.ref_count(t->blocks.back()) > 1;
}

KvStats KvBlockManager::stats() const {
  KvStats s;
  s.block_tokens = block_tokens_;
  s.bytes_per_block = bytes_per_block_;
  s.physical_blocks = pool_.used_blocks();
  s.peak_physical_blocks = pool_.peak_used_blocks();
  s.logical_blocks = logical_blocks_;
  s.peak_logical_blocks = peak_logical_blocks_;
  s.cow_splits = cow_splits_;
  return s;
}

void ExportKvStats(const KvStats& stats, obs::Registry& registry) {
  registry.Count("kv.cow_splits", stats.cow_splits);
  registry.Set("kv.block_tokens", static_cast<double>(stats.block_tokens));
  registry.Set("kv.bytes_per_block", static_cast<double>(stats.bytes_per_block));
  registry.Set("kv.physical_blocks", static_cast<double>(stats.physical_blocks));
  registry.Set("kv.peak_physical_blocks", static_cast<double>(stats.peak_physical_blocks));
  registry.Set("kv.logical_blocks", static_cast<double>(stats.logical_blocks));
  registry.Set("kv.peak_logical_blocks", static_cast<double>(stats.peak_logical_blocks));
  registry.Set("kv.sharing_ratio", stats.sharing_ratio());
}

}  // namespace hkv
