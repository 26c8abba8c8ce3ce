#include "src/kvcache/block_pool.h"

#include <limits>

#include "src/base/check.h"

namespace hkv {

BlockPool::BlockPool(int64_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) {
    refs_.reserve(static_cast<size_t>(capacity_));
  }
}

int BlockPool::Alloc() {
  std::lock_guard<std::mutex> lock(mu_);
  int id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else if (capacity_ <= 0 || static_cast<int64_t>(refs_.size()) < capacity_) {
    id = static_cast<int>(refs_.size());
    refs_.push_back(0);
    resident_.push_back(1);
    last_touch_.push_back(0);
  } else {
    return -1;  // bounded pool exhausted
  }
  HEXLLM_DCHECK(refs_[static_cast<size_t>(id)] == 0);
  HEXLLM_DCHECK(resident_[static_cast<size_t>(id)] != 0);
  refs_[static_cast<size_t>(id)] = 1;
  last_touch_[static_cast<size_t>(id)] = 0;
  ++used_;
  if (used_ > peak_used_) {
    peak_used_ = used_;
  }
  return id;
}

void BlockPool::AddRef(int block) {
  std::lock_guard<std::mutex> lock(mu_);
  AddRefLocked(block);
}

bool BlockPool::Unref(int block) {
  std::lock_guard<std::mutex> lock(mu_);
  return UnrefLocked(block);
}

void BlockPool::AddRefAll(std::span<const int> blocks) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int b : blocks) {
    AddRefLocked(b);
  }
}

void BlockPool::UnrefAll(std::span<const int> blocks, std::vector<int>* freed) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int b : blocks) {
    if (UnrefLocked(b) && freed != nullptr) {
      freed->push_back(b);
    }
  }
}

void BlockPool::AddRefLocked(int block) {
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  HEXLLM_CHECK(refs_[static_cast<size_t>(block)] > 0);
  ++refs_[static_cast<size_t>(block)];
}

bool BlockPool::UnrefLocked(int block) {
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  HEXLLM_CHECK_MSG(refs_[static_cast<size_t>(block)] > 0, "double free of KV block");
  if (--refs_[static_cast<size_t>(block)] > 0) {
    return false;
  }
  // A freed block reverts to resident: the free list hands out DRAM slots, and the offload
  // engine drops its flash copy on the matching freed-block notification.
  if (resident_[static_cast<size_t>(block)] == 0) {
    resident_[static_cast<size_t>(block)] = 1;
    --nonresident_;
  }
  free_list_.push_back(block);
  --used_;
  return true;
}

void BlockPool::SetResident(int block, bool resident) {
  std::lock_guard<std::mutex> lock(mu_);
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  HEXLLM_CHECK_MSG(refs_[static_cast<size_t>(block)] > 0,
                   "residency flip on a free KV block");
  const bool was = resident_[static_cast<size_t>(block)] != 0;
  if (was == resident) {
    return;
  }
  resident_[static_cast<size_t>(block)] = resident ? 1 : 0;
  nonresident_ += resident ? -1 : 1;
}

bool BlockPool::resident(int block) const {
  std::lock_guard<std::mutex> lock(mu_);
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  return resident_[static_cast<size_t>(block)] != 0;
}

int64_t BlockPool::resident_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_ - nonresident_;
}

void BlockPool::Touch(int block, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  last_touch_[static_cast<size_t>(block)] = step;
}

int64_t BlockPool::last_touch(int block) const {
  std::lock_guard<std::mutex> lock(mu_);
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  return last_touch_[static_cast<size_t>(block)];
}

int64_t BlockPool::minted_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(refs_.size());
}

int BlockPool::ref_count(int block) const {
  std::lock_guard<std::mutex> lock(mu_);
  HEXLLM_CHECK(block >= 0 && block < static_cast<int>(refs_.size()));
  return refs_[static_cast<size_t>(block)];
}

int64_t BlockPool::free_blocks() const {
  if (capacity_ <= 0) {
    return std::numeric_limits<int64_t>::max();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_ - used_;
}

}  // namespace hkv
