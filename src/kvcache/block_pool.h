/// \file
/// Fixed-size-block pool with reference counting: the physical half of the paged KV cache.
///
/// A block is an opaque id; what it stores (KV rows, nothing at all for the analytic
/// accountant) is the caller's business. The pool only manages the free list and per-block
/// reference counts. Sharing a prompt prefix or forking a beam stem is AddRef on the blocks
/// involved; a block returns to the free list when its last reference drops. The free list
/// is LIFO so the most recently freed block (hottest KV region) is the first reused.
///
/// Capacity can be bounded (a real storage-backed pool, or a DRAM-budgeted accountant) or
/// unbounded (capacity <= 0: ids grow on demand — pure accounting).
///
/// Thread-safe: one mutex guards the free list, refcounts, and usage accounting, so
/// Alloc/AddRef/Unref may be called from parallel lanes (docs/threading_model.md). The
/// serving layer still allocates on the admission path single-threaded; the lock is what
/// makes concurrent refcount traffic from parallel decode rows correct.
#ifndef SRC_KVCACHE_BLOCK_POOL_H_
#define SRC_KVCACHE_BLOCK_POOL_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace hkv {

class BlockPool {
 public:
  // capacity <= 0 means unbounded (the pool mints new ids as needed).
  explicit BlockPool(int64_t capacity);

  // Allocates a block with refcount 1. Returns -1 when a bounded pool is exhausted.
  int Alloc();

  void AddRef(int block);
  // Drops one reference. Returns true when this was the last reference and the block went
  // back to the free list.
  bool Unref(int block);
  // AddRef / Unref of every listed block under one lock: sharing or releasing a whole block
  // table costs one lock, not one per block. UnrefAll appends the blocks whose last
  // reference dropped to `freed` (nullable), in list order.
  void AddRefAll(std::span<const int> blocks);
  void UnrefAll(std::span<const int> blocks, std::vector<int>* freed);

  int ref_count(int block) const;
  bool bounded() const { return capacity_ > 0; }
  int64_t capacity() const { return capacity_; }
  int64_t used_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }
  int64_t peak_used_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_used_;
  }
  // Blocks still allocatable; meaningless (INT64_MAX) for unbounded pools.
  int64_t free_blocks() const;

  // --- tiered-offload support (docs/long_context.md) ---
  // A live block's payload is either DRAM-resident (the default) or demoted to the flash
  // tier. Only hkv::KvOffloadEngine flips residency; everything else just reads it. A block
  // whose last reference drops reverts to resident, so the free list stays tier-agnostic.
  void SetResident(int block, bool resident);
  bool resident(int block) const;
  // Live AND resident block count (what a DRAM budget actually holds).
  int64_t resident_blocks() const;

  // Eviction recency: the bookkeeping thread stamps a block whenever it is appended to or
  // staged for attention; the LRU policy evicts the smallest stamp first.
  void Touch(int block, int64_t step);
  int64_t last_touch(int block) const;

  // Ids ever created — the upper bound for scans over per-block state.
  int64_t minted_blocks() const;

 private:
  // AddRef / Unref bodies; the caller holds mu_.
  void AddRefLocked(int block);
  bool UnrefLocked(int block);

  mutable std::mutex mu_;
  int64_t capacity_;
  int64_t used_ = 0;
  int64_t nonresident_ = 0;     // live blocks demoted to the flash tier
  int64_t peak_used_ = 0;
  std::vector<int> refs_;       // per minted id; 0 = on the free list
  std::vector<int> free_list_;  // LIFO
  std::vector<uint8_t> resident_;    // per minted id
  std::vector<int64_t> last_touch_;  // per minted id
};

}  // namespace hkv

#endif  // SRC_KVCACHE_BLOCK_POOL_H_
