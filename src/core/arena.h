// Bump-allocation arena — the single memory plan behind every semisort
// phase (via core/pipeline_context.h).
//
// The pipeline's scratch (sample array, bucket-plan tables, the scatter's
// count matrix and bucket starts, the in-place staging buffer, the CAS
// path's slot array and pack offsets, derived-operator tag arrays) has
// strict stack discipline: each phase allocates after the previous phase's
// allocations and everything dies together when the call (or one CAS
// Las-Vegas attempt) ends. A bump pointer with checkpoint/rewind turns all
// of it into pointer arithmetic; with the arena kept alive across calls,
// steady-state repeated semisorts perform *zero* heap allocations
// (asserted by tests/alloc_regression_test.cpp).
//
// Design:
//   * Memory is a chain of heap blocks. Growing appends a block sized
//     max(request, current total), so total capacity at least doubles per
//     growth — the geometric policy — and, crucially, old blocks are never
//     moved or freed by growth: pointers handed out stay valid until the
//     enclosing checkpoint is rewound.
//   * alloc() bumps within the current block, advancing to the next block
//     (or growing) on exhaustion. Blocks are exact-fit for the request that
//     created them, never rounded up to pages: the geometric growth
//     contract ("capacity grows ≥ 1.5× or not at all") depends on this.
//   * mark()/rewind() snapshot and restore the bump position; arena_scope
//     is the RAII form. Rewinding never releases memory — release() does.
//   * Large fresh blocks are first-touch primed by a parallel_for writing
//     one byte per 4 KiB page, so the kernel distributes the pages across
//     the NUMA nodes of the threads that will use them instead of faulting
//     them all into the allocating thread's node.
//   * Accounting: live_bytes/high_water_bytes track the memory plan
//     (semisort_stats::peak_scratch_bytes), alloc_count counts bump
//     allocations (semisort_stats::arena_allocs), heap_block_count counts
//     actual heap allocations (zero in steady state).
//
// Not thread-safe: allocate only between parallel phases (the pipeline
// does), or use a thread_local arena (core/local_sort.h does).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "scheduler/scheduler.h"

namespace parsemi {

class arena {
 public:
  static constexpr size_t kAlignment = alignof(std::max_align_t);
  // Blocks at least this large are primed in parallel; smaller ones are
  // cheaper to fault on demand than to fork over.
  static constexpr size_t kPrimeThreshold = size_t{1} << 21;  // 2 MiB
  static constexpr size_t kPageBytes = 4096;

  explicit arena(bool prime_pages = true) : prime_pages_(prime_pages) {}

  arena(const arena&) = delete;
  arena& operator=(const arena&) = delete;
  arena(arena&&) = default;
  arena& operator=(arena&&) = default;

  // A bump position: everything allocated after mark() dies at rewind().
  struct checkpoint {
    size_t block = 0;
    size_t used = 0;
    size_t live = 0;
  };

  // `count` objects of trivial type T. Contents unspecified (no value
  // initialization — first-touch cost is paid once per page, not per call).
  // The pointer stays valid until a checkpoint at or before this allocation
  // is rewound, even if the arena grows in the meantime.
  template <typename T>
  T* alloc(size_t count) {
    static_assert(std::is_trivially_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= kAlignment);
    return reinterpret_cast<T*>(alloc_bytes(count * sizeof(T)));
  }

  checkpoint mark() const {
    checkpoint ck;
    ck.block = active_;
    ck.used = active_ < blocks_.size() ? blocks_[active_].used : 0;
    ck.live = live_bytes_;
    return ck;
  }

  // Restores the bump position of `ck`; all later allocations are dead.
  // Memory is retained for reuse (capacity never shrinks here).
  void rewind(const checkpoint& ck) {
    for (size_t b = ck.block + 1; b < blocks_.size(); ++b) blocks_[b].used = 0;
    if (ck.block < blocks_.size()) blocks_[ck.block].used = ck.used;
    active_ = ck.block;
    live_bytes_ = ck.live;
  }

  // Rewind-to-empty: every allocation is dead, capacity retained.
  void reset() { rewind(checkpoint{}); }

  // Frees all memory. Outstanding pointers (there should be none) dangle.
  void release() {
    blocks_.clear();
    blocks_.shrink_to_fit();
    active_ = 0;
    live_bytes_ = 0;
    total_capacity_ = 0;
  }

  size_t capacity_bytes() const { return total_capacity_; }
  size_t live_bytes() const { return live_bytes_; }

  // High-water mark of live_bytes since construction or reset_high_water() —
  // the true scratch footprint of whatever ran in between.
  size_t high_water_bytes() const { return high_water_; }
  void reset_high_water() { high_water_ = live_bytes_; }

  // Bump allocations served (cheap) vs heap blocks obtained (expensive;
  // stops growing once capacity covers the workload).
  size_t alloc_count() const { return alloc_count_; }
  size_t heap_block_count() const { return heap_blocks_; }

 private:
  struct block {
    std::unique_ptr<std::byte[]> data;  // new[] ⇒ max_align_t-aligned
    size_t capacity = 0;
    size_t used = 0;
  };

  std::byte* alloc_bytes(size_t bytes) {
    bytes = (bytes + kAlignment - 1) & ~(kAlignment - 1);
    ++alloc_count_;
    std::byte* p = nullptr;
    while (active_ < blocks_.size()) {
      block& b = blocks_[active_];
      if (b.capacity - b.used >= bytes) {
        p = b.data.get() + b.used;
        b.used += bytes;
        break;
      }
      ++active_;  // the tail of this block stays unused until rewind
    }
    if (p == nullptr) p = grow(bytes);
    live_bytes_ += bytes;
    if (live_bytes_ > high_water_) high_water_ = live_bytes_;
    return p;
  }

  std::byte* grow(size_t bytes) {
    // Geometric: the new block alone is at least the current total, so
    // capacity at least doubles and the block count stays logarithmic.
    size_t cap = std::max(bytes, total_capacity_);
    block b;
    b.data = std::make_unique_for_overwrite<std::byte[]>(cap);
    b.capacity = cap;
    b.used = bytes;
    ++heap_blocks_;
    total_capacity_ += cap;
    if (prime_pages_ && cap >= kPrimeThreshold) {
      std::byte* base = b.data.get();
      parallel_for(0, (cap + kPageBytes - 1) / kPageBytes,
                   [&](size_t page) { base[page * kPageBytes] = std::byte{0}; });
    }
    blocks_.push_back(std::move(b));
    active_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  std::vector<block> blocks_;
  size_t active_ = 0;  // first block the next allocation will try
  size_t live_bytes_ = 0;
  size_t high_water_ = 0;
  size_t total_capacity_ = 0;
  size_t alloc_count_ = 0;
  size_t heap_blocks_ = 0;
  bool prime_pages_ = true;
};

// RAII mark/rewind — the unit of scratch lifetime (one semisort attempt,
// one derived-operator call, one per-bucket naming sort).
class arena_scope {
 public:
  explicit arena_scope(arena& a) : arena_(a), ck_(a.mark()) {}
  ~arena_scope() { arena_.rewind(ck_); }
  arena_scope(const arena_scope&) = delete;
  arena_scope& operator=(const arena_scope&) = delete;

 private:
  arena& arena_;
  arena::checkpoint ck_;
};

}  // namespace parsemi
