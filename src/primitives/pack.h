// Parallel pack (filter / compaction) — §2 of the paper's building blocks.
//
// pack(A, flags) keeps the elements of A whose flag is true, preserving
// their relative order. Implemented as per-block counts, a scan over block
// counts, and a per-block sequential write — O(n) work, O(log n) depth.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/arena.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

namespace internal {

// Block count pass: four independent accumulators break the add-chain so
// the counts retire superscalar (pred is usually a flag lookup, so the
// loads pipeline behind the adds).
template <typename Pred>
size_t count_pred(size_t lo, size_t hi, Pred& pred) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    c0 += pred(i) ? 1 : 0;
    c1 += pred(i + 1) ? 1 : 0;
    c2 += pred(i + 2) ? 1 : 0;
    c3 += pred(i + 3) ? 1 : 0;
  }
  size_t count = c0 + c1 + c2 + c3;
  for (; i < hi; ++i) count += pred(i) ? 1 : 0;
  return count;
}

}  // namespace internal

// Packs elements with pred(i) true into a new vector, in order.
template <typename T, typename Pred>
std::vector<T> pack(std::span<const T> a, Pred&& pred) {
  size_t n = a.size();
  size_t block = internal::scan_block_size(n);
  size_t num_blocks = n == 0 ? 0 : (n + block - 1) / block;
  std::vector<size_t> offsets(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    offsets[b] = internal::count_pred(lo, hi, pred);
  });
  size_t total = scan_exclusive_inplace(std::span<size_t>(offsets));
  std::vector<T> out(total);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    // Write whole true-runs with one widened copy each instead of a
    // per-element conditional store (a branchless out[pos] store is NOT
    // safe here: the last element's speculative slot would cross into the
    // next block's output region).
    size_t pos = offsets[b];
    for (size_t i = lo; i < hi;) {
      if (!pred(i)) {
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < hi && pred(j)) ++j;
      simd::copy_records(out.data() + pos, a.data() + i, j - i);
      pos += j - i;
      i = j;
    }
  });
  return out;
}

// Packs the *indices* i in [0, n) with pred(i) true, in increasing order.
// (The "where did each group start" primitive used all over the semisort.)
// Like pack, this and pack_index_arena evaluate pred twice per element —
// once to count, once to write — so pred should read data already in
// cache (adjacent keys, flags), not gather records from a large input.
template <typename Index = size_t, typename Pred>
std::vector<Index> pack_index(size_t n, Pred&& pred) {
  size_t block = internal::scan_block_size(n);
  size_t num_blocks = n == 0 ? 0 : (n + block - 1) / block;
  std::vector<size_t> offsets(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    offsets[b] = internal::count_pred(lo, hi, pred);
  });
  size_t total = scan_exclusive_inplace(std::span<size_t>(offsets));
  std::vector<Index> out(total);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    size_t pos = offsets[b];
    for (size_t i = lo; i < hi; ++i)
      if (pred(i)) out[pos++] = static_cast<Index>(i);
  });
  return out;
}

// Arena-backed pack_index: the result span (and a small per-block offset
// scratch that precedes it) live in `scratch` and stay valid until the
// caller's checkpoint is rewound. Used by the allocation-free pipeline.
template <typename Index = size_t, typename Pred>
std::span<Index> pack_index_arena(size_t n, Pred&& pred, arena& scratch) {
  size_t block = internal::scan_block_size(n);
  size_t num_blocks = n == 0 ? 0 : (n + block - 1) / block;
  std::span<size_t> offsets(scratch.alloc<size_t>(num_blocks), num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    offsets[b] = internal::count_pred(lo, hi, pred);
  });
  size_t total = scan_exclusive_inplace(offsets);
  std::span<Index> out(scratch.alloc<Index>(total), total);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    size_t pos = offsets[b];
    for (size_t i = lo; i < hi; ++i)
      if (pred(i)) out[pos++] = static_cast<Index>(i);
  });
  return out;
}

// Filter by a predicate on the element value (convenience overload).
template <typename T, typename Pred>
std::vector<T> filter(std::span<const T> a, Pred&& pred) {
  return pack(a, [&](size_t i) { return pred(a[i]); });
}

}  // namespace parsemi
