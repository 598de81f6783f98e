// Stable parallel counting distribution — the paper's §2 building block.
// The blocked scatter (core/scatter.h), the dense-key dispatch kernels
// (core/dispatch.h), the shard partition (shard/shard_driver.h), the sample
// sorter (core/sampler.h) and, through counting_sort, the radix and sample
// sort baselines all run on counting_distribute.
//
// Three phases over n/B blocks:
//   1. each block counts its keys per bucket into its own row of a
//      (block × bucket) matrix (primitives/histogram.h)  (parallel, O(n))
//   2. column sums give each bucket's total, one scan over the totals gives
//      each bucket's start, and a strided scan down each column seeded with
//      that start turns the matrix into per-block write cursors
//                                                        (O(#blocks·m))
//   3. each block re-reads its elements and places each at its row's
//      cursor for its bucket                             (parallel, O(n))
// Blocks are visited in order within each bucket and elements in order
// within each block, so the distribution is stable, and it is the same at
// every worker count. No atomics: each block owns its matrix row, and each
// row's cursors claim disjoint destination ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "primitives/histogram.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// Stable counting distribution of the indices [0, n) by bucket_at(i) ∈
// [0, num_buckets): place(i, pos) is called once per index with its
// destination pos, and the positions of each bucket's indices are
// contiguous and increase with i. Returns the num_buckets + 1 bucket
// starts: bucket b occupies [starts[b], starts[b + 1]), starts[num_buckets]
// == n. The starts come from `scratch` and live until the caller rewinds
// it; the count matrix lives only inside the call, so a warm arena serves
// the call with no heap allocation. bucket_at is evaluated twice per index.
template <typename BucketAt, typename PlaceFn>
std::span<const size_t> counting_distribute(size_t n, size_t num_buckets,
                                            BucketAt&& bucket_at,
                                            PlaceFn&& place, arena& scratch) {
  std::span<size_t> starts(scratch.alloc<size_t>(num_buckets + 1),
                           num_buckets + 1);
  arena_scope scope(scratch);
  size_t block = histogram_block_size(n, num_buckets);
  size_t num_blocks = histogram_num_blocks(n, block);
  size_t* counts = scratch.alloc<size_t>(num_blocks * num_buckets);
  histogram_blocks(n, block, num_buckets, counts, bucket_at);
  histogram_totals(counts, num_blocks, num_buckets, starts.data());
  starts[num_buckets] = 0;
  size_t scan_blocks = internal::scan_num_blocks(num_buckets + 1);
  scan_exclusive_inplace(
      starts, size_t{0},
      std::span<size_t>(scratch.alloc<size_t>(scan_blocks), scan_blocks));
  parallel_for(0, num_buckets, [&](size_t k) {
    scan_exclusive_strided(counts + k, num_blocks, num_buckets, starts[k]);
  });
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    size_t* cursor = counts + b * num_buckets;
    for (size_t i = lo; i < hi; ++i) place(i, cursor[bucket_at(i)]++);
  });
  return starts;
}

// Stably sorts `in` into `out` (same length) by key(in[i]) ∈ [0, num_buckets).
// If `bucket_starts` is non-null it receives num_buckets+1 boundaries, i.e.
// bucket b occupies out[(*bucket_starts)[b], (*bucket_starts)[b+1]).
template <typename T, typename KeyFn>
void counting_sort(std::span<const T> in, std::span<T> out,
                   size_t num_buckets, KeyFn&& key,
                   std::vector<size_t>* bucket_starts = nullptr) {
  arena scratch;
  std::span<const size_t> starts = counting_distribute(
      in.size(), num_buckets, [&](size_t i) { return key(in[i]); },
      [&](size_t i, size_t pos) { out[pos] = in[i]; }, scratch);
  if (bucket_starts != nullptr)
    bucket_starts->assign(starts.begin(), starts.end());
}

// Sequential reference (used for tests and tiny inputs).
template <typename T, typename KeyFn>
void counting_sort_seq(std::span<const T> in, std::span<T> out,
                       size_t num_buckets, KeyFn&& key) {
  std::vector<size_t> counts(num_buckets + 1, 0);
  for (const T& x : in) counts[key(x) + 1]++;
  for (size_t q = 1; q <= num_buckets; ++q) counts[q] += counts[q - 1];
  for (const T& x : in) out[counts[key(x)]++] = x;
}

}  // namespace parsemi
