// collect_reduce — the MapReduce "shuffle + reduce" built on the semisort.
//
// Takes (key, value) pairs, groups pairs with equal keys using the
// tag-semisort spine (core/tag_semisort.h), and folds each group's values
// with a user monoid. This is the paper's flagship application (§1: "the
// core of the MapReduce paradigm"). The pairs themselves are never moved:
// the spine semisorts 16-byte (hash, index) tags and the fold walks the
// pairs through the sorted indices, so the only heap allocation is the
// result vector.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/semisort.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// Reduces values of equal keys: returns one (key, reduced value) per
// distinct key, in no particular key order (semisort semantics).
//
//   HashFn:   K → uint64_t
//   ReduceFn: (V, V) → V, associative; `identity` is its unit.
template <typename K, typename V, typename HashFn, typename ReduceFn,
          typename Eq = std::equal_to<>>
std::vector<std::pair<K, V>> collect_reduce(
    std::span<const std::pair<K, V>> pairs, HashFn hash, ReduceFn reduce_fn,
    V identity = V{}, Eq eq = {}, const semisort_params& params = {}) {
  size_t n = pairs.size();
  if (n == 0) return {};
  std::vector<std::pair<K, V>> out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    auto eq_at = [&](uint64_t a, uint64_t b) {
      return eq(pairs[a].first, pairs[b].first);
    };
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(pairs[i].first); }, params, ctx);
    std::span<size_t> starts = internal::tag_groups(sorted, eq_at, ctx);
    size_t k = starts.size();
    out.resize(k);
    parallel_for(
        0, k,
        [&](size_t g) {
          size_t lo = starts[g], hi = g + 1 < k ? starts[g + 1] : n;
          V acc = identity;
          for (size_t i = lo; i < hi; ++i)
            acc = reduce_fn(acc, pairs[sorted[i].index].second);
          out[g] = {pairs[sorted[lo].index].first, acc};
        },
        1);
  });
  return out;
}

// Histogram convenience: counts occurrences of each distinct key.
//
// Result shape is offset-only: when the keys are integers in a small dense
// domain with trivial equality, the default path is a pure histogram
// (core/dispatch.h's `offsets` path) — no tags are built and no record is
// ever grouped just to be counted, so peak_scratch_bytes is O(domain)
// instead of O(n) tag arrays. Everything else runs on the tag spine.
template <typename K, typename HashFn, typename Eq = std::equal_to<>>
std::vector<std::pair<K, size_t>> count_by_key(
    std::span<const K> keys, HashFn hash, Eq eq = {},
    const semisort_params& params = {}) {
  size_t n = keys.size();
  if (n == 0) return {};
  std::vector<std::pair<K, size_t>> out;
  internal::operator_frame(params, [&](pipeline_context& ctx) {
    // The offsets path counts exact key values, so it requires integral
    // keys compared by value — a custom Eq could identify keys the
    // histogram would count apart.
    if constexpr (std::is_integral_v<K> &&
                  (std::is_same_v<Eq, std::equal_to<>> ||
                   std::is_same_v<Eq, std::equal_to<K>>)) {
      if (internal::try_dispatch_count_by_key(keys, out, params, ctx)) {
        return;
      }
    }
    auto eq_at = [&](uint64_t a, uint64_t b) { return eq(keys[a], keys[b]); };
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(keys[i]); }, params, ctx);
    std::span<size_t> starts = internal::tag_groups(sorted, eq_at, ctx);
    size_t k = starts.size();
    out.resize(k);
    parallel_for(
        0, k,
        [&](size_t g) {
          size_t lo = starts[g], hi = g + 1 < k ? starts[g + 1] : n;
          out[g] = {keys[sorted[lo].index], hi - lo};
        },
        1);
  });
  return out;
}

}  // namespace parsemi
