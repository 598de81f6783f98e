// The tag-semisort-permute spine shared by every derived operator.
//
// group_by_index, collect_reduce, count_by_key, map_reduce's shuffle,
// equi_join, group_aggregate and the general-key `semisort` all follow the
// same shape: tag every position with (hashed key, index), semisort the
// 16-byte tags (key-first layout → the scatter's key-CAS fast path), then
// read the grouping off the sorted tags in one pass (tag_groups, which also
// repairs 64-bit hash collisions) and permute or fold the records. This
// header is that shape, written once: the tag arrays live in the
// operator's pipeline_context arena, the inner semisort runs on the same
// context (so one warm context makes the whole derived operator
// allocation-free apart from its actual output), and the operator's stats
// cover the tags plus the inner semisort.
//
// Included from core/semisort.h (which it also includes — #pragma once
// makes either inclusion order work); user code never needs it directly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "primitives/pack.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

namespace internal {

// The 16-byte tag: hashed key first so the scatter claims slots with a
// single key-CAS.
struct key_tag {
  uint64_t key;
  uint64_t index;  // position in the operator's input
};

// The tag layout must stay key-CAS eligible: every derived operator's inner
// semisort rides the scatter engine (the tag call below copies the caller's
// params, so scatter_with and the path selection flow through unchanged —
// as does dispatch_with: when an operator's hash values land in
// a small dense domain, e.g. an identity hash over dense integer keys, the
// inner semisort's front-end dispatch counting-sorts the tags instead of
// running the pipeline), and at 16 trivially-copyable bytes the tags
// qualify for all of its fast claiming/placement variants.
static_assert(key_cas_eligible<key_tag>());

// Tags positions [0, n) with (key_at(i), i) and semisorts the tags through
// `ctx`. Returns the sorted tags, arena-backed — valid until the caller's
// context_binding frame is rewound. `key_at(i)` must return the position's
// 64-bit hashed key.
template <typename KeyAt>
std::span<key_tag> tag_semisort(size_t n, KeyAt&& key_at,
                                const semisort_params& params,
                                pipeline_context& ctx) {
  if (n == 0) return {};
  key_tag* tags = ctx.scratch.alloc<key_tag>(n);
  if constexpr (simd::kEnabled) {
    // 4-wide tagging: key_at calls are independent, so unrolling lets four
    // hash chains (typically hash64's multiply sequences) overlap in
    // flight instead of serializing behind one store each.
    parallel_for_blocks(n, size_t{1024}, [&](size_t, size_t blo, size_t bhi) {
      size_t i = blo;
      for (; i + 4 <= bhi; i += 4) {
        uint64_t k0 = key_at(i), k1 = key_at(i + 1), k2 = key_at(i + 2),
                 k3 = key_at(i + 3);
        tags[i] = key_tag{k0, static_cast<uint64_t>(i)};
        tags[i + 1] = key_tag{k1, static_cast<uint64_t>(i + 1)};
        tags[i + 2] = key_tag{k2, static_cast<uint64_t>(i + 2)};
        tags[i + 3] = key_tag{k3, static_cast<uint64_t>(i + 3)};
      }
      for (; i < bhi; ++i)
        tags[i] = key_tag{key_at(i), static_cast<uint64_t>(i)};
    });
  } else {
    parallel_for(0, n, [&](size_t i) {
      tags[i] = key_tag{key_at(i), static_cast<uint64_t>(i)};
    });
  }
  key_tag* sorted = ctx.scratch.alloc<key_tag>(n);
  semisort_params inner = params;
  inner.context = &ctx;  // re-enter the same arena (depth > 0: not owner)
  semisort_hashed(std::span<const key_tag>(tags, n),
                  std::span<key_tag>(sorted, n),
                  [](const key_tag& t) { return t.key; }, inner);
  return std::span<key_tag>(sorted, n);
}

inline constexpr auto tag_eq_trivial = [](uint64_t, uint64_t) { return true; };

// Group starts over sorted tags: where each real key's group begins.
// `eq_at(a, b)` compares the *original records* at input positions a and b;
// with tag_eq_trivial (pre-hashed 64-bit keys: hash equality IS key
// equality) the hash-run starts are the answer and no record is read.
// Otherwise one pass, balanced over positions so a heavy key cannot
// serialize it, compares each run member with its run head: n − runs calls
// of eq_at, one record read per tag. A run mixing distinct keys (a 64-bit
// collision, probability ≲ n²/2⁶⁵) is stably regrouped in place into
// equality classes, first-seen order, and the starts expand to the class
// boundaries — Las Vegas, terminating even under an adversarial user hash
// at O(run·distinct) local cost. Arena-backed, no trailing n sentinel.
template <typename EqAt>
std::span<size_t> tag_groups(std::span<key_tag> sorted, EqAt&& eq_at,
                             pipeline_context& ctx) {
  size_t n = sorted.size();
  std::span<size_t> runs = pack_index_arena(
      n,
      [&](size_t i) { return i == 0 || sorted[i].key != sorted[i - 1].key; },
      ctx.scratch);
  if constexpr (std::is_same_v<std::remove_cvref_t<EqAt>,
                               std::remove_cvref_t<decltype(tag_eq_trivial)>>) {
    return runs;
  } else {
    size_t r = runs.size();
    auto run_end = [&](size_t g) { return g + 1 < r ? runs[g + 1] : n; };
    std::atomic<bool> split{false};
    parallel_for_blocks(
        n, scan_block_size(n), [&](size_t, size_t lo, size_t hi) {
          size_t g = static_cast<size_t>(
              std::upper_bound(runs.begin(), runs.end(), lo) - runs.begin() -
              1);
          uint64_t head = sorted[runs[g]].index;
          size_t next = run_end(g);
          bool mixed = false;
          for (size_t i = runs[g] == lo ? lo + 1 : lo; i < hi; ++i) {
            if (i == next) {
              head = sorted[i].index;
              next = run_end(++g);
            } else {
              mixed |= !eq_at(sorted[i].index, head);
            }
          }
          if (mixed) split.store(true, std::memory_order_relaxed);
        });
    if (!split.load(std::memory_order_relaxed)) return runs;

    // Cold path: stably regroup each run into equality classes, first-seen
    // order, counting the classes; then scan the counts and expand.
    std::span<size_t> first(ctx.scratch.alloc<size_t>(r), r);
    parallel_for(
        0, r,
        [&](size_t g) {
          auto end = sorted.begin() + run_end(g);
          size_t classes = 0;
          for (auto it = sorted.begin() + runs[g]; it != end; ++classes) {
            uint64_t head = it->index;
            it = std::stable_partition(it + 1, end, [&](const key_tag& t) {
              return eq_at(t.index, head);
            });
          }
          first[g] = classes;
        },
        1);
    size_t k = scan_exclusive_inplace(first, size_t{0});
    std::span<size_t> starts(ctx.scratch.alloc<size_t>(k), k);
    parallel_for(
        0, r,
        [&](size_t g) {
          size_t head = runs[g], w = first[g];
          starts[w] = head;
          if ((g + 1 < r ? first[g + 1] : k) - w == 1) return;
          for (size_t i = head + 1; i < run_end(g); ++i)
            if (!eq_at(sorted[i].index, sorted[head].index))
              starts[++w] = head = i;
        },
        1);
    return starts;
  }
}

}  // namespace internal

// General semisort for arbitrary key types: hashes keys to 64 bits, runs
// the tag spine, repairs hash collisions, and permutes the input into a
// fresh vector.
//
//   KeyFn : T → K       (key of a record)
//   HashFn: K → uint64  (64-bit hash; parsemi::hash64 / hash_string / …)
//   Eq    : K × K → bool (defaults to operator==)
template <typename T, typename KeyFn, typename HashFn,
          typename Eq = std::equal_to<>>
std::vector<T> semisort(std::span<const T> in, KeyFn key_of, HashFn hash,
                        Eq eq = {}, const semisort_params& params = {}) {
  size_t n = in.size();
  std::vector<T> out(n);
  if (n == 0) return out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(key_of(in[i])); }, params, ctx);
    internal::tag_groups(
        sorted,
        [&](uint64_t a, uint64_t b) {
          return eq(key_of(in[a]), key_of(in[b]));
        },
        ctx);
    parallel_for(0, n, [&](size_t i) { out[i] = in[sorted[i].index]; });
  });
  return out;
}

}  // namespace parsemi
