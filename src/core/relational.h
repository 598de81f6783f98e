// Relational operators built on the semisort — the paper's database
// motivation (§1: join and groupBy). These are the library-level versions
// of what examples/hash_join.cpp demonstrates inline.
//
//   equi_join:       R ⋈ S on 64-bit (pre-hashed) join keys; emits the
//                    per-key cross product via one tag semisort over the
//                    implicit union of both relations (nothing is copied
//                    into a tagged array — the spine's key function indexes
//                    straight into R and S), with exact output sizing.
//   group_aggregate: SELECT key, agg(value) GROUP BY key.
//
// Both are O(|R| + |S| + |output|) expected work and polylog depth, the
// semisort-based strategy from the main-memory join literature the paper
// cites (Balkesen et al.). All scratch comes from the call's
// pipeline_context; the result vectors are the only heap allocations.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/semisort.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// A join result row: the payloads of one matching (left, right) pair.
// The default constructor is a deliberate no-op, so `join_row{}` does NOT
// zero-fill: equi_join's `resize` then leaves its output pages untouched
// for the parallel fill to first-touch, instead of zeroing them serially.
struct join_row {
  uint64_t key;
  uint64_t left_value;
  uint64_t right_value;
  join_row() {}  // not `= default`: that would value-initialize to zero
  join_row(uint64_t k, uint64_t l, uint64_t r)
      : key(k), left_value(l), right_value(r) {}
  friend bool operator==(const join_row&, const join_row&) = default;
};
static_assert(std::is_trivially_copyable_v<join_row> &&
              std::is_standard_layout_v<join_row> && sizeof(join_row) == 24);

// Inner equi-join of two relations given as (key, value) records. Keys are
// treated as pre-hashed 64-bit values (hash raw keys first, as everywhere
// in parsemi). Output order is unspecified beyond "grouped by key".
template <typename LeftRecord, typename RightRecord, typename LeftKey,
          typename LeftValue, typename RightKey, typename RightValue>
std::vector<join_row> equi_join(std::span<const LeftRecord> left,
                                std::span<const RightRecord> right,
                                LeftKey left_key, LeftValue left_value,
                                RightKey right_key, RightValue right_value,
                                const semisort_params& params = {}) {
  size_t nl = left.size(), nr = right.size();
  size_t n = nl + nr;
  if (n == 0) return {};
  std::vector<join_row> out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    arena& scratch = ctx.scratch;

    // Tag positions 0..nl-1 are left rows, nl..n-1 are right rows.
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n,
        [&](size_t i) {
          return i < nl ? left_key(left[i]) : right_key(right[i - nl]);
        },
        params, ctx);
    std::span<size_t> starts =
        internal::tag_groups(sorted, internal::tag_eq_trivial, ctx);

    // Exact output sizing: per-group left-count × right-count, scanned.
    size_t num_groups = starts.size();
    std::span<size_t> out_offset(scratch.alloc<size_t>(num_groups),
                                 num_groups);
    parallel_for(0, num_groups, [&](size_t g) {
      size_t lo = starts[g], hi = g + 1 < num_groups ? starts[g + 1] : n;
      size_t lefts = 0;
      for (size_t i = lo; i < hi; ++i) lefts += (sorted[i].index < nl);
      out_offset[g] = lefts * (hi - lo - lefts);
    });
    size_t scan_blocks = internal::scan_num_blocks(num_groups);
    std::span<size_t> scan_scratch(scratch.alloc<size_t>(scan_blocks),
                                   scan_blocks);
    size_t out_size =
        scan_exclusive_inplace(out_offset, size_t{0}, scan_scratch);

    out.resize(out_size);
    parallel_for(
        0, num_groups,
        [&](size_t g) {
          size_t lo = starts[g], hi = g + 1 < num_groups ? starts[g + 1] : n;
          size_t w = out_offset[g];
          for (size_t i = lo; i < hi; ++i) {
            size_t a = sorted[i].index;
            if (a >= nl) continue;
            for (size_t j = lo; j < hi; ++j) {
              size_t b = sorted[j].index;
              if (b >= nl) {
                out[w++] = {sorted[i].key, left_value(left[a]),
                            right_value(right[b - nl])};
              }
            }
          }
        },
        1);
  });
  return out;
}

// SELECT key, fold(values) GROUP BY key over (key, value) records with
// pre-hashed keys. Returns one row per distinct key.
template <typename Record, typename GetKey, typename GetValue, typename Acc,
          typename Fold>
std::vector<std::pair<uint64_t, Acc>> group_aggregate(
    std::span<const Record> rows, GetKey get_key, GetValue get_value,
    Acc init, Fold fold, const semisort_params& params = {}) {
  size_t n = rows.size();
  if (n == 0) return {};
  std::vector<std::pair<uint64_t, Acc>> out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return get_key(rows[i]); }, params, ctx);
    std::span<size_t> starts =
        internal::tag_groups(sorted, internal::tag_eq_trivial, ctx);
    size_t k = starts.size();
    out.resize(k);
    parallel_for(
        0, k,
        [&](size_t g) {
          size_t lo = starts[g], hi = g + 1 < k ? starts[g + 1] : n;
          Acc acc = init;
          for (size_t i = lo; i < hi; ++i)
            acc = fold(std::move(acc), get_value(rows[sorted[i].index]));
          out[g] = {sorted[lo].key, std::move(acc)};
        },
        1);
  });
  return out;
}

}  // namespace parsemi
