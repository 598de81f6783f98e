// Phase 2 — bucket allocation (§4 Phase 2; steps 4, 5, 6a, 7a of Alg. 1).
//
// From the *sorted* sample this builds the complete routing structure:
//   * heavy keys (≥ δ sample hits) each get their own bucket and an entry
//     in a phase-concurrent hash table T: hashed key → bucket id;
//   * the hash space is partitioned into 2^16 equal ranges; adjacent ranges
//     are merged until each light bucket covers ≥ δ sample hits (the §4
//     estimation-accuracy optimization), and a 2^16-entry map range → light
//     bucket id is produced (small enough to stay cache-resident);
//   * every bucket gets α·f(s) slots (§3.1), laid out in one big array —
//     heavy buckets first, then light — so Phase 5 can pack by scanning.
//     Only the CAS ablation path uses these capacities; the default
//     exact-offset path uses the routing alone and sizes each bucket from
//     its exact count (core/scatter.h).
//
// This phase costs ~1% of the total time (sample is n/16 keys), so the
// walk over distinct sample keys is deliberately sequential and simple,
// exactly as in the paper.
//
// Every table and array of the plan lives in the pipeline_context's arena:
// the plan is a view that stays valid until the caller's checkpoint (the
// call, or one CAS Las-Vegas attempt) is rewound, and building it performs no heap
// allocation once the arena is warm.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>

#include "core/estimator.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "hashing/phase_concurrent_hash_table.h"
#include "primitives/pack.h"
#include "scheduler/scheduler.h"

namespace parsemi {

struct bucket_plan {
  // Heavy routing: hashed key → heavy bucket id (buckets 0..num_heavy).
  // Arena-backed; std::optional only because the table is built after the
  // heavy count is known (it is always engaged once build returns).
  std::optional<phase_concurrent_hash_table<uint32_t>> heavy_table;
  size_t num_heavy = 0;

  // Light routing: key >> range_shift → range; range → light bucket id
  // (light bucket j occupies overall bucket slot num_heavy + j).
  std::span<uint32_t> range_to_light_bucket;
  int range_shift = 48;
  size_t num_light = 0;

  // bucket_offset[b] .. bucket_offset[b+1]) is bucket b's slot range in the
  // single backing array; heavy buckets come first.
  std::span<size_t> bucket_offset;
  size_t heavy_slots_end = 0;
  size_t total_slots = 0;

  size_t num_buckets() const { return num_heavy + num_light; }

  // Slot capacity of bucket b — the CAS path's overflow bound.
  size_t capacity_of(size_t b) const {
    return bucket_offset[b + 1] - bucket_offset[b];
  }

  // Bucket id for a hashed key (valid once heavy_table's insert phase is
  // over, i.e. any time after build_bucket_plan returns).
  size_t bucket_of(uint64_t key) const {
    if (num_heavy > 0) {
      if (auto h = heavy_table->find(key)) return *h;
    }
    return num_heavy + range_to_light_bucket[key >> range_shift];
  }
};

// Builds the plan from the sorted sample. `alpha` is passed explicitly so
// the CAS path's Las-Vegas retry loop can inflate capacities after an
// overflow. All
// plan storage comes from ctx.scratch — the plan dangles once the caller's
// enclosing arena checkpoint is rewound.
inline bucket_plan build_bucket_plan(std::span<const uint64_t> sorted_sample,
                                     size_t n, const semisort_params& params,
                                     double alpha, pipeline_context& ctx) {
  bucket_plan plan;
  arena& scratch = ctx.scratch;
  size_t m = sorted_sample.size();

  size_t num_ranges = std::bit_ceil(std::max<size_t>(2, params.num_hash_ranges));
  plan.range_shift = 64 - std::countr_zero(num_ranges);
  plan.range_to_light_bucket =
      std::span<uint32_t>(scratch.alloc<uint32_t>(num_ranges), num_ranges);
  // No zero-fill: every range is written exactly once by close_group below.

  // Distinct-key boundaries in the sorted sample (parallel pack).
  std::span<size_t> starts = pack_index_arena(
      m, [&](size_t i) { return i == 0 || sorted_sample[i] != sorted_sample[i - 1]; },
      scratch);
  size_t num_distinct = starts.size();

  // Split distinct sample keys into heavy keys and per-range light counts.
  struct heavy_entry {
    uint64_t key;
    size_t count;
  };
  // ≤ m/δ keys can reach δ sample hits.
  size_t heavy_cap = m / std::max<size_t>(1, params.delta) + 1;
  std::span<heavy_entry> heavy_keys(scratch.alloc<heavy_entry>(heavy_cap),
                                    heavy_cap);
  std::span<size_t> range_sample_count(scratch.alloc<size_t>(num_ranges),
                                       num_ranges);
  parallel_for(0, num_ranges, [&](size_t r) { range_sample_count[r] = 0; });
  for (size_t j = 0; j < num_distinct; ++j) {
    uint64_t key = sorted_sample[starts[j]];
    size_t end = j + 1 < num_distinct ? starts[j + 1] : m;
    size_t count = end - starts[j];
    if (count >= params.delta) {
      heavy_keys[plan.num_heavy++] = {key, count};
    } else {
      range_sample_count[key >> plan.range_shift] += count;
    }
  }

  // Heavy buckets: one per heavy key, α·f(count) slots, entry in T.
  // bucket_offset's worst case is one bucket per heavy key plus one light
  // bucket per range, plus the closing boundary.
  size_t offset_cap = plan.num_heavy + num_ranges + 1;
  size_t* offsets = scratch.alloc<size_t>(offset_cap);
  size_t num_offsets = 0;
  offsets[num_offsets++] = 0;
  plan.heavy_table.emplace(std::max<size_t>(1, plan.num_heavy), scratch);
  for (size_t h = 0; h < plan.num_heavy; ++h) {
    auto [key, count] = heavy_keys[h];
    plan.heavy_table->insert(key, static_cast<uint32_t>(h));
    offsets[num_offsets] =
        offsets[num_offsets - 1] + bucket_capacity(count, n, params, alpha);
    num_offsets++;
  }
  plan.heavy_slots_end = offsets[num_offsets - 1];

  // Light buckets: merge adjacent ranges until each bucket saw ≥ δ samples
  // (if enabled); a trailing under-full group is folded into its
  // predecessor so every bucket meets the threshold when possible.
  size_t merge_target = std::max(params.delta, params.light_bucket_samples);
  size_t group_count = 0;
  size_t group_first_range = 0;
  auto close_group = [&](size_t last_range_exclusive) {
    uint32_t id = static_cast<uint32_t>(plan.num_light);
    for (size_t r = group_first_range; r < last_range_exclusive; ++r)
      plan.range_to_light_bucket[r] = id;
    offsets[num_offsets] =
        offsets[num_offsets - 1] + bucket_capacity(group_count, n, params, alpha);
    num_offsets++;
    plan.num_light++;
    group_count = 0;
    group_first_range = last_range_exclusive;
  };
  for (size_t r = 0; r < num_ranges; ++r) {
    group_count += range_sample_count[r];
    bool last = (r + 1 == num_ranges);
    if (!params.merge_light_buckets || group_count >= merge_target) {
      if (!last) close_group(r + 1);
    }
    if (last) {
      if (plan.num_light > 0 && params.merge_light_buckets &&
          group_count < merge_target) {
        // Fold trailing remainder into the previous group: regrow its
        // capacity and remap its ranges.
        plan.num_light--;
        num_offsets--;
        // Recover the previous group's first range.
        size_t prev_first = group_first_range;
        while (prev_first > 0 &&
               plan.range_to_light_bucket[prev_first - 1] ==
                   static_cast<uint32_t>(plan.num_light))
          prev_first--;
        size_t prev_count = 0;
        // Previous group's sample count must be re-derived.
        for (size_t r2 = prev_first; r2 < group_first_range; ++r2)
          prev_count += range_sample_count[r2];
        group_count += prev_count;
        group_first_range = prev_first;
      }
      close_group(num_ranges);
    }
  }
  plan.bucket_offset = std::span<size_t>(offsets, num_offsets);
  plan.total_slots = plan.bucket_offset.back();
  return plan;
}

}  // namespace parsemi
