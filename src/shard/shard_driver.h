// shard_driver — out-of-core execution of a sharded semisort_plan.
// Included at the bottom of core/semisort.h (the same arrangement as
// core/tag_semisort.h); core/executor.h forward-declares
// execute_sharded_plan and core/semisort.h routes here when the planner
// came back with a multi-shard plan.
//
// Structure of a sharded call (the plan is made before the driver runs —
// shard/shard_plan.h groups hash-prefix bins into shards whose estimated
// input + engine scratch fits the budget):
//   1. partition — one stable counting distribution by shard id
//                (counting_distribute, primitives/counting_sort.h) moves
//                every record to its shard's contiguous range. The
//                destination is the caller's `out` storage when it is
//                distinct from `in`; when the call is in-place the
//                partition writes the context's mmap-backed spill run
//                (spill_file.h) instead — the kernel pages it to disk under
//                pressure, which is what keeps the resident set near the
//                budget.
//   2. execute — each shard runs the unchanged in-memory engine through the
//                existing worker_pool, as an outermost call on the same
//                pipeline_context, so shards after the first perform zero
//                heap allocations.
//   3. concat  — nothing to do: shards are contiguous prefix ranges placed
//                back-to-back in `out`, so the concatenation is implicit
//                and every key's group is globally contiguous.
//
// Overlapped spill I/O (plan.overlap_io, ROADMAP item 2 follow-on): on the
// spill path the driver owns a dedicated one-worker I/O pool behind a
// job_gateway. Before computing shard k it submits a prefetch job for
// shard k+1's run — madvise WILLNEED plus a one-byte-per-page touch, so
// the read-back faults on the I/O worker while the compute pool semisorts
// shard k — and joins that job before consuming run k+1. With overlap off
// (plan or PARSEMI_SHARD_OVERLAP=off) the driver falls back to the plain
// async WILLNEED hint. Either way each consumed run is dropped (DONTNEED)
// so it stops competing with the budgeted working set; the file itself
// stays mapped in the context for the next call. Overlapped prefetches are
// counted in stats.overlapped_prefetches.
//
// Memory plan: the driver runs on the caller's pipeline_context
// (params.context), else on a call-local one. The context keeps the spill
// run across calls and replaces it only when a call needs more bytes, so a
// warm in-place call neither creates nor first-touches a fresh file. The
// partition's count matrix and starts and every shard's engine frame come
// from the context's arena, inside one context_frame
// (core/pipeline_context.h), so the driver nests correctly at any context
// depth — the tag spine enters it at depth 1 when an operator runs under a
// budget.
//
// The budget is enforced w.h.p., not absolutely: the plan packs shards from
// a sampled histogram with headroom, and a single dominant hash prefix
// (ultimately a single heavy key) cannot be split without breaking group
// contiguity — such a shard runs over budget and the real footprint is
// reported via stats.shard_peak_scratch_bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/exec_plan.h"
#include "core/executor.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "scheduler/job_gateway.h"
#include "scheduler/scheduler.h"
#include "shard/shard_plan.h"
#include "shard/spill_file.h"

namespace parsemi {
namespace internal {

// Folds one shard's engine counters into the call-level aggregate: counts
// sum, histogram bins sum, probe/scratch maxima take the max, and the
// path-choice fields report the last shard that ran (shards see the same
// distribution family, so they almost always agree) — the scatter path
// from the last shard that ran the scatter at all, since a tiny or
// single-key shard finishes on the sequential or counting path without
// one.
inline void accumulate_shard_stats(semisort_stats& agg,
                                   const semisort_stats& s) {
  agg.sample_size += s.sample_size;
  agg.num_heavy_keys += s.num_heavy_keys;
  agg.num_light_buckets += s.num_light_buckets;
  agg.heavy_records += s.heavy_records;
  agg.total_slots += s.total_slots;
  agg.heavy_slots += s.heavy_slots;
  agg.restarts += s.restarts;
  agg.arena_allocs += s.arena_allocs;
  agg.sequential_fallbacks += s.sequential_fallbacks;
  agg.job_steals += s.job_steals;
  agg.job_queue_wait_ns += s.job_queue_wait_ns;
  for (size_t b = 0; b < semisort_stats::kProbeBins; ++b)
    agg.probe_hist[b] += s.probe_hist[b];
  agg.max_probe = std::max(agg.max_probe, s.max_probe);
  agg.shard_peak_scratch_bytes =
      std::max(agg.shard_peak_scratch_bytes, s.peak_scratch_bytes);
  if (s.total_slots > 0) agg.scatter_path_used = s.scatter_path_used;
  agg.dispatch_path_used = s.dispatch_path_used;
  agg.key_domain_width = s.key_domain_width;
  agg.counting_passes = s.counting_passes;
  // Per-phase SIMD engagement: max — "widest kernel any shard ran".
  agg.simd_hash_width = std::max(agg.simd_hash_width, s.simd_hash_width);
  agg.simd_scatter_width =
      std::max(agg.simd_scatter_width, s.simd_scatter_width);
  agg.simd_local_sort_width =
      std::max(agg.simd_local_sort_width, s.simd_local_sort_width);
  agg.simd_pack_width = std::max(agg.simd_pack_width, s.simd_pack_width);
}

template <typename Record, typename GetKey>
void execute_sharded_plan(std::span<const Record> in, std::span<Record> out,
                          GetKey get_key, const semisort_params& params,
                          const semisort_plan& plan, bool aliased,
                          const char* who) {
  (void)who;
  const size_t n = in.size();
  constexpr size_t kRecordBytes = sizeof(Record);
  const shard_plan& sp = plan.shards;
  const size_t S = sp.num_shards;

  // Per-shard engine configuration: never recurse into sharding, plan each
  // shard fresh (the shard IS that call's input), and own the telemetry so
  // the driver can aggregate it.
  semisort_params inner = params;
  inner.memory_budget_bytes = SIZE_MAX;
  inner.timings = nullptr;
  inner.plan = nullptr;

  run_with_pool_override(params, [&] {
    phase_timer* pt = params.timings;
    if (pt != nullptr) pt->start();
    if (params.stats != nullptr) {
      *params.stats = {};
      publish_plan(params.stats, plan, /*reused=*/params.plan != nullptr);
    }

    // The caller's context, else a call-local one. The driver's frame puts
    // the context at depth 0, so each shard's engine call below is an
    // outermost call on it: it rewinds its own arena frame and publishes
    // its own stats, whatever depth the driver was entered at.
    std::optional<pipeline_context> local;
    pipeline_context& ctx =
        params.context != nullptr ? *params.context : local.emplace();
    context_frame frame(ctx);
    inner.context = &ctx;

    // Partition destination: reuse `out` when it is separate storage; when
    // the call is in-place, use the context's spill run, replaced by a
    // larger one only when this call needs more bytes.
    std::span<Record> part = out;
    spill_file& spill = ctx.spill;
    if (aliased) {
      spill.grow_to(n * kRecordBytes);
      spill.advise_sequential();
      part = spill.as_span<Record>().first(n);
    }
    if (pt != nullptr) pt->record("shard plan");

    // Stable partition by shard id: shard_begin[s] is where shard s's
    // contiguous range starts, shard_begin[S] == n. The starts live in the
    // driver's frame, under every shard's.
    std::span<const size_t> shard_begin = counting_distribute(
        n, S, [&](size_t i) { return sp.shard_of_key(get_key(in[i])); },
        [&](size_t i, size_t pos) { part[pos] = in[i]; }, ctx.scratch);
    if (pt != nullptr) pt->record("partition");

    // Overlapped spill I/O: a dedicated one-worker pool faults the next
    // shard's run in while the compute pool works on the current one. The
    // gateway (and its pending handle) are destroyed before this call
    // returns, which joins every I/O job before a later call can replace
    // the run.
    const bool overlap = plan.overlap_io && aliased && S >= 2;
    std::optional<worker_pool> io_pool;
    std::optional<job_gateway> io_gateway;
    if (overlap) {
      io_pool.emplace(1);
      io_gateway.emplace(*io_pool);
    }
    size_t overlapped = 0;
    job_handle pending;  // prefetch of the shard about to be consumed
    auto submit_prefetch = [&](size_t lo, size_t hi) {
      const size_t off = lo * kRecordBytes;
      const size_t bytes = (hi - lo) * kRecordBytes;
      spill.advise_willneed(off, bytes);  // kernel readahead starts now
      const unsigned char* base =
          reinterpret_cast<const unsigned char*>(spill.data()) + off;
      return io_gateway->submit([base, bytes] {
        // Touch one byte per page so the read-back faults on the I/O
        // worker, not the compute pool. The volatile reads keep the loop.
        const volatile unsigned char* p = base;
        unsigned char acc = 0;
        for (size_t i = 0; i < bytes; i += 4096) acc ^= p[i];
        (void)acc;
      });
    };

    // Execute the in-memory engine shard by shard on the context: the
    // first shard of a cold context grows the arena, every later shard (and
    // call) runs in its retained capacity.
    semisort_stats shard_stats;
    inner.stats = params.stats != nullptr ? &shard_stats : nullptr;
    semisort_stats agg{};
    for (size_t s = 0; s < S; ++s) {
      size_t lo = shard_begin[s], hi = shard_begin[s + 1];
      // Join this shard's prefetch (submitted while shard s-1 computed)
      // before consuming its run.
      if (pending.valid()) pending.wait();
      if (aliased && s + 1 < S) {
        // Start read-back of the next run while this shard computes.
        if (overlap) {
          pending = submit_prefetch(shard_begin[s + 1], shard_begin[s + 2]);
          ++overlapped;
        } else {
          spill.advise_willneed(shard_begin[s + 1] * kRecordBytes,
                                (shard_begin[s + 2] - shard_begin[s + 1]) *
                                    kRecordBytes);
        }
      }
      if (hi != lo) {
        shard_stats = {};
        std::span<Record> dst = out.subspan(lo, hi - lo);
        if (aliased) {
          semisort_hashed(std::span<const Record>(part.subspan(lo, hi - lo)),
                          dst, get_key, inner);
          spill.advise_dontneed(lo * kRecordBytes, (hi - lo) * kRecordBytes);
        } else {
          semisort_hashed_inplace(dst, get_key, inner);
        }
        if (inner.stats != nullptr) accumulate_shard_stats(agg, shard_stats);
      }
    }
    if (pending.valid()) pending.release();
    if (pt != nullptr) pt->record("execute shards");

    if (params.stats != nullptr) {
      // The plan summary was published before the shards ran; carry it
      // across the aggregate assignment.
      plan_summary ps = params.stats->plan;
      *params.stats = agg;
      semisort_stats& st = *params.stats;
      st.plan = ps;
      st.n = n;
      st.shards = S;
      st.spilled_bytes = aliased ? n * kRecordBytes : 0;
      st.overlapped_prefetches = overlapped;
      // The call's resident scratch: the frame's high water, i.e. the
      // partition starts plus the largest shard frame (shards run one after
      // another, each rewinding its frame, on the one arena).
      st.peak_scratch_bytes = ctx.scratch.high_water_bytes();
      st.scratch_capacity_bytes = ctx.scratch.capacity_bytes();
    }
  });
}

}  // namespace internal
}  // namespace parsemi
