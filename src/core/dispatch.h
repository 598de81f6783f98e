// Front-end dispatch (ROADMAP item 3): a layer *above* the pipeline that
// inspects the key domain and the requested result shape, then routes the
// call to a specialized integer fast path when one applies:
//
//   * counting — a direct stable counting/radix placement for small dense
//     integer key domains (probe in core/key_domain.h): one
//     counting_distribute pass (primitives/counting_sort.h) for domain
//     widths ≤ 2^16, two 16-bit-digit LSB radix passes up to 2^32 (Dong et
//     al. 2024's playbook). No sampling, no hashing, no Las-Vegas retry —
//     and the output is fully sorted, stable, and byte-identical at every
//     worker count.
//   * offsets — offset-only result shapes that never move a record
//     (count_by_key's histogram path below; group_by_index's index-only
//     counting sort).
//
// Selection mirrors the Phase 3 scatter precedent (core/scatter.h):
// the PARSEMI_DISPATCH_PATH environment variable beats
// semisort_params::dispatch_with beats the adaptive default, and the path
// actually taken is recorded in semisort_stats::dispatch_path_used. A
// key domain that turns out ineligible routes to the general pipeline —
// recorded as general with key_domain_width == 0.
//
// Since the plan/execute split (ISSUE 10) the probe and the decision for
// semisort calls live in the planner (core/planner.h); this header
// provides the counting kernels the executor invokes with the plan's
// accepted domain, plus the self-contained result-shape hooks
// (count_by_key / group_by_index below), which still probe at their call
// sites because their result shapes never reach the record-moving
// pipeline.
//
// All scratch is arena-backed through the call's pipeline_context; the
// fast paths uphold the zero-warm-heap-allocation contract the general
// pipeline established (tests/alloc_regression_test.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "core/key_domain.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "primitives/histogram.h"
#include "primitives/pack.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "util/env.h"

namespace parsemi {
namespace internal {

// PARSEMI_DISPATCH_PATH values — same contract as PARSEMI_SCATTER_PATH:
// "general" forces the general pipeline; any other value falls through to
// the params knob.
inline constexpr env_choice<semisort_params::dispatch_strategy>
    kDispatchPathEnv[] = {
        {"general", semisort_params::dispatch_strategy::general},
};

inline semisort_params::dispatch_strategy resolve_dispatch_strategy(
    const semisort_params& params) {
  return env_override("PARSEMI_DISPATCH_PATH", kDispatchPathEnv,
                      params.dispatch_with);
}

// Stable counting semisort over an accepted dense domain. One blocked pass
// when the width fits 2^16 buckets; otherwise two 16-bit-digit LSB radix
// passes — pass 1 (low digit) into an arena temp, pass 2 (high digit) from
// the temp into `out`, which preserves pass 1's order within equal high
// digits, so the composition is a stable sort by key. When `out` aliases
// `in` (the in-place entry), the one-pass shape places into a temp and
// copies back; the two-pass shape is alias-safe as-is because pass 2 never
// reads `in`.
template <typename Record, typename GetKey>
void counting_semisort(std::span<const Record> in, std::span<Record> out,
                       GetKey&& get_key, const key_domain& dom,
                       const semisort_params& params, bool aliased,
                       pipeline_context& ctx) {
  size_t n = in.size();
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  uint64_t min = dom.min;
  size_t passes;
  if (dom.width <= kCountingOnePassMaxWidth) {
    passes = 1;
    std::span<Record> dst = out;
    if (aliased) dst = std::span<Record>(ctx.scratch.alloc<Record>(n), n);
    counting_distribute(
        n, static_cast<size_t>(dom.width),
        [&](size_t i) { return static_cast<size_t>(get_key(in[i]) - min); },
        [&](size_t i, size_t pos) { dst[pos] = in[i]; }, ctx.scratch);
    if (pt != nullptr) pt->record("dispatch count place");
    if (aliased) {
      parallel_for_blocks(n, scan_block_size(n),
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) out[i] = dst[i];
                          });
      if (pt != nullptr) pt->record("dispatch copy back");
    }
  } else {
    passes = 2;
    std::span<Record> tmp(ctx.scratch.alloc<Record>(n), n);
    size_t high_width = static_cast<size_t>(((dom.width - 1) >> 16) + 1);
    counting_distribute(
        n, static_cast<size_t>(kCountingOnePassMaxWidth),
        [&](size_t i) {
          return static_cast<size_t>((get_key(in[i]) - min) & 0xffff);
        },
        [&](size_t i, size_t pos) { tmp[pos] = in[i]; }, ctx.scratch);
    if (pt != nullptr) pt->record("dispatch radix pass 1");
    counting_distribute(
        n, high_width,
        [&](size_t i) {
          return static_cast<size_t>((get_key(tmp[i]) - min) >> 16);
        },
        [&](size_t i, size_t pos) { out[pos] = tmp[i]; }, ctx.scratch);
    if (pt != nullptr) pt->record("dispatch radix pass 2");
  }
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::counting;
    st.key_domain_width = static_cast<size_t>(dom.width);
    st.counting_passes = passes;
  }
}

// Offset-only count_by_key (the `offsets` result shape): a pure histogram
// over the dense domain — no tags, no scatter, and no record ever moves;
// the only heap allocation is the (key, count) result itself. `Result` is
// std::vector<std::pair<K, size_t>>; the integral-key / trivial-equality
// gate lives at the call site (core/collect_reduce.h). Returns true when
// handled.
template <typename K, typename Result>
bool try_dispatch_count_by_key(std::span<const K> keys, Result& out,
                               const semisort_params& params,
                               pipeline_context& ctx) {
  using strategy = semisort_params::dispatch_strategy;
  strategy s = resolve_dispatch_strategy(params);
  if (s == strategy::general) return false;
  size_t n = keys.size();
  key_domain dom = probe_key_domain(
      n, [&](size_t i) { return to_ordered_u64(keys[i]); }, ctx);
  if (params.stats != nullptr) {
    params.stats->key_domain_width =
        dom.dense ? static_cast<size_t>(dom.width) : 0;
  }
  if (!dom.dense) return false;
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  size_t width = static_cast<size_t>(dom.width);
  std::span<size_t> totals(ctx.scratch.alloc<size_t>(width), width);
  if (dom.width <= kCountingOnePassMaxWidth) {
    size_t block = histogram_block_size(n, width);
    size_t num_blocks = histogram_num_blocks(n, block);
    size_t* counts = ctx.scratch.alloc<size_t>(num_blocks * width);
    auto bucket_at = [&](size_t i) {
      return static_cast<size_t>(to_ordered_u64(keys[i]) - dom.min);
    };
    histogram_blocks(n, block, width, counts, bucket_at);
    histogram_totals(counts, num_blocks, width, totals.data());
  } else {
    // Wide domains: the blocked matrix would dwarf n, so accumulate with
    // relaxed atomics instead — the fork-join barrier orders every
    // increment before the reads below, which is all the counting needs.
    parallel_for_blocks(width, scan_block_size(width),
                        [&](size_t, size_t lo, size_t hi) {
                          std::fill(
                              totals.begin() + static_cast<ptrdiff_t>(lo),
                              totals.begin() + static_cast<ptrdiff_t>(hi),
                              size_t{0});
                        });
    parallel_for_blocks(n, scan_block_size(n),
                        [&](size_t, size_t lo, size_t hi) {
                          for (size_t i = lo; i < hi; ++i) {
                            size_t k = static_cast<size_t>(
                                to_ordered_u64(keys[i]) - dom.min);
                            std::atomic_ref<size_t>(totals[k]).fetch_add(
                                1, std::memory_order_relaxed);
                          }
                        });
  }
  std::span<size_t> nonempty = pack_index_arena(
      width,
      [&](size_t k) { return totals[k] != 0; }, ctx.scratch);
  out.resize(nonempty.size());
  parallel_for(0, nonempty.size(), [&](size_t g) {
    size_t k = nonempty[g];
    out[g] = {from_ordered_u64<K>(dom.min + k), totals[k]};
  });
  if (pt != nullptr) pt->record("dispatch count offsets");
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::offsets;
    st.key_domain_width = width;
    st.counting_passes = 1;
  }
  return true;
}

// Dense fast path for group_by_index: a counting sort of the *indices* —
// the records themselves never move, matching the operator's contract.
// `Result` is grouped_indices (core/group_by.h; templated to keep this
// header below it in the include graph). Stable placement (order within a
// group = input order). Returns true when handled.
template <typename Record, typename GetKey, typename Result>
bool try_dispatch_group_by_index(std::span<const Record> in, GetKey&& get_key,
                                 const semisort_params& params, Result& result,
                                 pipeline_context& ctx) {
  using strategy = semisort_params::dispatch_strategy;
  strategy s = resolve_dispatch_strategy(params);
  if (s == strategy::general) return false;
  size_t n = in.size();
  key_domain dom = probe_key_domain(
      n, [&](size_t i) { return get_key(in[i]); }, ctx);
  if (params.stats != nullptr) {
    params.stats->key_domain_width =
        dom.dense ? static_cast<size_t>(dom.width) : 0;
  }
  if (!dom.dense) return false;
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  uint64_t min = dom.min;
  result.order.resize(n);
  std::span<size_t> order(result.order.data(), n);
  size_t passes = 1;
  if (dom.width <= kCountingOnePassMaxWidth) {
    counting_distribute(
        n, static_cast<size_t>(dom.width),
        [&](size_t i) { return static_cast<size_t>(get_key(in[i]) - min); },
        [&](size_t i, size_t pos) { order[pos] = i; }, ctx.scratch);
  } else {
    passes = 2;
    std::span<size_t> tmp(ctx.scratch.alloc<size_t>(n), n);
    size_t high_width = static_cast<size_t>(((dom.width - 1) >> 16) + 1);
    counting_distribute(
        n, static_cast<size_t>(kCountingOnePassMaxWidth),
        [&](size_t i) {
          return static_cast<size_t>((get_key(in[i]) - min) & 0xffff);
        },
        [&](size_t i, size_t pos) { tmp[pos] = i; }, ctx.scratch);
    counting_distribute(
        n, high_width,
        [&](size_t i) {
          return static_cast<size_t>((get_key(in[tmp[i]]) - min) >> 16);
        },
        [&](size_t i, size_t pos) { order[pos] = tmp[i]; }, ctx.scratch);
  }
  if (pt != nullptr) pt->record("dispatch index place");
  std::span<size_t> starts = pack_index_arena(
      n,
      [&](size_t i) {
        return i == 0 || get_key(in[order[i]]) != get_key(in[order[i - 1]]);
      },
      ctx.scratch);
  result.group_start.assign(starts.begin(), starts.end());
  result.group_start.push_back(n);
  if (pt != nullptr) pt->record("dispatch group starts");
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::counting;
    st.key_domain_width = static_cast<size_t>(dom.width);
    st.counting_passes = passes;
  }
  return true;
}

}  // namespace internal
}  // namespace parsemi
