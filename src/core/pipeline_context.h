// pipeline_context — the per-call spine threaded through every semisort
// phase, derived operator and the shard driver: one arena (the memory
// plan), one rng stream, and the shard driver's spill run.
//
// Ownership model: a context outlives calls, not the other way around.
// Callers that semisort repeatedly construct one pipeline_context and pass
// it via `semisort_params::context`; after warm-up every call's scratch is
// served from the arena's retained capacity — zero heap allocations — and
// a budgeted in-place call writes its partition into the spill run the
// context already maps. Calls without a context get a stack-local one and
// pay fresh-allocation cost, exactly like the pre-arena code did.
//
// Not thread-safe: one context per concurrent semisort call (concurrent
// calls each take their own).
#pragma once

#include <utility>

#include "core/arena.h"
#include "shard/spill_file.h"
#include "util/rng.h"

namespace parsemi {

// Scratch-requirement estimate for one in-memory semisort run — the memory
// model the shard planner (shard/shard_plan.h) sizes shard record counts
// against. The analytic side is deliberately conservative: bucket storage is
// bounded by the slack-factor α over ~2-3 slots/record that the default
// light_bucket_samples configuration yields (params.h), plus the sample
// array, per-block scatter histograms, and the fixed light-range table.
struct scratch_model {
  // Bucket slots per input record (α·f(s) overshoot included) and a flag
  // byte per slot (core/scatter.h's scatter_storage).
  double slots_per_record = 4.0;
  // Sample keys + indices (~2×8·p bytes/record at p = 1/16), local-sort
  // key extraction, and per-block counting scratch.
  double misc_bytes_per_record = 40.0;
  // Light-range table (num_hash_ranges counters + bucket map) and arena
  // block-rounding slack.
  size_t fixed_bytes = (size_t{1} << 16) * 64 + (size_t{8} << 20);

  double per_record_bytes(size_t record_bytes) const {
    return slots_per_record * (static_cast<double>(record_bytes) + 1.0) +
           misc_bytes_per_record;
  }

  // Scratch (arena) bytes one in-memory run over n records needs.
  size_t estimate_bytes(size_t n, size_t record_bytes) const {
    return fixed_bytes +
           static_cast<size_t>(static_cast<double>(n) * per_record_bytes(record_bytes));
  }

  // Total footprint: resident input + scratch. The planner compares this
  // against the byte budget to decide whether a call shards at all.
  size_t footprint_bytes(size_t n, size_t record_bytes) const {
    return n * record_bytes + estimate_bytes(n, record_bytes);
  }

  // Largest record count whose footprint fits `budget`; 0 when even the
  // fixed overhead does not fit (the driver still runs — one record range
  // per shard floor applies elsewhere).
  size_t records_for_budget(size_t budget, size_t record_bytes) const {
    if (budget <= fixed_bytes) return 0;
    double per = static_cast<double>(record_bytes) + per_record_bytes(record_bytes);
    return static_cast<size_t>(static_cast<double>(budget - fixed_bytes) / per);
  }
};

struct pipeline_context {
  arena scratch;

  // Per-call stream, reseeded from (params.seed, attempt) — the CAS path's
  // Las-Vegas retries thereby draw fresh randomness.
  rng base{0};

  // The shard driver's in-place partition run (shard/shard_driver.h). It
  // is created by the first budgeted in-place call, replaced by a larger
  // one only when a call needs more bytes, and holds its disk space until
  // the context dies.
  spill_file spill;

  // Re-entrancy depth (derived operators call semisort_hashed with the same
  // context); only the outermost frame owns high-water/alloc accounting.
  int depth = 0;
};

// One self-contained frame on a context, at any depth: it marks the arena
// and rewinds it on exit, measures its own high water, and runs at depth 0,
// so every call nested in it is an outermost call that rewinds its own
// arena frame and publishes its own stats. On exit the enclosing frame's
// depth comes back, and its high water becomes the max of both. The
// outermost call of every entry point runs in one (core/executor.h's
// context_binding), and so does the shard driver, at whatever depth it
// was entered.
class context_frame {
 public:
  explicit context_frame(pipeline_context& ctx)
      : ctx_(ctx),
        base_(ctx.scratch.mark()),
        high_water_(ctx.scratch.high_water_bytes()),
        depth_(std::exchange(ctx.depth, 0)) {
    ctx.scratch.reset_high_water();
  }
  ~context_frame() {
    ctx_.scratch.rewind(base_);
    ctx_.scratch.raise_high_water(high_water_);
    ctx_.depth = depth_;
  }
  context_frame(const context_frame&) = delete;
  context_frame& operator=(const context_frame&) = delete;

 private:
  pipeline_context& ctx_;
  arena::checkpoint base_;
  size_t high_water_;
  int depth_;
};

}  // namespace parsemi
