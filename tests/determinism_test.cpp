// The determinism contract (DESIGN.md "Determinism"): with default params,
// semisort_hashed, semisort_hashed_inplace (which stages its input through
// the arena) and the derived operators on the tag spine — the general-key
// semisort, group_by, group_by_hashed, collect_reduce, the general-path
// count_by_key, map_reduce, equi_join and group_aggregate — produce
// byte-identical output at every worker count, in memory and on the
// sharded route under a memory budget. Every default route — counting,
// offsets, exact-offset distribution, shard partition — places records
// stably, so
// the only thing the worker count may change is the wall clock. Each cell
// runs on standalone pools of 1, 2 and 4 workers (routed through
// params.pool) and compares raw output bytes against the 1-worker run.
// Only the pinned CAS ablation is exempt: it guarantees the grouping alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/mapreduce.h"
#include "core/relational.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using testing::wide_key;
using testing::wide_record;
using testing::widen;

template <typename Record>
bool same_bytes(const std::vector<Record>& a, const std::vector<Record>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0;
}

// Runs both entry points on `in` at 1, 2 and 4 workers; every output must
// equal the 1-worker output of the same entry point byte for byte. A
// nonzero `memory_budget` routes both entries through the shard driver,
// which must then actually split the input. A non-null `ctx` runs every
// call on that one context, so all but the first run on a warm arena and,
// in place, on a reused spill run.
template <typename Record, typename GetKey>
void expect_worker_count_invariant(const std::vector<Record>& in,
                                   GetKey get_key, const std::string& cell,
                                   size_t memory_budget = 0,
                                   pipeline_context* ctx = nullptr) {
  std::vector<Record> ref_out, ref_inplace;
  for (int workers : {1, 2, 4}) {
    worker_pool pool(workers);
    semisort_params params;
    params.pool = &pool;
    params.memory_budget_bytes = memory_budget;
    params.context = ctx;
    semisort_stats stats;
    if (memory_budget != 0) params.stats = &stats;

    std::vector<Record> out(in.size());
    semisort_hashed(std::span<const Record>(in), std::span<Record>(out),
                    get_key, params);
    if (memory_budget != 0) {
      ASSERT_GE(stats.shards, 2u) << cell;
    }
    std::vector<Record> data(in);
    semisort_hashed_inplace(std::span<Record>(data), get_key, params);
    if (memory_budget != 0) {
      ASSERT_GE(stats.shards, 2u) << cell;
    }

    ASSERT_TRUE(testing::is_semisorted(std::span<const Record>(out), get_key))
        << cell;
    if (workers == 1) {
      ref_out = std::move(out);
      ref_inplace = std::move(data);
      continue;
    }
    EXPECT_TRUE(same_bytes(out, ref_out))
        << cell << ": semisort_hashed output differs at " << workers
        << " workers";
    EXPECT_TRUE(same_bytes(data, ref_inplace))
        << cell << ": semisort_hashed_inplace output differs at " << workers
        << " workers";
  }
}

TEST(Determinism, DefaultRoutesAreByteIdenticalAcrossWorkerCounts) {
  for (size_t n : {size_t{2'000}, size_t{20'000}, size_t{300'000}}) {
    for (uint64_t keys : {uint64_t{0}, uint64_t{1000}}) {
      // keys == 0: uniform over n keys (all light); 1000: heavy-key mix.
      distribution_spec spec{distribution_kind::uniform,
                             keys == 0 ? n : keys};
      auto in = generate_records(n, spec, 7 + n);
      std::string cell = "n=" + std::to_string(n) +
                         " keys=" + std::to_string(spec.parameter);
      expect_worker_count_invariant(in, record_key{}, cell + " 16B");
      expect_worker_count_invariant(widen(in), wide_key{}, cell + " 128B");
    }
  }
}

// The sharded route: a budget of 1/8 of the in-memory footprint splits the
// input into several shards — the stable partition into shard ranges, then
// the in-memory engine per shard, through `out` (copying entry) and
// through an mmap spill run (in-place entry). One context serves every
// cell, worker count and entry point, so later calls reuse its arena and
// spill run.
TEST(Determinism, ShardedRouteIsByteIdenticalAcrossWorkerCounts) {
  pipeline_context ctx;
  for (size_t n : {size_t{20'000}, size_t{200'000}}) {
    for (uint64_t keys : {uint64_t{0}, uint64_t{1000}}) {
      distribution_spec spec{distribution_kind::uniform,
                             keys == 0 ? n : keys};
      auto in = generate_records(n, spec, 13 + n);
      std::string cell = "sharded n=" + std::to_string(n) +
                         " keys=" + std::to_string(spec.parameter);
      expect_worker_count_invariant(
          in, record_key{}, cell + " 16B",
          scratch_model{}.footprint_bytes(n, sizeof(record)) / 8, &ctx);
      expect_worker_count_invariant(
          widen(in), wide_key{}, cell + " 128B",
          scratch_model{}.footprint_bytes(n, sizeof(wide_record)) / 8, &ctx);
    }
  }
}

// Runs `op(params)` at 1, 2 and 4 workers; every result must equal the
// 1-worker result byte for byte.
template <typename T>
void expect_operator_invariant(
    const std::string& cell,
    const std::function<std::vector<T>(const semisort_params&)>& op) {
  std::vector<T> ref;
  for (int workers : {1, 2, 4}) {
    worker_pool pool(workers);
    semisort_params params;
    params.pool = &pool;
    std::vector<T> got = op(params);
    if (workers == 1) {
      ref = std::move(got);
      continue;
    }
    EXPECT_TRUE(same_bytes(got, ref))
        << cell << ": output differs at " << workers << " workers";
  }
}

TEST(Determinism, DerivedOperatorsAreByteIdenticalAcrossWorkerCounts) {
  auto key_of = [](const record& r) { return r.key; };
  auto hash = [](uint64_t k) { return hash64(k); };
  for (size_t n : {size_t{2'000}, size_t{20'000}, size_t{300'000}}) {
    for (uint64_t keys : {uint64_t{0}, uint64_t{1000}}) {
      distribution_spec spec{distribution_kind::uniform,
                             keys == 0 ? n : keys};
      auto in = generate_records(n, spec, 11 + n);
      std::span<const record> view(in);
      std::string cell = "n=" + std::to_string(n) +
                         " keys=" + std::to_string(spec.parameter);

      expect_operator_invariant<record>(
          cell + " semisort", [&](const semisort_params& params) {
            return semisort(view, key_of, hash, std::equal_to<>{}, params);
          });
      expect_operator_invariant<record>(
          cell + " group_by", [&](const semisort_params& params) {
            auto g = group_by(view, key_of, hash, std::equal_to<>{}, params);
            // Fold the boundaries into the compared bytes.
            for (size_t s : g.group_start) g.records.push_back({s, s});
            return std::move(g.records);
          });
      expect_operator_invariant<record>(
          cell + " group_by_hashed", [&](const semisort_params& params) {
            auto g = group_by_hashed(view, record_key{}, params);
            for (size_t s : g.group_start) g.records.push_back({s, s});
            return std::move(g.records);
          });

      std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
      for (size_t i = 0; i < n; ++i) pairs[i] = {in[i].key, in[i].payload};
      expect_operator_invariant<std::pair<uint64_t, uint64_t>>(
          cell + " collect_reduce", [&](const semisort_params& params) {
            return collect_reduce(
                std::span<const std::pair<uint64_t, uint64_t>>(pairs), hash,
                [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
                std::equal_to<>{}, params);
          });

      // count_by_key over string keys takes the general path (tags plus
      // the real-key comparison), never the dense-integer histogram. The
      // views point into one stable array, so equal bytes mean the same
      // representative at the same position.
      std::vector<std::string> words(n);
      std::vector<std::string_view> word_views(n);
      for (size_t i = 0; i < n; ++i) {
        // push_back/+= rather than "w" + …: GCC 12's -Wrestrict misfires
        words[i].push_back('w');
        words[i] += std::to_string(in[i].key % 5000);
        word_views[i] = words[i];
      }
      expect_operator_invariant<std::pair<std::string_view, size_t>>(
          cell + " count_by_key", [&](const semisort_params& params) {
            return count_by_key(
                std::span<const std::string_view>(word_views),
                [](std::string_view w) { return hash_string(w); },
                std::equal_to<>{}, params);
          });
      expect_operator_invariant<std::pair<uint64_t, uint64_t>>(
          cell + " map_reduce", [&](const semisort_params& params) {
            return map_reduce<record, uint64_t, uint64_t, uint64_t>(
                view,
                [](const record& r, auto emit) {
                  emit(r.key, r.payload);
                  emit(r.key ^ 1, uint64_t{1});
                },
                hash, [](uint64_t acc, const uint64_t& v) { return acc + v; },
                uint64_t{0}, std::equal_to<>{}, params);
          });

      // The join takes at most 20,000 rows, so the 1000-key cells' cross
      // products stay small.
      auto value_of = [](const record& r) { return r.payload; };
      size_t m = std::min<size_t>(n, 20'000);
      std::span<const record> left = view.first(m / 2);
      std::span<const record> right = view.subspan(m / 2, m - m / 2);
      expect_operator_invariant<join_row>(
          cell + " equi_join", [&](const semisort_params& params) {
            return equi_join(left, right, record_key{}, value_of,
                             record_key{}, value_of, params);
          });
      expect_operator_invariant<std::pair<uint64_t, uint64_t>>(
          cell + " group_aggregate", [&](const semisort_params& params) {
            return group_aggregate(
                view, record_key{}, value_of, uint64_t{0},
                [](uint64_t acc, uint64_t v) { return acc * 31 + v; },
                params);
          });
    }
  }
}

}  // namespace
}  // namespace parsemi
