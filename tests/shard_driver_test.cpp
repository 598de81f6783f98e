// Tier-1 tests for the out-of-core shard driver (shard/shard_driver.h):
// budget routing (param > env > unlimited), output equivalence with the
// in-memory pipeline, spill vs no-spill destinations, the shard telemetry
// contract, and the driver's use of the caller's pipeline_context.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "core/sequential.h"
#include "hashing/hash64.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Sharded and unsharded runs must produce the same groups with the same
// sizes — NOT byte-identical output: the engine packs heavy buckets first
// within each run, so group order (and within-group order) legitimately
// differs between one global run and per-shard runs. This is the same
// equivalence standard the differential suite holds the pipeline itself to.
void expect_equivalent(std::span<const record> got,
                       std::span<const record> in) {
  ASSERT_TRUE(testing::records_semisorted(got));
  ASSERT_TRUE(testing::records_permutation(got, in));
}

// A budget of (fixed scratch floor + variable footprint / divisor): tight
// enough to shard, generous enough that each shard runs the real parallel
// engine (budgets below the fixed floor degrade to per-bin micro-shards
// that the sequential cutoff handles without touching scratch).
size_t budget_above_floor(size_t n, size_t divisor) {
  scratch_model model;
  size_t variable =
      model.footprint_bytes(n, sizeof(record)) - model.fixed_bytes;
  return model.fixed_bytes + variable / divisor;
}

TEST(ShardDriver, BudgetedCopyMatchesUnsharded) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 1);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_above_floor(in.size(), 6);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
  // Separate output storage: the partition reused `out`, nothing spilled.
  EXPECT_EQ(stats.spilled_bytes, 0u);
  EXPECT_GT(stats.shard_peak_scratch_bytes, 0u);
  EXPECT_EQ(stats.n, in.size());
}

TEST(ShardDriver, AllDistributionClassesStayCorrect) {
  for (auto spec :
       {distribution_spec{distribution_kind::uniform, 1u << 24},
        distribution_spec{distribution_kind::exponential, 300},
        distribution_spec{distribution_kind::zipfian, 20000}}) {
    auto in = generate_records(120000, spec, 7);
    std::vector<record> out(in.size());
    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    params.memory_budget_bytes = budget_above_floor(in.size(), 5);
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    expect_equivalent(out, in);
    EXPECT_GT(stats.shards, 1u) << spec.name();
  }
}

TEST(ShardDriver, GroupSizesMatchTheSequentialReference) {
  auto in = generate_records(100000, {distribution_kind::zipfian, 3000}, 3);
  std::vector<record> out(in.size());
  semisort_params params;
  params.memory_budget_bytes = budget_above_floor(in.size(), 4);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  auto reference = semisort_seq_chained(std::span<const record>(in));
  auto got = testing::key_counts(std::span<const record>(out), record_key{});
  auto want =
      testing::key_counts(std::span<const record>(reference), record_key{});
  ASSERT_EQ(got.size(), want.size());
  for (auto& [k, cnt] : want) EXPECT_EQ(got.at(k), cnt) << k;
}

TEST(ShardDriver, UnbudgetedCallReportsOneShard) {
  auto in = generate_records(50000, {distribution_kind::uniform, 1u << 20}, 4);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
}

TEST(ShardDriver, GenerousBudgetStaysInMemory) {
  auto in = generate_records(50000, {distribution_kind::uniform, 1u << 20}, 5);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = size_t{64} << 30;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, EnvBudgetAppliesWhenParamUnset) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 6);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  setenv("PARSEMI_MEMORY_BUDGET", "384K", 1);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  unsetenv("PARSEMI_MEMORY_BUDGET");
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
}

TEST(ShardDriver, ExplicitUnlimitedOverridesEnv) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 8);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = SIZE_MAX;  // the shard driver's inner pin
  setenv("PARSEMI_MEMORY_BUDGET", "384K", 1);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  unsetenv("PARSEMI_MEMORY_BUDGET");
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, SingleDominantKeyFallsBackInMemory) {
  // One key everywhere → one prefix bin → the plan cannot split; the call
  // must complete correctly in memory rather than loop or throw.
  std::vector<record> in(80000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(9), i};
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes =
      scratch_model{}.footprint_bytes(in.size(), sizeof(record)) / 8;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, VectorOverloadSpillsUnderBudget) {
  // The vector-returning overload runs in-place over its copy — under a
  // budget that is the spill path.
  auto in = generate_records(150000, {distribution_kind::exponential, 400}, 9);
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_above_floor(in.size(), 6);
  auto out = semisort_hashed(std::span<const record>(in), record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.spilled_bytes, in.size() * sizeof(record));
}

TEST(ShardDriver, TimingsCoverDriverPhases) {
  auto in = generate_records(120000, {distribution_kind::uniform, 1u << 24}, 10);
  std::vector<record> out(in.size());
  phase_timer pt;
  semisort_params params;
  params.timings = &pt;
  params.memory_budget_bytes =
      scratch_model{}.footprint_bytes(in.size(), sizeof(record)) / 6;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  std::vector<std::string> names;
  for (auto& [name, _] : pt.phases()) names.push_back(name);
  EXPECT_NE(std::find(names.begin(), names.end(), "shard plan"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "partition"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute shards"),
            names.end());
}

// The sharded route runs on the caller's context, so its stats describe
// that one arena: the capacity counted once, and the peak as the call's
// high water — the partition starts plus the largest shard frame.
TEST(ShardDriver, StatsReportTheContextArenaOnce) {
  auto in = generate_records(200000, {distribution_kind::exponential, 400}, 12);
  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  params.memory_budget_bytes = budget_above_floor(in.size(), 6);
  for (int round = 0; round < 2; ++round) {
    std::vector<record> data(in);
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    expect_equivalent(data, in);
    ASSERT_GT(stats.shards, 1u);
    EXPECT_EQ(stats.scratch_capacity_bytes, ctx.scratch.capacity_bytes());
    EXPECT_EQ(stats.peak_scratch_bytes, ctx.scratch.high_water_bytes());
    // Every shard frame sits on top of the partition starts, and the
    // partition's count matrix is far smaller than a shard frame.
    EXPECT_GT(stats.shard_peak_scratch_bytes,
              (stats.shards + 1) * sizeof(size_t));
    EXPECT_EQ(stats.peak_scratch_bytes, stats.shard_peak_scratch_bytes);
    EXPECT_LE(stats.peak_scratch_bytes, stats.scratch_capacity_bytes);
    // The driver's frame is rewound and the context is back at depth 0.
    EXPECT_EQ(ctx.scratch.live_bytes(), 0u);
    EXPECT_EQ(ctx.depth, 0);
  }
}

// One context serves budgeted in-place calls of three sizes: the smaller
// call reuses the spill run, the larger one replaces it. Every output is
// byte-identical to the same call on no context, and groups like the
// unbudgeted call.
template <typename Record, typename GetKey>
void expect_context_reuse_across_shapes(
    GetKey get_key, std::vector<Record> (*make)(size_t n)) {
  pipeline_context ctx;
  const std::byte* run = nullptr;
  size_t run_bytes = 0;
  for (size_t n : {size_t{200'000}, size_t{50'000}, size_t{400'000}}) {
    std::vector<Record> in = make(n);
    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    params.memory_budget_bytes =
        scratch_model{}.footprint_bytes(n, sizeof(Record)) / 6;
    std::vector<Record> cold(in);
    semisort_hashed_inplace(std::span<Record>(cold), get_key, params);
    params.context = &ctx;
    std::vector<Record> warm(in);
    semisort_hashed_inplace(std::span<Record>(warm), get_key, params);
    ASSERT_GT(stats.shards, 1u) << "n " << n;
    EXPECT_EQ(stats.spilled_bytes, n * sizeof(Record));
    EXPECT_TRUE(std::equal(warm.begin(), warm.end(), cold.begin(),
                           [&](const Record& a, const Record& b) {
                             return std::memcmp(&a, &b, sizeof(Record)) == 0;
                           }))
        << "n " << n;

    std::vector<Record> unbudgeted(in);
    semisort_hashed_inplace(std::span<Record>(unbudgeted), get_key);
    EXPECT_TRUE(testing::is_semisorted(std::span<const Record>(warm), get_key));
    EXPECT_EQ(testing::key_counts(std::span<const Record>(warm), get_key),
              testing::key_counts(std::span<const Record>(unbudgeted), get_key));

    if (n < run_bytes / sizeof(Record)) {
      // A smaller call writes into the run it found.
      EXPECT_EQ(ctx.spill.data(), run);
      EXPECT_EQ(ctx.spill.size(), run_bytes);
    } else {
      EXPECT_EQ(ctx.spill.size(), n * sizeof(Record));
    }
    run = ctx.spill.data();
    run_bytes = ctx.spill.size();
  }
}

TEST(ShardDriver, OneContextServesInPlaceCallsOfEveryShape) {
  expect_context_reuse_across_shapes<record>(record_key{}, [](size_t n) {
    return generate_records(n, {distribution_kind::exponential, 400}, n);
  });
  expect_context_reuse_across_shapes<testing::wide_record>(
      testing::wide_key{}, [](size_t n) {
        return testing::widen(
            generate_records(n, {distribution_kind::zipfian, 5000}, n));
      });
}

// A derived operator under a sharding budget: the tag spine enters the
// shard driver at context depth 1, on the operator's own context.
TEST(ShardDriver, CollectReduceUnderBudgetOnASharedContext) {
  const size_t n = 200'000;
  auto recs = generate_records(n, {distribution_kind::zipfian, 20'000}, 13);
  std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
  for (size_t i = 0; i < n; ++i) pairs[i] = {recs[i].key, recs[i].payload};
  std::span<const std::pair<uint64_t, uint64_t>> view(pairs);
  auto hash = [](uint64_t k) { return hash64(k); };
  auto sum = [](uint64_t a, uint64_t b) { return a + b; };

  auto want = collect_reduce(view, hash, sum, uint64_t{0});
  std::sort(want.begin(), want.end());

  pipeline_context ctx;
  std::vector<record> data(recs);
  semisort_params params;
  params.context = &ctx;
  params.memory_budget_bytes = budget_above_floor(n, 6);
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  expect_equivalent(data, recs);

  // The operator's 16-byte tags shard under the same kind of budget.
  params.memory_budget_bytes =
      scratch_model{}.footprint_bytes(n, 16) / 6;
  semisort_stats stats;
  params.stats = &stats;
  for (int round = 0; round < 2; ++round) {
    auto got = collect_reduce(view, hash, sum, uint64_t{0}, std::equal_to<>{},
                              params);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_GT(stats.shards, 1u);
    EXPECT_EQ(ctx.scratch.live_bytes(), 0u);
    EXPECT_EQ(ctx.depth, 0);
  }
}

}  // namespace
}  // namespace parsemi
