// Stress for the out-of-core shard driver: budgets swept from "everything
// spills in tiny shards" to "one shard" across all 17 Table-1 distributions
// (downscaled), copy / in-place / vector entry points, worker counts, and
// perturbed schedules. The property is equivalence with the unsharded
// pipeline: same multiset, groups contiguous, same group-size histogram.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "proptest.h"
#include "scheduler/sched_fuzz.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

struct shard_config {
  size_t n = 10000;
  size_t dist = 0;       // index into table1_distributions()
  int budget_step = 0;   // 0 = footprint/64 (max sharding) … 6 = ×budget ≥ fit
  int entry = 0;         // 0 = copy, 1 = in-place, 2 = vector overload
  int workers = 0;
  uint64_t fuzz_seed = 0;
  uint64_t data_seed = 1;
};

// Budget ladder: footprint >> budget at step 0 (every shard spills), budget
// past the footprint at the top step (the driver must decline to shard).
size_t budget_for(const shard_config& c) {
  size_t footprint =
      scratch_model{}.footprint_bytes(c.n, sizeof(record));
  size_t divisor = size_t{64} >> std::min(c.budget_step, 6);  // 64 … 1
  return divisor == 1 ? footprint * 2 : footprint / divisor;
}

shard_config generate(rng& r) {
  shard_config c;
  c.n = proptest::log_uniform_u64(r, 2000, 120000);
  c.dist = r.next_below(table1_distributions().size());
  c.budget_step = static_cast<int>(r.next_below(7));
  c.entry = static_cast<int>(r.next_below(3));
  c.workers = static_cast<int>(proptest::pick(r, {0, 0, 1, 2, 4}));
  c.fuzz_seed =
      sched_fuzz::kCompiledIn && proptest::chance(r, 0.4) ? r.next() | 1 : 0;
  c.data_seed = r.next();
  return c;
}

std::string describe(const shard_config& c) {
  auto spec = scaled_to(table1_distributions()[c.dist], c.n);
  std::ostringstream os;
  os << spec.name() << "(" << spec.parameter << ") n=" << c.n
     << " budget_step=" << c.budget_step << " budget=" << budget_for(c)
     << " entry=" << c.entry << " workers=" << c.workers
     << " fuzz=" << c.fuzz_seed << " data=" << c.data_seed;
  return os.str();
}

std::vector<shard_config> shrink(const shard_config& c) {
  std::vector<shard_config> out;
  auto with = [&](auto mutate) {
    shard_config d = c;
    mutate(d);
    out.push_back(d);
  };
  if (c.fuzz_seed != 0) with([](shard_config& d) { d.fuzz_seed = 0; });
  if (c.workers != 1) with([](shard_config& d) { d.workers = 1; });
  if (c.entry != 0) with([](shard_config& d) { d.entry = 0; });
  for (uint64_t nn : proptest::shrink_toward(c.n, 2000)) {
    with([nn](shard_config& d) { d.n = nn; });
  }
  // Toward the ends of the ladder: a mid-ladder failure usually simplifies
  // to either max sharding or the no-shard boundary.
  if (c.budget_step != 0) with([](shard_config& d) { d.budget_step = 0; });
  if (c.dist != 0) with([](shard_config& d) { d.dist = 0; });
  return out;
}

std::optional<std::string> sharded_equals_unsharded(const shard_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.fuzz_seed);
  auto spec = scaled_to(table1_distributions()[c.dist], c.n);
  auto in = generate_records(c.n, spec, c.data_seed);

  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_for(c);

  std::vector<record> got;
  switch (c.entry) {
    case 0: {
      got.resize(in.size());
      semisort_hashed(std::span<const record>(in), std::span<record>(got),
                      record_key{}, params);
      break;
    }
    case 1: {
      got = in;
      semisort_hashed_inplace(std::span<record>(got), record_key{}, params);
      break;
    }
    default:
      got = semisort_hashed(std::span<const record>(in), record_key{}, params);
      break;
  }

  if (stats.shards == 0) return "stats.shards never set";
  if (c.budget_step == 6 && stats.shards != 1) {
    return "budget above footprint still sharded";
  }
  if (!testing::records_semisorted(got)) return "output not semisorted";
  if (!testing::records_permutation(got, in)) {
    return "output is not a permutation of the input";
  }

  // Same group-size histogram as the unsharded run of the same input.
  semisort_params unsharded;
  unsharded.memory_budget_bytes = SIZE_MAX;
  auto want_out =
      semisort_hashed(std::span<const record>(in), record_key{}, unsharded);
  auto gotc = testing::key_counts(std::span<const record>(got), record_key{});
  auto wantc =
      testing::key_counts(std::span<const record>(want_out), record_key{});
  if (gotc.size() != wantc.size()) return "distinct key count mismatch";
  for (auto& [k, cnt] : wantc) {
    auto it = gotc.find(k);
    if (it == gotc.end() || it->second != cnt) {
      return "group size mismatch vs unsharded";
    }
  }
  // Spill accounting: the in-place and vector entries must spill whenever
  // the driver actually sharded; the copy entry never spills.
  if (stats.shards > 1) {
    bool expect_spill = c.entry != 0;
    if (expect_spill && stats.spilled_bytes != in.size() * sizeof(record)) {
      return "in-place sharded run did not account its spill";
    }
    if (!expect_spill && stats.spilled_bytes != 0) {
      return "copy run spilled but had free output storage";
    }
  }
  return std::nullopt;
}

TEST(ShardDriverStress, BudgetLadderAcrossAllDistributions) {
  proptest::options opt;
  opt.trials = 40;
  opt.seed = 0x5AA05AA0ULL;
  proptest::check<shard_config>(generate, sharded_equals_unsharded, shrink,
                                describe, opt);
}

// Every Table-1 distribution, pinned tiny budget: a deterministic sweep so
// a distribution-specific regression names itself without proptest search.
TEST(ShardDriverStress, EveryTable1DistributionUnderTinyBudget) {
  auto dists = table1_distributions();
  for (size_t d = 0; d < dists.size(); ++d) {
    shard_config c;
    c.n = 40000;
    c.dist = d;
    c.budget_step = 1;  // footprint / 32
    c.entry = static_cast<int>(d % 3);
    c.data_seed = 0xD15 + d;
    auto failure = sharded_equals_unsharded(c);
    EXPECT_FALSE(failure.has_value()) << describe(c) << ": " << *failure;
  }
}

// Overlapped spill I/O under perturbed schedules: with the default overlap
// strategy (on whenever ≥ 2 shards spill), the in-place entry (every shard round-trips through the spill
// files) must stay equivalent to the unsharded run while the driver
// prefetches shard k+1 on the I/O pool during shard k's compute. The
// telemetry pins the overlap down: the plan records the decision and at
// least one prefetch actually ran (bounded by shards − 1 — the first
// shard's read is always synchronous).
TEST(ShardDriverStress, OverlappedSpillUnderSchedFuzz) {
  const uint64_t kFuzzSeeds[] = {0, 0xF00D1ULL, 0xBEEF3ULL, 0x97531ULL};
  for (uint64_t fs : kFuzzSeeds) {
    if (fs != 0 && !sched_fuzz::kCompiledIn) continue;
    sched_fuzz::scoped_enable fuzz(fs);

    size_t n = 60000;
    auto spec = scaled_to(table1_distributions()[0], n);
    auto in = generate_records(n, spec, 0xA11CE + fs);

    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    params.memory_budget_bytes =
        scratch_model{}.footprint_bytes(n, sizeof(record)) / 32;

    std::vector<record> got = in;
    semisort_hashed_inplace(std::span<record>(got), record_key{}, params);

    ASSERT_GE(stats.shards, 2u) << "fuzz=" << fs << ": tiny budget must shard";
    EXPECT_TRUE(stats.plan.overlap_io) << "fuzz=" << fs;
    EXPECT_GE(stats.overlapped_prefetches, 1u) << "fuzz=" << fs;
    EXPECT_LE(stats.overlapped_prefetches, stats.shards - 1) << "fuzz=" << fs;
    EXPECT_EQ(stats.spilled_bytes, n * sizeof(record)) << "fuzz=" << fs;
    EXPECT_TRUE(testing::records_semisorted(got)) << "fuzz=" << fs;
    EXPECT_TRUE(testing::records_permutation(got, in)) << "fuzz=" << fs;
  }
}

}  // namespace
}  // namespace parsemi
