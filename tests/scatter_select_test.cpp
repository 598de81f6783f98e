// Tier-1 tests for the scatter-path selection (core/scatter.h): the default
// is blocked at every shape — asserted directly against choose_scatter_path
// and end-to-end through semisort_stats::scatter_path_used on the input
// shapes an n / bucket-count / record-size heuristic would route elsewhere
// — CAS is selected only by its params pin or by random probing, and the
// per-path telemetry contract holds (probe histogram only on CAS). The
// PARSEMI_SCATTER_PATH override is covered with the other environment
// overrides in plan_test.
#include "core/scatter.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/semisort.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using strategy = semisort_params::scatter_strategy;

TEST(ScatterSelect, DefaultIsBlocked) {
  semisort_params p;
  EXPECT_EQ(p.scatter_with, strategy::blocked);
  EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
}

TEST(ScatterSelect, CasOnlyWhenPinnedOrRandomProbing) {
  semisort_params p;
  p.scatter_with = strategy::cas;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
  // Random probing exists only on the CAS path, so it selects CAS even
  // over a blocked pin.
  p.scatter_with = strategy::blocked;
  p.probing = semisort_params::probe_strategy::random;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
}

// One semisort run with the given strategy; returns stats and verifies the
// output contract so a path mix-up can't hide behind a wrong answer.
semisort_stats run_semisort(const std::vector<record>& in, strategy s) {
  semisort_params params;
  params.scatter_with = s;
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(std::span<const record>(out),
                                      std::span<const record>(in)));
  return stats;
}

TEST(ScatterSelect, DefaultRunsBlockedAtEveryShape) {
  // Small n, few records per bucket, and (below) large records: the
  // default ignores the input's shape.
  for (size_t n : {size_t{4096}, size_t{32767}, size_t{100'000}}) {
    auto in = generate_records(n, {distribution_kind::uniform, n}, 21);
    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    std::vector<record> out(n);
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked) << "n " << n;
    EXPECT_EQ(stats.plan.scatter, scatter_path::blocked) << "n " << n;
    EXPECT_TRUE(testing::valid_semisort(std::span<const record>(out),
                                        std::span<const record>(in)));
  }
  // Large records.
  auto base = generate_records(65'536, {distribution_kind::uniform, 65'536},
                               22);
  std::vector<testing::wide_record> in = testing::widen(base);
  std::vector<testing::wide_record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const testing::wide_record>(in),
                  std::span<testing::wide_record>(out), testing::wide_key{},
                  params);
  EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);
  EXPECT_TRUE(testing::is_semisorted(
      std::span<const testing::wide_record>(out), testing::wide_key{}));
}

TEST(ScatterSelect, TelemetryIsPathConditional) {
  auto in = generate_records(150'000, {distribution_kind::zipfian, 50'000}, 23);

  // CAS: probe histogram populated, one entry per record.
  semisort_stats cas = run_semisort(in, strategy::cas);
  EXPECT_EQ(cas.scatter_path_used, scatter_path::cas);
  size_t probed = 0;
  for (size_t b : cas.probe_hist) probed += b;
  EXPECT_EQ(probed, cas.n);

  // Blocked: no probes.
  semisort_stats blocked = run_semisort(in, strategy::blocked);
  EXPECT_EQ(blocked.scatter_path_used, scatter_path::blocked);
  for (size_t b : blocked.probe_hist) EXPECT_EQ(b, 0u);
  EXPECT_EQ(blocked.max_probe, 0u);
}

}  // namespace
}  // namespace parsemi
