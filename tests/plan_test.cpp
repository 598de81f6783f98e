// The plan layer's contracts (core/exec_plan.h, core/planner.h,
// core/executor.h):
//
//   * determinism — the same (input, params, seed) plans to byte-identical
//     serialize() output, including the sharded layout;
//   * the single-probe contract — a plan never pays more than one probe
//     pass, and a pinned-general plan pays none;
//   * reuse — a cached plan executes with zero probe passes and produces
//     an equivalent grouping via the same paths;
//   * binding — a plan is rejected (std::invalid_argument) for a call with
//     a different n or different planning-relevant params;
//   * overrides — forced scatter/dispatch strategies land in the plan
//     verbatim and the execution follows them, on the sharded route too;
//     the PARSEMI_SCATTER_PATH / PARSEMI_DISPATCH_PATH /
//     PARSEMI_SHARD_OVERLAP environment overrides beat params, and unknown
//     or retired values fall through to params.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exec_plan.h"
#include "core/semisort.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

constexpr size_t kN = 120000;

std::vector<record> hashed_input(uint64_t seed = 42) {
  return generate_records(kN, {distribution_kind::exponential, 1000}, seed);
}

TEST(PlanTest, SerializationIsDeterministic) {
  auto in = hashed_input();
  semisort_params params;
  semisort_plan a = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  semisort_plan b = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_FALSE(a.serialize().empty());
  EXPECT_NE(a.serialize().find("semisort_plan v1"), std::string::npos);
}

TEST(PlanTest, ShardedSerializationIsDeterministic) {
  auto in = hashed_input(7);
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;  // far below the footprint
  semisort_plan a = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  semisort_plan b = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  ASSERT_TRUE(a.sharded);
  EXPECT_GE(a.num_shards(), 2u);
  EXPECT_EQ(a.serialize(), b.serialize());
  // The shard layout is part of the serialized form.
  EXPECT_NE(a.serialize().find("shard_bounds ["), std::string::npos);
}

TEST(PlanTest, AtMostOneProbePass) {
  auto in = hashed_input();
  semisort_params params;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  EXPECT_LE(plan.probe_passes, 1u);
  // Hashed 64-bit keys: the adaptive strategy probes once and rejects.
  EXPECT_EQ(plan.probe_passes, 1u);
  EXPECT_FALSE(plan.domain_dense);
  EXPECT_EQ(plan.dispatch, dispatch_path::general);
  EXPECT_EQ(plan.scatter, scatter_path::blocked);
}

TEST(PlanTest, PinnedGeneralPlansWithoutProbing) {
  auto in = hashed_input();
  semisort_params params;
  params.dispatch_with = semisort_params::dispatch_strategy::general;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  EXPECT_EQ(plan.probe_passes, 0u);
  EXPECT_EQ(plan.probe_records, 0u);
  EXPECT_EQ(plan.dispatch, dispatch_path::general);
}

TEST(PlanTest, ShardedRoutePaysOnlyTheShardSample) {
  auto in = hashed_input();
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  ASSERT_TRUE(plan.sharded);
  EXPECT_EQ(plan.probe_passes, 1u);
  // The key-domain probe is skipped on this route; the probe accounting
  // reflects the strided shard sample only.
  EXPECT_FALSE(plan.domain_dense);
  EXPECT_LE(plan.probe_records, size_t{1} << 16);
  // The adaptive overlap default turns on whenever >= 2 shards spill.
  EXPECT_TRUE(plan.overlap_io);
}

TEST(PlanTest, DenseRawKeysPlanTheCountingPath) {
  auto raw = generate_records_raw(kN, {distribution_kind::uniform, 50000}, 5);
  semisort_params params;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(raw),
                                            record_key{}, params);
  EXPECT_EQ(plan.probe_passes, 1u);
  EXPECT_EQ(plan.probe_records, kN);  // full-input probe on acceptance
  ASSERT_TRUE(plan.domain_dense);
  EXPECT_EQ(plan.dispatch, dispatch_path::counting);
  EXPECT_EQ(plan.counting_passes, 1u);  // width 50000 fits the one-pass tier
  EXPECT_LE(plan.domain_width, 50000u);
}

TEST(PlanTest, ForcedScatterPathLandsInThePlan) {
  auto in = hashed_input();
  for (auto [strategy, path] :
       {std::pair{semisort_params::scatter_strategy::blocked,
                  scatter_path::blocked},
        std::pair{semisort_params::scatter_strategy::cas,
                  scatter_path::cas}}) {
    semisort_params params;
    params.scatter_with = strategy;
    semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                              record_key{}, params);
    EXPECT_EQ(plan.scatter, path);
    // The execution follows the pinned path.
    std::vector<record> out(kN);
    semisort_stats stats;
    params.stats = &stats;
    params.plan = &plan;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_EQ(stats.scatter_path_used, path);
    EXPECT_TRUE(testing::valid_semisort(out, in));
  }
}

TEST(PlanTest, ShardedPlanNamesTheScatterPathTheShardsRun) {
  // The sharded route skips plan_in_memory, yet every shard runs the same
  // params-only scatter choice — the top-level plan must say which.
  auto in = hashed_input(13);
  for (auto [strategy, path] :
       {std::pair{semisort_params::scatter_strategy::blocked,
                  scatter_path::blocked},
        std::pair{semisort_params::scatter_strategy::cas,
                  scatter_path::cas}}) {
    semisort_params params;
    params.scatter_with = strategy;
    params.memory_budget_bytes = 512 << 10;
    semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                              record_key{}, params);
    ASSERT_TRUE(plan.sharded);
    EXPECT_EQ(plan.scatter, path);
    std::vector<record> out(kN);
    semisort_stats stats;
    params.stats = &stats;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    ASSERT_GE(stats.shards, 2u);
    EXPECT_EQ(stats.scatter_path_used, path);
    EXPECT_EQ(stats.plan.scatter, stats.scatter_path_used);
    EXPECT_TRUE(testing::valid_semisort(out, in));
  }
}

TEST(PlanTest, ReuseSkipsProbesAndExecutesTheSamePaths) {
  auto in = hashed_input();
  std::vector<record> out_fresh(kN), out_reused(kN);

  semisort_stats fresh_stats;
  semisort_params params;
  params.stats = &fresh_stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out_fresh),
                  record_key{}, params);
  EXPECT_FALSE(fresh_stats.plan.reused);
  EXPECT_EQ(fresh_stats.plan.probe_passes, 1u);

  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{});
  semisort_stats reused_stats;
  semisort_params reuse_params;
  reuse_params.stats = &reused_stats;
  reuse_params.plan = &plan;
  semisort_hashed(std::span<const record>(in), std::span<record>(out_reused),
                  record_key{}, reuse_params);
  EXPECT_TRUE(reused_stats.plan.reused);
  EXPECT_EQ(reused_stats.plan.probe_passes, 0u);
  EXPECT_EQ(reused_stats.plan.probe_records, 0u);

  // Equivalent execution: same paths, both valid groupings of the input.
  EXPECT_EQ(fresh_stats.scatter_path_used, reused_stats.scatter_path_used);
  EXPECT_EQ(fresh_stats.dispatch_path_used, reused_stats.dispatch_path_used);
  EXPECT_TRUE(testing::valid_semisort(out_fresh, in));
  EXPECT_TRUE(testing::valid_semisort(out_reused, in));
}

TEST(PlanTest, ReusedShardedPlanExecutes) {
  auto in = hashed_input(11);
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  ASSERT_TRUE(plan.sharded);
  ASSERT_GE(plan.num_shards(), 2u);

  std::vector<record> out(kN);
  semisort_stats stats;
  params.stats = &stats;
  params.plan = &plan;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(stats.plan.reused);
  EXPECT_EQ(stats.plan.probe_passes, 0u);
  EXPECT_EQ(stats.shards, plan.num_shards());
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(PlanTest, MismatchedBindingThrows) {
  auto in = hashed_input();
  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{});
  std::vector<record> out(kN - 1);
  semisort_params params;
  params.plan = &plan;
  // Different n than the plan was built for.
  EXPECT_THROW(
      semisort_hashed(std::span<const record>(in).subspan(0, kN - 1),
                      std::span<record>(out), record_key{}, params),
      std::invalid_argument);
}

TEST(PlanTest, MismatchedParamsFingerprintThrows) {
  auto in = hashed_input();
  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{});
  std::vector<record> out(kN);
  semisort_params params;
  params.seed = 999;  // planning-relevant: a serialized plan pins one run
  params.plan = &plan;
  EXPECT_THROW(semisort_hashed(std::span<const record>(in),
                               std::span<record>(out), record_key{}, params),
               std::invalid_argument);
}

TEST(PlanTest, PlanSummaryReachesStatsOnEveryRoute) {
  // Unsharded fresh call: the stats' nested plan{} mirrors the decision.
  auto in = hashed_input();
  std::vector<record> out(kN);
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.plan.dispatch, dispatch_path::general);
  EXPECT_EQ(stats.plan.scatter, stats.scatter_path_used);
  EXPECT_EQ(stats.plan.shards, 1u);
  EXPECT_EQ(stats.plan.pool_workers, num_workers());

  // Sharded call: plan{} survives the driver's stats aggregation.
  params.memory_budget_bytes = 512 << 10;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_GE(stats.plan.shards, 2u);
  EXPECT_EQ(stats.plan.shards, stats.shards);
  EXPECT_EQ(stats.plan.probe_passes, 1u);
}

// --- environment overrides ---------------------------------------------
//
// One table-driven resolver (util/env.h) serves all three overrides. Each
// case plans with params pinned away from the default and the variable
// set (nullptr = unset), then reads the decision back from the plan.

struct env_case {
  const char* var;
  const char* value;
  const char* planned;  // the decision the plan must record
};

// RAII environment override: the variables are process-global, so the
// unset state is restored even on failure.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (value != nullptr) ::setenv(name, value, 1);
  }
  ~scoped_env() { ::unsetenv(name_); }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

 private:
  const char* name_;
};

std::string planned_decision(const std::string& var) {
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.dispatch_with = semisort_params::dispatch_strategy::general;
  params.shard_overlap = semisort_params::overlap_strategy::off;
  if (var == "PARSEMI_SCATTER_PATH") {
    auto in = hashed_input();
    return to_string(
        plan_semisort_hashed(std::span<const record>(in), record_key{}, params)
            .scatter);
  }
  if (var == "PARSEMI_DISPATCH_PATH") {
    auto raw =
        generate_records_raw(kN, {distribution_kind::uniform, 50000}, 5);
    return to_string(
        plan_semisort_hashed(std::span<const record>(raw), record_key{},
                             params)
            .dispatch);
  }
  auto in = hashed_input();
  params.memory_budget_bytes = 512 << 10;  // >= 2 spilled shards
  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{}, params);
  return plan.overlap_io ? "on" : "off";
}

class EnvOverride : public ::testing::TestWithParam<env_case> {};

TEST_P(EnvOverride, BeatsParamsAndUnknownValuesFallThrough) {
  const env_case& c = GetParam();
  scoped_env env(c.var, c.value);
  EXPECT_EQ(planned_decision(c.var), c.planned)
      << c.var << "=" << (c.value != nullptr ? c.value : "(unset)");
}

// Params are pinned to cas / general / off: an override that wins shows up
// as blocked / on; one that falls through leaves the pin. The dispatch
// override's one value (general) equals its pin, so its win is asserted
// separately below.
constexpr env_case kEnvCases[] = {
    {"PARSEMI_SCATTER_PATH", nullptr, "cas"},
    {"PARSEMI_SCATTER_PATH", "blocked", "blocked"},
    {"PARSEMI_SCATTER_PATH", "buffered", "cas"},  // retired value
    {"PARSEMI_SCATTER_PATH", "adaptive", "cas"},
    {"PARSEMI_SCATTER_PATH", "warp-drive", "cas"},
    {"PARSEMI_DISPATCH_PATH", nullptr, "general"},
    {"PARSEMI_DISPATCH_PATH", "counting", "general"},  // retired value
    {"PARSEMI_DISPATCH_PATH", "unstable", "general"},  // retired value
    {"PARSEMI_DISPATCH_PATH", "adaptive", "general"},
    {"PARSEMI_DISPATCH_PATH", "warp-drive", "general"},
    {"PARSEMI_SHARD_OVERLAP", nullptr, "off"},
    {"PARSEMI_SHARD_OVERLAP", "on", "off"},  // retired value
    {"PARSEMI_SHARD_OVERLAP", "adaptive", "on"},
    {"PARSEMI_SHARD_OVERLAP", "warp-drive", "off"},
};

INSTANTIATE_TEST_SUITE_P(
    Vars, EnvOverride, ::testing::ValuesIn(kEnvCases),
    [](const ::testing::TestParamInfo<env_case>& test_info) {
      std::string name = std::string(test_info.param.var).substr(8) + "_" +
                         (test_info.param.value != nullptr ? test_info.param.value
                                                      : "unset");
      for (char& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(EnvOverrideDispatch, GeneralBeatsAdaptiveParams) {
  auto raw = generate_records_raw(kN, {distribution_kind::uniform, 50000}, 5);
  semisort_params params;  // adaptive: the dense raw keys plan to counting
  EXPECT_EQ(plan_semisort_hashed(std::span<const record>(raw), record_key{},
                                 params)
                .dispatch,
            dispatch_path::counting);
  scoped_env env("PARSEMI_DISPATCH_PATH", "general");
  EXPECT_EQ(plan_semisort_hashed(std::span<const record>(raw), record_key{},
                                 params)
                .dispatch,
            dispatch_path::general);
}

}  // namespace
}  // namespace parsemi
