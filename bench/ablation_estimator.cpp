// Ablation: the §3.1 Chernoff estimator f(s) versus a naive s/p scaling of
// the sample counts. Shrinking c toward 0 collapses f(s) to s/p; the
// counters expose the resulting trade-off — less memory allocated, but
// bucket overflows appear and force Las-Vegas restarts. Capacities only
// exist on the paper's CAS scatter (the default exact-offset path sizes
// buckets from exact counts), so both benches pin it.
#include <benchmark/benchmark.h>

#include "core/semisort.h"
#include "workloads/distributions.h"

namespace {

using namespace parsemi;

constexpr size_t kN = 2000000;

void BM_EstimatorC(benchmark::State& state) {
  auto in = generate_records(kN, {distribution_kind::uniform, kN}, 42);
  semisort_params params;
  // range(0) holds c scaled by 100: 0.01, 0.25, 1.25 (paper), 5.0.
  params.c = static_cast<double>(state.range(0)) / 100.0;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.max_retries = 16;
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(in.size());
  for (auto _ : state) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kN) * state.iterations());
  state.counters["slots/rec"] = stats.slots_per_record();
  state.counters["restarts"] = stats.restarts;
}
BENCHMARK(BM_EstimatorC)->Arg(1)->Arg(25)->Arg(125)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_EstimatorAlpha(benchmark::State& state) {
  auto in = generate_records(kN, {distribution_kind::exponential, kN / 1000}, 42);
  semisort_params params;
  params.alpha = static_cast<double>(state.range(0)) / 100.0;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.max_retries = 16;
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(in.size());
  for (auto _ : state) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kN) * state.iterations());
  state.counters["slots/rec"] = stats.slots_per_record();
  state.counters["restarts"] = stats.restarts;
}
BENCHMARK(BM_EstimatorAlpha)->Arg(101)->Arg(110)->Arg(150)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
