// Ablations over the §4 parameter choices: sampling probability p, heavy
// threshold δ, number of hash ranges, and the adjacent-light-bucket merging
// optimization, on the default exact-offset path. Counters report the heavy
// share plus slots per record and restarts, which stay 1.0 and 0 there (they
// move only on the CAS ablation, PARSEMI_SCATTER_PATH=cas).
#include <benchmark/benchmark.h>

#include "core/semisort.h"
#include "workloads/distributions.h"

namespace {

using namespace parsemi;

constexpr size_t kN = 2000000;

const std::vector<record>& input_mixed() {
  static auto in =
      generate_records(kN, {distribution_kind::exponential, kN / 1000}, 42);
  return in;
}

const std::vector<record>& input_uniform() {
  static auto in = generate_records(kN, {distribution_kind::uniform, kN}, 42);
  return in;
}

void run_semisort(benchmark::State& state, const std::vector<record>& in,
                  semisort_params params) {
  std::vector<record> out(in.size());
  semisort_stats stats;
  params.stats = &stats;
  for (auto _ : state) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(in.size()) * state.iterations());
  state.counters["slots/rec"] = stats.slots_per_record();
  state.counters["restarts"] = stats.restarts;
  state.counters["heavy%"] = 100.0 * stats.heavy_fraction();
}

void BM_SamplingP(benchmark::State& state) {
  semisort_params params;
  params.sampling_p = 1.0 / static_cast<double>(state.range(0));
  run_semisort(state, input_mixed(), params);
}
BENCHMARK(BM_SamplingP)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_Delta(benchmark::State& state) {
  semisort_params params;
  params.delta = static_cast<size_t>(state.range(0));
  run_semisort(state, input_mixed(), params);
}
BENCHMARK(BM_Delta)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_HashRanges(benchmark::State& state) {
  semisort_params params;
  params.num_hash_ranges = 1ull << state.range(0);
  run_semisort(state, input_uniform(), params);
}
BENCHMARK(BM_HashRanges)->Arg(8)->Arg(12)->Arg(16)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MergeLightBuckets(benchmark::State& state) {
  semisort_params params;
  params.merge_light_buckets = state.range(0) != 0;
  run_semisort(state, input_uniform(), params);
}
BENCHMARK(BM_MergeLightBuckets)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Pow2Rounding(benchmark::State& state) {
  semisort_params params;
  params.round_to_pow2 = state.range(0) != 0;
  run_semisort(state, input_mixed(), params);
}
BENCHMARK(BM_Pow2Rounding)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_LocalSortAlgo(benchmark::State& state) {
  semisort_params params;
  params.local_sort = state.range(0) == 0
                          ? semisort_params::local_sort_algo::std_sort
                          : semisort_params::local_sort_algo::counting_by_naming;
  run_semisort(state, input_uniform(), params);
}
BENCHMARK(BM_LocalSortAlgo)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ContextReuse(benchmark::State& state) {
  // range(0): 0 = fresh allocation per call, 1 = reused pipeline_context
  // (warm arena, zero heap allocations in steady state).
  semisort_params params;
  pipeline_context ctx;
  if (state.range(0) != 0) params.context = &ctx;
  run_semisort(state, input_mixed(), params);
}
BENCHMARK(BM_ContextReuse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
