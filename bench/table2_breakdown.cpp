// Table 2 (and the left half of Figure 3): per-phase breakdown of the
// semisort, sequential vs maximum parallelism, on the exponential
// distribution with λ = n/10^3 (the paper's λ = 10^5 at n = 10^8).
#include "breakdown_common.h"

int main(int argc, char** argv) {
  using namespace parsemi;
  return bench::run_breakdown(
      argc, argv, "Table 2 / Figure 3(a): phase breakdown, exponential",
      "table2_breakdown",
      [](size_t n) {
        return distribution_spec{distribution_kind::exponential,
                                 std::max<uint64_t>(1, n / 1000)};
      },
      "paper shape (exp λ=n/1e3, ~70% heavy): scatter dominates (~50-70%),\n"
      "pack is second sequentially; local sort is small because most\n"
      "records are heavy; construct-buckets is ~1%. The default path has no\n"
      "pack row (records land at their final offset during the scatter);\n"
      "PARSEMI_SCATTER_PATH=cas runs the paper's five-phase pipeline.\n");
}
