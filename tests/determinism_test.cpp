// The determinism contract (DESIGN.md "Determinism"): with default params,
// semisort_hashed and semisort_hashed_inplace produce byte-identical output
// at every worker count. Every default route — counting, offsets, blocked
// scatter — places records stably, so the only thing the worker count may
// change is the wall clock. Each cell runs on standalone pools of 1, 2 and
// 4 workers (routed through params.pool) and compares raw output bytes
// against the 1-worker run. Only the pinned CAS ablation is exempt: it
// guarantees the grouping alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// 128-byte record: the key word first, the source record's payload
// smeared over the rest so any misplaced byte shows in the comparison.
struct wide_record {
  uint64_t key;
  uint64_t pad[15];
};
static_assert(sizeof(wide_record) == 128);

struct wide_key {
  uint64_t operator()(const wide_record& r) const { return r.key; }
};

std::vector<wide_record> widen(const std::vector<record>& in) {
  std::vector<wide_record> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    out[i].key = in[i].key;
    for (size_t j = 0; j < 15; ++j) out[i].pad[j] = in[i].payload + j;
  }
  return out;
}

template <typename Record>
bool same_bytes(const std::vector<Record>& a, const std::vector<Record>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0;
}

// Runs both entry points on `in` at 1, 2 and 4 workers; every output must
// equal the 1-worker output of the same entry point byte for byte.
template <typename Record, typename GetKey>
void expect_worker_count_invariant(const std::vector<Record>& in,
                                   GetKey get_key, const std::string& cell) {
  std::vector<Record> ref_out, ref_inplace;
  for (int workers : {1, 2, 4}) {
    worker_pool pool(workers);
    semisort_params params;
    params.pool = &pool;

    std::vector<Record> out(in.size());
    semisort_hashed(std::span<const Record>(in), std::span<Record>(out),
                    get_key, params);
    std::vector<Record> data(in);
    semisort_hashed_inplace(std::span<Record>(data), get_key, params);

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

}  // namespace
}  // namespace parsemi
