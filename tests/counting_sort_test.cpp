// Tests for the stable parallel counting distribution and the counting
// sort built on it (the paper's §2 building block): correctness vs the
// sequential reference, stability, the bucket-boundary output the radix
// sort relies on, worker-count invariance, and allocation-free reuse of a
// warm arena.
#include "primitives/counting_sort.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {
namespace {

struct keyed {
  uint32_t key;
  uint32_t tag;  // original index, to check stability
  friend bool operator==(const keyed&, const keyed&) = default;
};

std::vector<keyed> random_input(size_t n, uint32_t num_buckets, uint64_t seed) {
  std::vector<keyed> v(n);
  rng r(seed);
  for (size_t i = 0; i < n; ++i)
    v[i] = {static_cast<uint32_t>(r.next_below(num_buckets)),
            static_cast<uint32_t>(i)};
  return v;
}

struct Case {
  size_t n;
  size_t buckets;
};

class CountingSortCases : public ::testing::TestWithParam<Case> {};

TEST_P(CountingSortCases, MatchesSequentialReference) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n + buckets);
  std::vector<keyed> got(n), expected(n);
  auto key = [](const keyed& k) { return static_cast<size_t>(k.key); };
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets, key);
  counting_sort_seq(std::span<const keyed>(in), std::span<keyed>(expected),
                    buckets, key);
  EXPECT_EQ(got, expected);
}

TEST_P(CountingSortCases, IsStable) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n * 31 + buckets);
  std::vector<keyed> got(n);
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets,
                [](const keyed& k) { return static_cast<size_t>(k.key); });
  for (size_t i = 1; i < n; ++i) {
    ASSERT_LE(got[i - 1].key, got[i].key);
    if (got[i - 1].key == got[i].key) {
      ASSERT_LT(got[i - 1].tag, got[i].tag) << "instability at " << i;
    }
  }
}

TEST_P(CountingSortCases, BucketStartsAreCorrect) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n + 7 * buckets);
  std::vector<keyed> got(n);
  std::vector<size_t> starts;
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets,
                [](const keyed& k) { return static_cast<size_t>(k.key); },
                &starts);
  ASSERT_EQ(starts.size(), buckets + 1);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), n);
  for (size_t q = 0; q < buckets; ++q) {
    ASSERT_LE(starts[q], starts[q + 1]);
    for (size_t i = starts[q]; i < starts[q + 1]; ++i)
      ASSERT_EQ(got[i].key, q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AcrossShapes, CountingSortCases,
    ::testing::Values(Case{0, 4}, Case{1, 1}, Case{100, 2}, Case{1000, 256},
                      Case{4096, 256}, Case{100000, 256}, Case{100000, 3},
                      Case{50000, 1024}, Case{250000, 256}, Case{10000, 1}));

TEST(CountingSort, AllSameKey) {
  std::vector<keyed> in(50000, keyed{7, 0});
  for (size_t i = 0; i < in.size(); ++i) in[i].tag = static_cast<uint32_t>(i);
  std::vector<keyed> got(in.size());
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), 16,
                [](const keyed& k) { return static_cast<size_t>(k.key); });
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i].key, 7u);
    ASSERT_EQ(got[i].tag, i);  // stability ⇒ identity permutation
  }
}

TEST(CountingSort, EmptyBucketsInMiddle) {
  std::vector<keyed> in;
  for (uint32_t i = 0; i < 1000; ++i) in.push_back({i % 2 == 0 ? 0u : 9u, i});
  std::vector<keyed> got(in.size());
  std::vector<size_t> starts;
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), 10,
                [](const keyed& k) { return static_cast<size_t>(k.key); },
                &starts);
  EXPECT_EQ(starts[1] - starts[0], 500u);
  for (size_t q = 1; q <= 9; ++q) EXPECT_EQ(starts[q], 500u) << q;
  EXPECT_EQ(starts[10] - starts[9], 500u);
}

// ------------------------------------------------------ counting_distribute

// Distributes `in` by key into a fresh vector through counting_distribute
// on `scratch`; returns the placed records and copies out the starts.
std::vector<keyed> distribute(const std::vector<keyed>& in, size_t buckets,
                              arena& scratch, std::vector<size_t>& starts) {
  std::vector<keyed> out(in.size());
  std::span<const size_t> s = counting_distribute(
      in.size(), buckets, [&](size_t i) { return size_t{in[i].key}; },
      [&](size_t i, size_t pos) { out[pos] = in[i]; }, scratch);
  starts.assign(s.begin(), s.end());
  return out;
}

// Starts of the sequential reference: starts[q] = #keys below q.
std::vector<size_t> reference_starts(const std::vector<keyed>& in,
                                     size_t buckets) {
  std::vector<size_t> starts(buckets + 1, 0);
  for (const keyed& k : in) starts[k.key + 1]++;
  for (size_t q = 1; q <= buckets; ++q) starts[q] += starts[q - 1];
  return starts;
}

class CountingDistributeCases : public ::testing::TestWithParam<Case> {};

// The sequential reference is stable, so equality with it checks the
// starts, the grouping and stability at once.
TEST_P(CountingDistributeCases, MatchesSequentialReferenceAndStarts) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), 3 * n + buckets);
  std::vector<keyed> expected(n);
  counting_sort_seq(std::span<const keyed>(in), std::span<keyed>(expected),
                    buckets, [](const keyed& k) { return size_t{k.key}; });
  arena scratch;
  std::vector<size_t> starts;
  EXPECT_EQ(distribute(in, buckets, scratch, starts), expected);
  EXPECT_EQ(starts, reference_starts(in, buckets));
  size_t a = arena::kAlignment;
  EXPECT_EQ(scratch.live_bytes(), ((buckets + 1) * sizeof(size_t) + a - 1) / a * a)
      << "only the starts may outlive the call";
}

// n = 0, one bucket, more buckets than records, and 2^16 buckets over
// fewer records than one block.
INSTANTIATE_TEST_SUITE_P(
    Corners, CountingDistributeCases,
    ::testing::Values(Case{0, 1}, Case{0, 300}, Case{5000, 1}, Case{1, 1},
                      Case{50, 1000}, Case{1000, size_t{1} << 16},
                      Case{200000, 256}, Case{150000, 7}));

TEST(CountingDistribute, ByteIdenticalAcrossWorkerCounts) {
  size_t n = 300000, buckets = 1000;
  auto in = random_input(n, static_cast<uint32_t>(buckets), 41);
  std::vector<keyed> ref;
  std::vector<size_t> ref_starts;
  for (int workers : {1, 2, 4}) {
    worker_pool pool(workers);
    std::vector<keyed> got;
    std::vector<size_t> starts;
    pool.run([&] {
      arena scratch;
      got = distribute(in, buckets, scratch, starts);
    });
    if (workers == 1) {
      ref = std::move(got);
      ref_starts = std::move(starts);
      continue;
    }
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(keyed)), 0)
        << workers << " workers";
    EXPECT_EQ(starts, ref_starts) << workers << " workers";
  }
}

TEST(CountingDistribute, WarmArenaServesARepeatCallWithoutGrowing) {
  auto in = random_input(100000, 512, 17);
  arena scratch;
  std::vector<size_t> starts;
  auto first = [&] {
    arena_scope scope(scratch);
    return distribute(in, 512, scratch, starts);
  }();
  size_t blocks = scratch.heap_block_count();
  size_t capacity = scratch.capacity_bytes();
  arena_scope scope(scratch);
  EXPECT_EQ(distribute(in, 512, scratch, starts), first);
  EXPECT_EQ(scratch.heap_block_count(), blocks);
  EXPECT_EQ(scratch.capacity_bytes(), capacity);
}

}  // namespace
}  // namespace parsemi
