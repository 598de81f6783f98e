// Tests for collect_reduce / count_by_key — the MapReduce-style reduction
// layered on the semisort.
#include "core/collect_reduce.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hashing/hash64.h"
#include "util/rng.h"

namespace parsemi {
namespace {

TEST(CollectReduce, SumsValuesPerKey) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  rng r(1);
  std::map<uint64_t, uint64_t> expected;
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = r.next_below(200);
    uint64_t v = r.next_below(10);
    pairs.emplace_back(k, v);
    expected[k] += v;
  }
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, v] : got) ASSERT_EQ(v, expected.at(k)) << "key " << k;
}

TEST(CollectReduce, MaxReduction) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  rng r(2);
  std::map<uint64_t, uint64_t> expected;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = r.next_below(37);
    uint64_t v = r.next();
    pairs.emplace_back(k, v);
    expected[k] = std::max(expected[k], v);
  }
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return std::max(a, b); }, uint64_t{0});
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, v] : got) ASSERT_EQ(v, expected.at(k));
}

TEST(CollectReduce, StringKeys) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (int i = 0; i < 40000; ++i)
    pairs.emplace_back(std::string("k") + std::to_string(i % 13), 1);
  auto got = collect_reduce(
      std::span<const std::pair<std::string, uint64_t>>(pairs),
      [](const std::string& s) { return hash_string(s); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  ASSERT_EQ(got.size(), 13u);
  for (auto& [k, v] : got) EXPECT_NEAR(static_cast<double>(v), 40000.0 / 13, 1.0);
}

TEST(CollectReduce, EmptyInput) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  EXPECT_TRUE(got.empty());
}

TEST(CountByKey, MatchesMapCounts) {
  std::vector<uint64_t> keys;
  rng r(3);
  std::map<uint64_t, size_t> expected;
  for (int i = 0; i < 80000; ++i) {
    uint64_t k = r.next_below(500);
    keys.push_back(k);
    expected[k]++;
  }
  auto got = count_by_key(std::span<const uint64_t>(keys),
                          [](uint64_t k) { return hash64(k); });
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, c] : got) ASSERT_EQ(c, expected.at(k));
}

// Deliberately colliding hashes: 100 distinct keys onto 8 hash values, and
// every key onto one. Each mixed run must be split by real key equality and
// the group starts expanded to the class boundaries.
using u64_hash = uint64_t (*)(uint64_t);
constexpr u64_hash kCollidingHashes[] = {
    [](uint64_t k) { return k % 8; }, [](uint64_t) { return uint64_t{42}; }};

TEST(CollectReduce, CollidingHashesGiveExactPerKeySums) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  std::map<uint64_t, uint64_t> expected;
  rng r(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = r.next_below(100), v = r.next_below(1000);
    pairs.emplace_back(k, v);
    expected[k] += v;
  }
  for (u64_hash hash : kCollidingHashes) {
    auto got = collect_reduce(
        std::span<const std::pair<uint64_t, uint64_t>>(pairs), hash,
        [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
    EXPECT_EQ(got.size(), expected.size()) << "hash(1) = " << hash(1);
    EXPECT_EQ((std::map<uint64_t, uint64_t>(got.begin(), got.end())), expected)
        << "hash(1) = " << hash(1);
  }
}

TEST(CountByKey, CollidingHashesOnStringKeys) {
  // String keys take the general (tag spine) path, never the histogram.
  using string_hash = uint64_t (*)(const std::string&);
  const string_hash hashes[] = {
      [](const std::string& s) { return hash_string(s) % 8; },
      [](const std::string&) { return uint64_t{42}; }};
  std::vector<std::string> keys;
  std::map<std::string, size_t> expected;
  rng r(6);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("w");  // += rather than "w" + …: GCC 12 -Wrestrict misfires
    keys.back() += std::to_string(r.next_below(100));
    expected[keys.back()]++;
  }
  for (string_hash hash : hashes) {
    auto got = count_by_key(std::span<const std::string>(keys), hash);
    EXPECT_EQ(got.size(), expected.size());
    EXPECT_EQ((std::map<std::string, size_t>(got.begin(), got.end())),
              expected);
  }
}

TEST(CollectReduce, GroupingComparesEachRecordOnlyWithItsGroupHead) {
  // With an honest hash, grouping reads each record once: one Eq call per
  // record that does not open its group, n − groups in all. (A separate
  // repair pass plus a two-pass pack of the starts would make ~3n.)
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  rng r(7);
  for (int i = 0; i < 100000; ++i)
    pairs.emplace_back(r.next_below(500), r.next_below(10));
  std::atomic<size_t> calls{0};
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
      [&calls](uint64_t a, uint64_t b) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return a == b;
      });
  ASSERT_EQ(got.size(), 500u);
  EXPECT_LE(calls.load(std::memory_order_relaxed),
            pairs.size() - got.size());
}

}  // namespace
}  // namespace parsemi
