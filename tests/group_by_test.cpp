// Tests for group_by / group_by_hashed: boundary correctness on top of the
// semisort.
#include "core/group_by.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

TEST(GroupBy, EmptyInput) {
  std::vector<record> in;
  auto g = group_by_hashed(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_TRUE(g.records.empty());
}

TEST(GroupBy, SingleGroup) {
  std::vector<record> in(1000, record{7, 0});
  auto g = group_by_hashed(std::span<const record>(in));
  ASSERT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(g.group(0).size(), 1000u);
}

TEST(GroupBy, BoundariesPartitionTheOutput) {
  auto in = generate_records(120000, {distribution_kind::zipfian, 5000}, 3);
  auto g = group_by_hashed(std::span<const record>(in));
  ASSERT_GE(g.num_groups(), 1u);
  EXPECT_EQ(g.group_start.front(), 0u);
  EXPECT_EQ(g.group_start.back(), in.size());
  auto expected = testing::key_counts(std::span<const record>(in), record_key{});
  EXPECT_EQ(g.num_groups(), expected.size());
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    ASSERT_FALSE(span.empty());
    uint64_t key = span.front().key;
    for (const auto& r : span) ASSERT_EQ(r.key, key);
    ASSERT_EQ(span.size(), expected.at(key));
    // Adjacent groups have different keys.
    if (grp + 1 < g.num_groups()) {
      ASSERT_NE(key, g.group(grp + 1).front().key);
    }
  }
}

TEST(GroupBy, AllDistinctKeys) {
  std::vector<record> in(50000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(i), i};
  auto g = group_by_hashed(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), in.size());
}

TEST(GroupBy, GeneralApiStrings) {
  std::vector<std::string> names;
  for (int i = 0; i < 30000; ++i) names.push_back("user" + std::to_string(i % 97));
  auto g = group_by(std::span<const std::string>(names),
                    [](const std::string& s) -> const std::string& { return s; },
                    [](const std::string& s) { return hash_string(s); });
  EXPECT_EQ(g.num_groups(), 97u);
  size_t total = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (const auto& s : span) ASSERT_EQ(s, span.front());
    total += span.size();
  }
  EXPECT_EQ(total, names.size());
}

TEST(GroupBySorted, WithinGroupOrderingByPayload) {
  // Stable-semisort flavour: groups ordered internally by original index
  // (payload == input position in generate_records).
  auto in = generate_records(80000, {distribution_kind::exponential, 100}, 9);
  auto g = group_by_hashed_sorted(
      std::span<const record>(in), record_key{},
      [](const record& a, const record& b) { return a.payload < b.payload; });
  ASSERT_EQ(g.records.size(), in.size());
  size_t covered = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (size_t i = 1; i < span.size(); ++i) {
      ASSERT_EQ(span[i].key, span[0].key);
      ASSERT_LT(span[i - 1].payload, span[i].payload);
    }
    covered += span.size();
  }
  EXPECT_EQ(covered, in.size());
}

TEST(GroupBySorted, DescendingComparator) {
  auto in = generate_records(30000, {distribution_kind::uniform, 100}, 10);
  auto g = group_by_hashed_sorted(
      std::span<const record>(in), record_key{},
      [](const record& a, const record& b) { return a.payload > b.payload; });
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (size_t i = 1; i < span.size(); ++i)
      ASSERT_GT(span[i - 1].payload, span[i].payload);
  }
}

TEST(GroupByIndex, PermutationGroupsWithoutMovingRecords) {
  auto in = generate_records(100000, {distribution_kind::exponential, 250}, 11);
  auto g = group_by_index(std::span<const record>(in));
  ASSERT_EQ(g.order.size(), in.size());
  // order is a permutation of [0, n)
  std::vector<uint8_t> seen(in.size(), 0);
  for (size_t idx : g.order) {
    ASSERT_LT(idx, in.size());
    ASSERT_EQ(seen[idx], 0);
    seen[idx] = 1;
  }
  // groups hold equal keys, boundaries partition everything, and no key
  // spans two groups
  auto expected = testing::key_counts(std::span<const record>(in), record_key{});
  ASSERT_EQ(g.num_groups(), expected.size());
  size_t covered = 0;
  std::unordered_set<uint64_t> closed;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    ASSERT_FALSE(span.empty());
    uint64_t key = in[span.front()].key;
    ASSERT_FALSE(closed.contains(key));
    closed.insert(key);
    for (size_t idx : span) ASSERT_EQ(in[idx].key, key);
    ASSERT_EQ(span.size(), expected.at(key));
    covered += span.size();
  }
  EXPECT_EQ(covered, in.size());
}

TEST(GroupByIndex, EmptyInput) {
  std::vector<record> in;
  auto g = group_by_index(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_TRUE(g.order.empty());
}

TEST(GroupBy, GroupSpansAreContiguousViews) {
  auto in = generate_records(20000, {distribution_kind::uniform, 50}, 4);
  auto g = group_by_hashed(std::span<const record>(in));
  size_t covered = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    EXPECT_EQ(g.group(grp).data(), g.records.data() + g.group_start[grp]);
    covered += g.group(grp).size();
  }
  EXPECT_EQ(covered, in.size());
}

// Exact per-key check of a general-key grouping: every group holds one key,
// no key opens two groups, and the group sizes are the key counts.
void expect_exact_groups(const grouped<std::string>& g,
                         const std::map<std::string, size_t>& expected) {
  std::map<std::string, size_t> got;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (const auto& s : span) ASSERT_EQ(s, span.front());
    ASSERT_TRUE(got.emplace(span.front(), span.size()).second)
        << "key " << span.front() << " opens two groups";
  }
  EXPECT_EQ(got, expected);
}

TEST(GroupBy, CollidingHashesRegroupByRealKey) {
  // 100 distinct keys onto 8 hash values, then all onto one: each mixed
  // hash run is split by real key equality.
  using string_hash = uint64_t (*)(const std::string&);
  const string_hash hashes[] = {
      [](const std::string& s) { return hash_string(s) % 8; },
      [](const std::string&) { return uint64_t{42}; }};
  std::vector<std::string> names;
  std::map<std::string, size_t> expected;
  for (int i = 0; i < 20000; ++i) {
    names.push_back("user" + std::to_string((i * 37) % 100));
    expected[names.back()]++;
  }
  auto key_of = [](const std::string& s) -> const std::string& { return s; };
  for (string_hash hash : hashes) {
    auto g = group_by(std::span<const std::string>(names), key_of, hash);
    ASSERT_EQ(g.num_groups(), expected.size());
    expect_exact_groups(g, expected);
  }
}

TEST(GroupBy, GroupingComparesEachRecordOnlyWithItsGroupHead) {
  // The one-read contract: with an honest hash, at most n − groups Eq calls.
  std::vector<std::string> names;
  std::map<std::string, size_t> expected;
  for (int i = 0; i < 50000; ++i) {
    names.push_back("user" + std::to_string((i * 7919) % 300));
    expected[names.back()]++;
  }
  std::atomic<size_t> calls{0};
  auto g = group_by(
      std::span<const std::string>(names),
      [](const std::string& s) -> const std::string& { return s; },
      [](const std::string& s) { return hash_string(s); },
      [&calls](const std::string& a, const std::string& b) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return a == b;
      });
  expect_exact_groups(g, expected);
  EXPECT_LE(calls.load(std::memory_order_relaxed),
            names.size() - g.num_groups());
}

}  // namespace
}  // namespace parsemi
