// Tests for the relational operators (equi_join, group_aggregate).
#include "core/relational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "hashing/hash64.h"
#include "util/rng.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

std::vector<record> relation(size_t n, uint64_t key_range, uint64_t seed) {
  std::vector<record> rows(n);
  rng r(seed);
  for (size_t i = 0; i < n; ++i)
    rows[i] = {hash64(r.next_below(key_range)), r.next_below(1000000)};
  return rows;
}

std::vector<join_row> reference_join(std::span<const record> left,
                                     std::span<const record> right) {
  std::vector<join_row> out;
  for (const auto& a : left)
    for (const auto& b : right)
      if (a.key == b.key) out.push_back({a.key, a.payload, b.payload});
  return out;
}

bool same_multiset(std::vector<join_row> a, std::vector<join_row> b) {
  auto less = [](const join_row& x, const join_row& y) {
    if (x.key != y.key) return x.key < y.key;
    if (x.left_value != y.left_value) return x.left_value < y.left_value;
    return x.right_value < y.right_value;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return a == b;
}

record_key key_of;
auto value_of = [](const record& r) { return r.payload; };

TEST(EquiJoin, MatchesNestedLoopReference) {
  auto left = relation(4000, 250, 1);
  auto right = relation(6000, 250, 2);
  auto got = equi_join(std::span<const record>(left),
                       std::span<const record>(right), key_of, value_of,
                       key_of, value_of);
  auto want = reference_join(left, right);
  EXPECT_TRUE(same_multiset(got, want));
}

TEST(EquiJoin, DisjointKeysEmptyResult) {
  auto left = relation(3000, 100, 3);
  std::vector<record> right(3000);
  rng r(4);
  for (auto& row : right) row = {hash64(1000000 + r.next_below(100)), 0};
  auto got = equi_join(std::span<const record>(left),
                       std::span<const record>(right), key_of, value_of,
                       key_of, value_of);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(same_multiset(got, reference_join(left, right)));
}

TEST(EquiJoin, EmptySides) {
  std::vector<record> empty;
  auto some = relation(1000, 10, 5);
  EXPECT_TRUE(equi_join(std::span<const record>(empty),
                        std::span<const record>(some), key_of, value_of,
                        key_of, value_of)
                  .empty());
  EXPECT_TRUE(equi_join(std::span<const record>(some),
                        std::span<const record>(empty), key_of, value_of,
                        key_of, value_of)
                  .empty());
}

TEST(EquiJoin, SingleKeyCrossProductSpansManyPages) {
  // 2000 × 2000 rows of one key: 96 MB of output, every page of it written
  // only by the parallel fill (join_row's default constructor is a no-op).
  std::vector<record> left(2000), right(2000);
  for (size_t i = 0; i < left.size(); ++i) left[i] = {hash64(3), i};
  for (size_t i = 0; i < right.size(); ++i) right[i] = {hash64(3), 1000000 + i};
  auto got = equi_join(std::span<const record>(left),
                       std::span<const record>(right), key_of, value_of,
                       key_of, value_of);
  ASSERT_EQ(got.size(), 2000u * 2000u);
  EXPECT_TRUE(same_multiset(got, reference_join(left, right)));
}

TEST(EquiJoin, SkewedManyToMany) {
  // One hot key on both sides: output is the full cross product.
  std::vector<record> left(300, record{hash64(7), 0});
  std::vector<record> right(400, record{hash64(7), 0});
  for (size_t i = 0; i < left.size(); ++i) left[i].payload = i;
  for (size_t i = 0; i < right.size(); ++i) right[i].payload = i;
  auto got = equi_join(std::span<const record>(left),
                       std::span<const record>(right), key_of, value_of,
                       key_of, value_of);
  EXPECT_EQ(got.size(), 300u * 400u);
}

TEST(EquiJoin, OutputGroupedByKey) {
  auto left = relation(30000, 500, 6);
  auto right = relation(30000, 500, 7);
  auto got = equi_join(std::span<const record>(left),
                       std::span<const record>(right), key_of, value_of,
                       key_of, value_of);
  std::unordered_set<uint64_t> closed;
  size_t i = 0;
  while (i < got.size()) {
    uint64_t key = got[i].key;
    ASSERT_FALSE(closed.contains(key));
    closed.insert(key);
    while (i < got.size() && got[i].key == key) ++i;
  }
}

TEST(GroupAggregate, SumsMatchReference) {
  auto rows = relation(50000, 300, 8);
  auto got = group_aggregate(std::span<const record>(rows), key_of, value_of,
                             uint64_t{0},
                             [](uint64_t acc, uint64_t v) { return acc + v; });
  std::map<uint64_t, uint64_t> want;
  for (const auto& r : rows) want[r.key] += r.payload;
  ASSERT_EQ(got.size(), want.size());
  for (auto& [k, v] : got) ASSERT_EQ(v, want.at(k));
}

TEST(GroupAggregate, CountDistinctKeys) {
  auto rows = relation(40000, 123, 9);
  auto got = group_aggregate(std::span<const record>(rows), key_of, value_of,
                             size_t{0},
                             [](size_t acc, uint64_t) { return acc + 1; });
  size_t total = 0;
  for (auto& [k, c] : got) total += c;
  EXPECT_EQ(total, rows.size());
  EXPECT_LE(got.size(), 123u);
}

}  // namespace
}  // namespace parsemi
