// Tests for the naming problem primitive (§2).
#include "hashing/naming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hashing/hash64.h"
#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {
namespace {

void check_naming(const std::vector<uint64_t>& keys) {
  auto result = name_keys(std::span<const uint64_t>(keys));
  ASSERT_EQ(result.labels.size(), keys.size());

  // Labels must be consistent (same key ⇒ same label; different keys ⇒
  // different labels), dense, and num_distinct must be exact.
  std::unordered_map<uint64_t, uint32_t> key_to_label;
  std::unordered_set<uint32_t> used;
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t label = result.labels[i];
    ASSERT_LT(label, result.num_distinct);
    auto [it, inserted] = key_to_label.emplace(keys[i], label);
    if (!inserted) {
      ASSERT_EQ(it->second, label) << "key " << keys[i];
    }
    used.insert(label);
  }
  EXPECT_EQ(key_to_label.size(), result.num_distinct);
  EXPECT_EQ(used.size(), result.num_distinct);  // dense: every label used
}

TEST(Naming, Empty) {
  auto result = name_keys(std::span<const uint64_t>());
  EXPECT_EQ(result.num_distinct, 0u);
  EXPECT_TRUE(result.labels.empty());
}

TEST(Naming, SingleKey) { check_naming({42}); }

TEST(Naming, AllSame) { check_naming(std::vector<uint64_t>(10000, 7)); }

TEST(Naming, AllDistinct) {
  std::vector<uint64_t> keys(50000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = hash64(i);
  check_naming(keys);
}

TEST(Naming, FewDistinct) {
  std::vector<uint64_t> keys(100000);
  rng r(1);
  for (auto& k : keys) k = hash64(r.next_below(37));
  check_naming(keys);
}

TEST(Naming, SentinelLikeKeys) {
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(~0ULL);
    keys.push_back(0);
    keys.push_back(static_cast<uint64_t>(i));
  }
  check_naming(keys);
}

TEST(Naming, LabelsDeterministicForSameInput) {
  std::vector<uint64_t> keys(20000);
  rng r(2);
  for (auto& k : keys) k = hash64(r.next_below(500));
  auto a = name_keys(std::span<const uint64_t>(keys));
  auto b = name_keys(std::span<const uint64_t>(keys));
  EXPECT_EQ(a.num_distinct, b.num_distinct);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Naming, LabelsNumberKeysByFirstOccurrence) {
  // The contract behind determinism: the label of a key is the number of
  // distinct keys whose first occurrence precedes its own — the same at
  // every worker count.
  std::vector<uint64_t> keys(50000);
  rng r(4);
  for (auto& k : keys) k = hash64(r.next_below(3000));
  std::unordered_map<uint64_t, uint32_t> expected;
  std::vector<uint32_t> reference(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = expected.try_emplace(keys[i],
                                   static_cast<uint32_t>(expected.size()));
    reference[i] = it.first->second;
  }
  int original = num_workers();
  for (int workers : {1, 2, 4}) {
    set_num_workers(workers);
    auto result = name_keys(std::span<const uint64_t>(keys));
    EXPECT_EQ(result.num_distinct, expected.size()) << workers;
    EXPECT_EQ(result.labels, reference) << workers;
  }
  set_num_workers(original);
}

TEST(Naming, ExpectedDistinctHintDoesNotChangeResultValidity) {
  std::vector<uint64_t> keys(30000);
  rng r(3);
  for (auto& k : keys) k = hash64(r.next_below(100));
  auto result = name_keys(std::span<const uint64_t>(keys), 128);
  EXPECT_EQ(result.num_distinct, 100u);
}

}  // namespace
}  // namespace parsemi
