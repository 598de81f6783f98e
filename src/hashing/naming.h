// The naming problem (§2): given n keys with m distinct values, assign each
// distinct key a unique dense label in [O(m)].
//
// Solved with the phase-concurrent hash table as the paper describes:
// insert every key, then number the distinct keys, then a lookup phase
// labels every position. O(n) expected work, O(log n) depth w.h.p.
//
// Labels are deterministic: distinct keys are numbered in the order of
// their first occurrence in the input, never in table-slot order — which
// slot a key lands in depends on how the concurrent inserts interleaved.
//
// Used by the Rajasekaran–Reif-style semisort (§3.2's comparison path,
// which must reduce hash values to the range [n] before integer sorting)
// and available as a standalone primitive.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/phase_concurrent_hash_table.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

struct naming_result {
  std::vector<uint32_t> labels;  // labels[i] = dense label of keys[i]
  size_t num_distinct = 0;       // labels take values in [0, num_distinct)
};

// Assigns dense labels in [0, m) to n keys with m distinct values: the key
// first seen at the smallest index gets 0, the next new key 1, and so on.
// `expected_distinct` sizes the table (defaults to n).
inline naming_result name_keys(std::span<const uint64_t> keys,
                               size_t expected_distinct = 0) {
  size_t n = keys.size();
  naming_result result;
  result.labels.resize(n);
  if (n == 0) return result;

  // Insert phase: the value is a placeholder until the sweep below.
  phase_concurrent_hash_table<uint32_t> table(
      expected_distinct == 0 ? n : expected_distinct);
  parallel_for(0, n, [&](size_t i) { table.insert(keys[i], 0); });

  // Provisional ids 0..m-1 in table-slot order (one O(capacity) sweep), and
  // every position's id.
  uint32_t m = 0;
  table.for_each_mutable([&](uint64_t, uint32_t& value) { value = m++; });
  result.num_distinct = m;
  std::vector<uint32_t>& id = result.labels;
  parallel_for(0, n, [&](size_t i) { id[i] = *table.find(keys[i]); });

  // first[k] = the smallest input index holding key k (atomic minimum).
  std::vector<size_t> first(m, SIZE_MAX);
  parallel_for(0, n, [&](size_t i) {
    std::atomic_ref<size_t> slot(first[id[i]]);
    size_t cur = slot.load(std::memory_order_relaxed);
    while (i < cur &&
           !slot.compare_exchange_weak(cur, i, std::memory_order_relaxed)) {
    }
  });

  // Mark each key's first occurrence; the exclusive scan of the marks is
  // the key's label at that position.
  std::vector<uint32_t> rank(n);
  parallel_for(0, n, [&](size_t i) { rank[i] = first[id[i]] == i ? 1 : 0; });
  scan_exclusive_inplace(std::span<uint32_t>(rank));

  // Lookup phase: provisional id → label.
  parallel_for(0, m, [&](size_t k) { first[k] = rank[first[k]]; });
  parallel_for(0, n, [&](size_t i) {
    id[i] = static_cast<uint32_t>(first[id[i]]);
  });
  return result;
}

}  // namespace parsemi
