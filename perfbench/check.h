// Output checks and input generation for the benchmark, run outside every
// timed region. They use plain std::threads, not the library's scheduler,
// so a scheduler fault cannot hide from the check that looks for it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "workloads/record.h"

namespace perfbench {

inline unsigned check_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Calls fn(t, lo, hi) on check_threads() disjoint ranges covering [0, n).
template <typename F>
void par_ranges(size_t n, F&& fn) {
  unsigned p = check_threads();
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (unsigned t = 0; t < p; ++t) {
    size_t lo = n * t / p, hi = n * (t + 1) / p;
    threads.emplace_back([&fn, t, lo, hi] { fn(t, lo, hi); });
  }
  for (std::thread& th : threads) th.join();
}

// Sums of two independent mixes over a multiset: equal for any two
// orderings of one multiset, different (with overwhelming probability) for
// any other pair of inputs.
struct digest {
  uint64_t a = 0;
  uint64_t b = 0;
  friend bool operator==(const digest&, const digest&) = default;
};

inline uint64_t mix(uint64_t x, uint64_t salt) {
  x ^= salt;
  x ^= x >> 31;
  x *= 0x7fb5d329728ea185ULL;
  x ^= x >> 27;
  x *= 0x81dadef4bc2dd44dULL;
  return x ^ (x >> 33);
}

inline digest record_digest(std::span<const parsemi::record> r) {
  std::vector<digest> part(check_threads());
  par_ranges(r.size(), [&](unsigned t, size_t lo, size_t hi) {
    digest d;
    for (size_t i = lo; i < hi; ++i) {
      uint64_t w = mix(r[i].key, 1) ^ r[i].payload;
      d.a += mix(w, 0x9e3779b97f4a7c15ULL);
      d.b += mix(w, 0xc2b2ae3d27d4eb4fULL);
    }
    part[t] = d;
  });
  digest out;
  for (const digest& d : part) {
    out.a += d.a;
    out.b += d.b;
  }
  return out;
}

// Number of maximal runs of equal keys. For a permutation of the input it
// equals the input's distinct-key count exactly when every key's records
// are contiguous, i.e. when the output is semisorted.
inline size_t key_runs(std::span<const parsemi::record> r) {
  std::vector<size_t> part(check_threads(), 0);
  par_ranges(r.size(), [&](unsigned t, size_t lo, size_t hi) {
    size_t runs = 0;
    for (size_t i = lo; i < hi; ++i)
      runs += (i == 0 || r[i].key != r[i - 1].key);
    part[t] = runs;
  });
  size_t total = 0;
  for (size_t x : part) total += x;
  return total;
}

// Parallel copy (restores in-place inputs between calls).
inline void copy_into(std::span<const parsemi::record> from,
                      std::span<parsemi::record> to) {
  par_ranges(from.size(), [&](unsigned, size_t lo, size_t hi) {
    std::memcpy(to.data() + lo, from.data() + lo,
                (hi - lo) * sizeof(parsemi::record));
  });
}

}  // namespace perfbench
