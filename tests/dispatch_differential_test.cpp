// The headline differential matrix for the front-end dispatch
// (core/dispatch.h): every dispatch path × every derived operator ×
// Table 1-shaped key distributions × sched-fuzz schedules, proptest-driven
// with shrinking on mismatch.
//
// Contract asserted per configuration, against the pinned general
// pipeline:
//   * counting path (adaptive, when the probe accepts):
//     byte-identical to the stable sort by key — the strongest form of
//     determinism — at every worker count, fuzzed schedule, and entry
//     point (copying and in-place);
//   * derived operators (count_by_key, group_by_index, collect_reduce):
//     results equal to the general pipeline's up to the operators'
//     documented order freedom.
// Key modes cover both sides of the probe: pre-hashed keys (must reject
// and fall back), raw dense keys (one-pass tier), and wide dense keys
// (the two 16-bit-digit radix tier).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "proptest.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using strategy = semisort_params::dispatch_strategy;

struct dd_config {
  size_t n = 0;
  distribution_spec spec{distribution_kind::uniform, 1000};
  int key_mode = 0;  // 0 = hashed, 1 = raw (dense-ish), 2 = wide dense
  uint64_t data_seed = 0;
  uint64_t sched_seed = 0;
  int workers = 0;
};

dd_config generate(rng& r) {
  dd_config c;
  c.n = 2000 + proptest::log_uniform_u64(r, 1, 40000);
  auto kind = static_cast<distribution_kind>(r.next_below(3));
  // Parameters drawn around n so raw keys land on both sides of the
  // density bound (span < 2n) — the probe's accept and reject branches
  // both get exercised by mode 1.
  uint64_t param = 1 + r.next_below(4 * c.n);
  c.spec = {kind, param};
  c.key_mode = static_cast<int>(proptest::pick(r, {0, 1, 1, 2}));
  c.data_seed = r.next();
  c.sched_seed = sched_fuzz::kCompiledIn ? (r.next() | 1) : 0;
  c.workers = proptest::pick(r, {0, 1, 2, 4});
  return c;
}

std::vector<record> build_input(const dd_config& c) {
  switch (c.key_mode) {
    case 0: return generate_records(c.n, c.spec, c.data_seed);
    case 1: return generate_records_raw(c.n, c.spec, c.data_seed);
    default: {
      // Wide dense domain: width > 2^16 (two-pass tier) but < 2n when n
      // allows; smaller n makes it ineligible, exercising the fallback.
      uint64_t width = 70000 + c.data_seed % 100000;
      uint64_t base = c.data_seed % 1000;
      std::vector<record> in(c.n);
      for (size_t i = 0; i < c.n; ++i) {
        in[i] = record{base + (i * 2654435761ull) % width,
                       static_cast<uint64_t>(i)};
      }
      return in;
    }
  }
}

std::string describe(const dd_config& c) {
  std::ostringstream os;
  os << c.spec.name() << "(" << c.spec.parameter << ") n=" << c.n
     << " key_mode=" << c.key_mode << " data_seed=" << c.data_seed
     << " sched_seed=" << c.sched_seed << " workers=" << c.workers;
  return os.str();
}

std::optional<std::string> all_paths_agree(const dd_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.sched_seed);
  auto in = build_input(c);
  std::span<const record> in_span(in);

  // General-pipeline baseline + the stable reference.
  semisort_params general_params;
  general_params.dispatch_with = strategy::general;
  general_params.seed = c.data_seed;
  std::vector<record> general_out(c.n);
  semisort_hashed(in_span, std::span<record>(general_out), record_key{},
                  general_params);
  if (!testing::valid_semisort(general_out, in_span))
    return "general baseline broke the semisort contract";
  auto want_counts = testing::key_counts(in_span, record_key{});
  std::vector<record> stable_ref(in);
  std::stable_sort(
      stable_ref.begin(), stable_ref.end(),
      [](const record& a, const record& b) { return a.key < b.key; });

  {
    semisort_params params;  // adaptive: counting when the probe accepts
    params.seed = c.data_seed;
    semisort_stats stats;
    params.stats = &stats;

    std::vector<record> out(c.n);
    semisort_hashed(in_span, std::span<record>(out), record_key{}, params);
    if (!testing::valid_semisort(out, in_span))
      return "semisort contract broken, path " +
             std::string(to_string(stats.dispatch_path_used));
    auto got_counts =
        testing::key_counts(std::span<const record>(out), record_key{});
    if (got_counts != want_counts)
      return "group sizes disagree with the general pipeline";
    if (stats.dispatch_path_used == dispatch_path::counting &&
        out != stable_ref) {
      return "counting path not byte-identical to the stable sort";
    }

    // The in-place entry must take the same path to the same answer.
    std::vector<record> data(in);
    semisort_stats inplace_stats;
    params.stats = &inplace_stats;
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    if (inplace_stats.dispatch_path_used != stats.dispatch_path_used)
      return "in-place entry chose a different dispatch path";
    if (!testing::valid_semisort(data, in_span))
      return "in-place semisort contract broken";
    if (stats.dispatch_path_used == dispatch_path::counting &&
        data != stable_ref) {
      return "in-place counting path not byte-identical to the stable sort";
    }
  }

  // --- derived operators: forced paths against the pinned general path ---
  std::vector<uint64_t> keys(c.n);
  for (size_t i = 0; i < c.n; ++i) keys[i] = in[i].key;
  auto hash = [](uint64_t v) { return hash64(v); };

  auto sorted_pairs = [](std::vector<std::pair<uint64_t, size_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto general_counts =
      sorted_pairs(count_by_key(std::span<const uint64_t>(keys), hash,
                                std::equal_to<>{}, general_params));
  {
    semisort_params params;
    auto got = sorted_pairs(count_by_key(std::span<const uint64_t>(keys),
                                         hash, std::equal_to<>{}, params));
    if (got != general_counts) return "count_by_key disagrees";
  }

  auto index_groups = [&](const grouped_indices& g) {
    std::map<uint64_t, std::vector<size_t>> by_key;
    for (size_t gi = 0; gi < g.num_groups(); ++gi) {
      auto grp = g.group(gi);
      std::vector<size_t> idx(grp.begin(), grp.end());
      std::sort(idx.begin(), idx.end());
      by_key[in[grp[0]].key] = std::move(idx);
    }
    return by_key;
  };
  auto general_groups =
      index_groups(group_by_index(in_span, record_key{}, general_params));
  {
    semisort_params params;
    auto got = index_groups(group_by_index(in_span, record_key{}, params));
    if (got != general_groups) return "group_by_index disagrees";
  }

  std::vector<std::pair<uint64_t, uint64_t>> pairs(c.n);
  for (size_t i = 0; i < c.n; ++i) pairs[i] = {in[i].key, in[i].payload};
  auto sorted_sums = [](std::vector<std::pair<uint64_t, uint64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto general_sums = sorted_sums(collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs), hash,
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
      std::equal_to<>{}, general_params));
  {
    semisort_params params;  // adaptive default flows through the tag spine
    auto got = sorted_sums(collect_reduce(
        std::span<const std::pair<uint64_t, uint64_t>>(pairs), hash,
        [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
        std::equal_to<>{}, params));
    if (got != general_sums) return "collect_reduce disagrees";
  }

  return std::nullopt;
}

std::vector<dd_config> shrink(const dd_config& c) {
  std::vector<dd_config> out;
  auto with = [&](auto mutate) {
    dd_config d = c;
    mutate(d);
    out.push_back(d);
  };
  if (c.sched_seed != 0) with([](dd_config& d) { d.sched_seed = 0; });
  if (c.workers != 1) with([](dd_config& d) { d.workers = 1; });
  for (uint64_t nn : proptest::shrink_toward(c.n, 2000)) {
    with([nn](dd_config& d) { d.n = nn; });
  }
  for (uint64_t pp : proptest::shrink_toward(c.spec.parameter, 1)) {
    with([pp](dd_config& d) { d.spec.parameter = pp; });
  }
  return out;
}

TEST(DispatchDifferential, PathsOperatorsDistributionsSchedules) {
  proptest::options opt;
  opt.trials = 10;
  opt.seed = 20260808;
  proptest::check<dd_config>(generate, all_paths_agree, shrink, describe,
                             opt);
}

}  // namespace
}  // namespace parsemi
