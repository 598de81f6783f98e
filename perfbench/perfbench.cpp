// perfbench — the repository benchmark harness (run it through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--source-id <id>]
//
// Closed loop: one calling thread drives a worker_pool of nproc workers with
// back-to-back warm calls on one reused pipeline_context; each call is
// checked outside its timed region. Workloads (why each is here):
//
//   uniform-1e7     semisort_hashed, out of place, 10^7 records with keys
//                   uniform over 10^7 values. The 160 MB input is the
//                   cache-resident, all-light-key case: blocked scatter and
//                   local sort carry the call.
//   exp-1e7-budget  semisort_hashed_inplace on 10^7 records drawn from the
//                   paper's exponential shape (lambda = n/1000, 75% of the
//                   records heavy) under a memory budget scaled from 2 GiB
//                   at 10^8, so the shard driver partitions, spills to mmap
//                   runs and runs the engine once per cache-sized shard.
//   ops-raw         one pipeline over raw keys through the operator layer
//                   (the paper's §1 uses): collect_reduce word count, an
//                   equi_join, and a dense count_by_key. It bypasses the
//                   record scatter and exercises the tag spine, string
//                   hashing, collision repair and dispatch instead.
//
// --trace 0 prints the end-to-end metrics, measured with params.stats and
// params.timings unset. --trace 1 is a separate run that times each layer's
// public entry point from here, records one span per call (span file in
// --out-dir) and prints the per-layer metrics. The last line of standard
// output is the JSON result; every run also writes its result, host
// fingerprint and routing labels to --out-dir.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check.h"
#include "core/collect_reduce.h"
#include "core/relational.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "hashing/phase_concurrent_hash_table.h"
#include "primitives/histogram.h"
#include "primitives/pack.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "sort/radix_sort.h"
#include "trace.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"
#include "workloads/distributions.h"

namespace perfbench {
using namespace parsemi;

// Setups per run (setup_s is their median).
constexpr int kSetups = 3;
// The tail percentile is the highest one with this many samples beyond it.
constexpr size_t kTailBeyond = 10;
// The paper's budgeted point: 2 GiB for 10^8 16-byte records.
constexpr double kBudgetPerInputByte = 2147483648.0 / (1e8 * 16.0);
// Repetitions of each layer measurement in the traced run.
constexpr int kLayerReps = 3;

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct result {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<metric> metrics;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts one checked call; a failed check also marks the run incorrect.
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }
  std::string json() const {
    std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    char buf[128];
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
      s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
  }
};

// Runs fn, which must not throw past here: an exception is a failed call.
template <typename F>
bool guarded(F&& fn, const char* what) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s threw: %s\n", what, e.what());
    return false;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int pool_size() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

semisort_params call_params(worker_pool& pool, pipeline_context* ctx) {
  semisort_params p;
  p.pool = &pool;
  p.context = ctx;
  // Explicitly unlimited: PARSEMI_MEMORY_BUDGET must not shard these calls.
  p.memory_budget_bytes = SIZE_MAX;
  return p;
}

std::string route_label(const semisort_stats& s) {
  return std::string("dispatch=") + to_string(s.dispatch_path_used) +
         " scatter=" + to_string(s.scatter_path_used) +
         " shards=" + std::to_string(std::max<size_t>(1, s.shards)) +
         " plan_scatter=" + to_string(s.plan.scatter);
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

// A record input with the references its semisorted outputs are checked
// against: the multiset digest and the distinct-key count.
struct record_set {
  std::vector<record> recs;
  size_t distinct = 0;
  digest dig;

  void finish(const std::vector<uint64_t>& underlying) {
    // hash64 is a bijection, so distinct keys = distinct underlying values.
    uint64_t top = 0;
    for (uint64_t v : underlying) top = std::max(top, v);
    std::vector<uint8_t> seen(top + 1, 0);
    distinct = 0;
    for (uint64_t v : underlying) {
      distinct += !seen[v];
      seen[v] = 1;
    }
    dig = record_digest(recs);
  }
};

record_set make_records(size_t n, distribution_spec spec, uint64_t seed) {
  record_set s;
  s.recs.resize(n);
  std::vector<uint64_t> v(n);
  rng base(splitmix64(seed));
  par_ranges(n, [&](unsigned, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      v[i] = draw_underlying_key(spec, base, i);
      s.recs[i] = record{hash64(v[i]), i};
    }
  });
  s.finish(v);
  return s;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class workload {
 public:
  virtual ~workload() = default;
  // Input rows one call consumes (records, or rows summed over a pipeline).
  virtual size_t rows_per_call() const = 0;
  // Untimed preparation before each call (restoring an in-place input).
  virtual void prepare() {}
  // The timed call.
  virtual void call(const semisort_params& p) = 0;
  // Checks the last call's output.
  virtual bool verify() = 0;
  // The call with one span per layer entry point, for the traced run.
  virtual void traced_call(span_log& log, int iteration,
                           const semisort_params& p) = 0;
  // Routing labels from the executed stats of one stats-on call.
  virtual std::string routing(const semisort_params& p) = 0;
  // Frees the call outputs (the traced run does this before the radix
  // baseline so the two never hold memory at once).
  virtual void release_outputs() = 0;
  // The record input the record-layer measurements of the traced run use.
  virtual const record_set& layer_records() const = 0;
};

class record_workload final : public workload {
 public:
  // budget == SIZE_MAX: unbudgeted out-of-place calls; otherwise in-place
  // calls under that memory budget.
  record_workload(record_set in, size_t budget)
      : in_(std::move(in)), out_(in_.recs.size()), budget_(budget) {}

  size_t rows_per_call() const override { return in_.recs.size(); }

  void prepare() override {
    if (out_.size() != in_.recs.size()) out_.resize(in_.recs.size());
    if (inplace()) copy_into(in_.recs, out_);
  }

  void call(const semisort_params& p) override {
    if (inplace()) {
      semisort_hashed_inplace(std::span<record>(out_), record_key{},
                              with_budget(p));
    } else {
      semisort_hashed(std::span<const record>(in_.recs),
                      std::span<record>(out_), record_key{}, p);
    }
  }

  bool verify() override {
    return record_digest(out_) == in_.dig && key_runs(out_) == in_.distinct;
  }

  void traced_call(span_log& log, int iteration,
                   const semisort_params& p) override {
    semisort_params q = with_budget(p);
    semisort_plan plan;
    {
      span_log::scope s(log, inplace() ? "shard.plan_semisort_hashed"
                                       : "planner.plan_semisort_hashed",
                        iteration);
      plan = plan_semisort_hashed(std::span<const record>(in_.recs),
                                  record_key{}, q);
    }
    q.plan = &plan;
    span_log::scope s(log, inplace() ? "shard.semisort_hashed_inplace"
                                     : "core.semisort_hashed",
                      iteration);
    call(q);
  }

  std::string routing(const semisort_params& p) override {
    semisort_stats stats;
    semisort_params q = p;
    q.stats = &stats;
    prepare();
    call(q);
    return route_label(stats);
  }

  void release_outputs() override { std::vector<record>().swap(out_); }

  const record_set& layer_records() const override { return in_; }

 private:
  bool inplace() const { return budget_ != SIZE_MAX; }

  semisort_params with_budget(semisort_params p) const {
    p.memory_budget_bytes = budget_;
    return p;
  }

  record_set in_;
  std::vector<record> out_;
  size_t budget_;
};

// The operator pipeline: word count, equi-join, dense count_by_key.
class ops_workload final : public workload {
 public:
  static constexpr size_t kWords = 10'000'000;
  static constexpr uint64_t kVocabulary = 100'000;
  static constexpr size_t kJoinSide = 4'000'000;
  static constexpr uint64_t kJoinKeys = 400'000;  // ~40M output rows
  static constexpr size_t kIds = 10'000'000;
  static constexpr uint64_t kIdDomain = 1'000'000;

  explicit ops_workload(uint64_t seed) {
    make_words(seed);
    make_join(seed);
    make_ids(seed);
  }

  size_t rows_per_call() const override {
    return kWords + 2 * kJoinSide + kIds;
  }

  void prepare() override { release_outputs(); }

  void call(const semisort_params& p) override {
    count_words(p);
    join(p);
    count_ids(p);
  }

  bool verify() override {
    return words_ok() && join_ok() && ids_ok();
  }

  void traced_call(span_log& log, int iteration,
                   const semisort_params& p) override {
    {
      span_log::scope s(log, "ops.collect_reduce", iteration);
      count_words(p);
    }
    {
      span_log::scope s(log, "ops.equi_join", iteration);
      join(p);
    }
    span_log::scope s(log, "ops.count_by_key", iteration);
    count_ids(p);
  }

  std::string routing(const semisort_params& p) override {
    semisort_stats wc, jn, ids;
    semisort_params q = p;
    prepare();
    q.stats = &wc;
    count_words(q);
    q.stats = &jn;
    join(q);
    q.stats = &ids;
    count_ids(q);
    return "collect_reduce{" + route_label(wc) + "} equi_join{" +
           route_label(jn) + "} count_by_key{" + route_label(ids) + "}";
  }

  void release_outputs() override {
    std::vector<std::pair<std::string_view, uint64_t>>().swap(words_out_);
    std::vector<join_row>().swap(join_out_);
    std::vector<std::pair<uint32_t, size_t>>().swap(ids_out_);
  }

  const record_set& layer_records() const override { return tags_; }

  // The sequential baseline for the word count: one std::unordered_map.
  size_t sequential_word_count() const {
    std::unordered_map<std::string_view, uint64_t> counts;
    counts.reserve(kVocabulary);
    for (const auto& [w, one] : pairs_) counts[w] += one;
    return counts.size();
  }

  size_t words_present() const { return words_present_; }

  bool words_ok() const {
    if (words_out_.size() != words_present_) return false;
    std::vector<uint8_t> seen(kVocabulary, 0);
    for (const auto& [w, c] : words_out_) {
      auto it = word_id_.find(w);
      if (it == word_id_.end() || seen[it->second] ||
          word_count_[it->second] != c)
        return false;
      seen[it->second] = 1;
    }
    return true;
  }

  bool join_ok() const {
    if (join_out_.size() != join_rows_) return false;
    std::vector<digest> part(check_threads());
    par_ranges(join_out_.size(), [&](unsigned t, size_t lo, size_t hi) {
      digest d;
      for (size_t i = lo; i < hi; ++i) {
        const join_row& r = join_out_[i];
        d.a += mix(r.key, 11) * mix(r.left_value, 12) * mix(r.right_value, 13);
        d.b += mix(r.key, 21) * mix(r.left_value, 22) * mix(r.right_value, 23);
      }
      part[t] = d;
    });
    digest sum;
    for (const digest& d : part) {
      sum.a += d.a;
      sum.b += d.b;
    }
    return sum == join_digest_;
  }

  bool ids_ok() const {
    if (ids_out_.size() != ids_present_) return false;
    std::vector<uint8_t> seen(kIdDomain, 0);
    for (const auto& [k, c] : ids_out_) {
      if (k >= kIdDomain || seen[k] || id_count_[k] != c) return false;
      seen[k] = 1;
    }
    return true;
  }

  void count_words(const semisort_params& p) {
    words_out_ = collect_reduce(
        std::span<const std::pair<std::string_view, uint64_t>>(pairs_),
        [](std::string_view w) { return hash_string(w); },
        [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
        std::equal_to<>{}, p);
  }

  void join(const semisort_params& p) {
    auto key = [](const record& r) { return r.key; };
    auto value = [](const record& r) { return r.payload; };
    join_out_ = equi_join(std::span<const record>(left_),
                          std::span<const record>(right_), key, value, key,
                          value, p);
  }

  void count_ids(const semisort_params& p) {
    ids_out_ = count_by_key(std::span<const uint32_t>(ids_),
                            [](uint32_t k) { return hash64(k); },
                            std::equal_to<>{}, p);
  }

 private:
  void make_words(uint64_t seed) {
    // Word i: a fixed 4-letter base-26 prefix naming i (so words are
    // distinct) plus 0-7 seeded letters.
    rng letters(splitmix64(seed ^ 0x5107));
    std::vector<size_t> start(kVocabulary + 1);
    for (uint64_t i = 0; i < kVocabulary; ++i) {
      start[i] = text_.size();
      uint64_t x = i;
      for (int d = 0; d < 4; ++d, x /= 26) text_ += static_cast<char>('a' + x % 26);
      rng r = letters.split(i);
      size_t tail = r.next_below(8);
      for (size_t t = 0; t < tail; ++t)
        text_ += static_cast<char>('a' + r.next_below(26));
    }
    start[kVocabulary] = text_.size();
    std::vector<std::string_view> vocab(kVocabulary);
    for (uint64_t i = 0; i < kVocabulary; ++i) {
      vocab[i] = std::string_view(text_).substr(start[i], start[i + 1] - start[i]);
      word_id_.emplace(vocab[i], static_cast<uint32_t>(i));
    }

    std::vector<uint32_t> id(kWords);
    pairs_.resize(kWords);
    rng base(splitmix64(seed ^ 0x3a7d));
    distribution_spec zipf{distribution_kind::zipfian, kVocabulary};
    par_ranges(kWords, [&](unsigned, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        id[i] = static_cast<uint32_t>(draw_underlying_key(zipf, base, i) - 1);
        pairs_[i] = {vocab[id[i]], 1};
      }
    });
    word_count_.assign(kVocabulary, 0);
    for (uint32_t w : id) ++word_count_[w];
    words_present_ = 0;
    for (uint64_t c : word_count_) words_present_ += (c != 0);

    // The records the word count's tag spine semisorts: (hash(word), i).
    tags_.recs.resize(kWords);
    std::vector<uint64_t> hashes(kVocabulary);
    for (uint64_t i = 0; i < kVocabulary; ++i) hashes[i] = hash_string(vocab[i]);
    par_ranges(kWords, [&](unsigned, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) tags_.recs[i] = record{hashes[id[i]], i};
    });
    std::vector<uint64_t> present;
    for (uint64_t i = 0; i < kVocabulary; ++i)
      if (word_count_[i] != 0) present.push_back(hashes[i]);
    std::sort(present.begin(), present.end());
    tags_.distinct = static_cast<size_t>(
        std::unique(present.begin(), present.end()) - present.begin());
    tags_.dig = record_digest(tags_.recs);
  }

  void make_join(uint64_t seed) {
    left_.resize(kJoinSide);
    right_.resize(kJoinSide);
    std::vector<uint32_t> lu(kJoinSide), ru(kJoinSide);
    distribution_spec keys{distribution_kind::uniform, kJoinKeys};
    rng lbase(splitmix64(seed ^ 0x1ef7)), rbase(splitmix64(seed ^ 0x7197));
    par_ranges(kJoinSide, [&](unsigned, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        lu[i] = static_cast<uint32_t>(draw_underlying_key(keys, lbase, i));
        ru[i] = static_cast<uint32_t>(draw_underlying_key(keys, rbase, i));
        left_[i] = record{hash64(lu[i]), i};
        right_[i] = record{hash64(ru[i]), kJoinSide + i};
      }
    });
    // The join digest sums f(key) * g(left) * h(right) over the output
    // rows, which factors per key into f(key) * sum(g) * sum(h): the
    // reference needs one pass over each side, not over the output.
    struct side { uint64_t count = 0, a = 0, b = 0; };
    std::vector<side> ls(kJoinKeys + 1), rs(kJoinKeys + 1);
    for (size_t i = 0; i < kJoinSide; ++i) {
      side& l = ls[lu[i]];
      ++l.count;
      l.a += mix(left_[i].payload, 12);
      l.b += mix(left_[i].payload, 22);
      side& r = rs[ru[i]];
      ++r.count;
      r.a += mix(right_[i].payload, 13);
      r.b += mix(right_[i].payload, 23);
    }
    join_rows_ = 0;
    join_digest_ = {};
    for (uint64_t u = 1; u <= kJoinKeys; ++u) {
      join_rows_ += ls[u].count * rs[u].count;
      join_digest_.a += mix(hash64(u), 11) * ls[u].a * rs[u].a;
      join_digest_.b += mix(hash64(u), 21) * ls[u].b * rs[u].b;
    }
  }

  void make_ids(uint64_t seed) {
    ids_.resize(kIds);
    distribution_spec dense{distribution_kind::uniform, kIdDomain};
    rng base(splitmix64(seed ^ 0x1d5));
    par_ranges(kIds, [&](unsigned, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i)
        ids_[i] = static_cast<uint32_t>(draw_underlying_key(dense, base, i) - 1);
    });
    id_count_.assign(kIdDomain, 0);
    for (uint32_t k : ids_) ++id_count_[k];
    ids_present_ = 0;
    for (uint64_t c : id_count_) ids_present_ += (c != 0);
  }

  std::string text_;
  std::unordered_map<std::string_view, uint32_t> word_id_;
  std::vector<std::pair<std::string_view, uint64_t>> pairs_;
  std::vector<uint64_t> word_count_;
  size_t words_present_ = 0;
  record_set tags_;

  std::vector<record> left_, right_;
  size_t join_rows_ = 0;
  digest join_digest_;

  std::vector<uint32_t> ids_;
  std::vector<uint64_t> id_count_;
  size_t ids_present_ = 0;

  std::vector<std::pair<std::string_view, uint64_t>> words_out_;
  std::vector<join_row> join_out_;
  std::vector<std::pair<uint32_t, size_t>> ids_out_;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  constexpr size_t n = 10'000'000;
  if (name == "uniform-1e7") {
    return std::make_unique<record_workload>(
        make_records(n, {distribution_kind::uniform, n}, seed), SIZE_MAX);
  }
  if (name == "exp-1e7-budget") {
    // The paper's exponential(10^5) at 10^8 keeps its duplicate structure
    // at 10^7 with lambda scaled by n (scaled_to): 75% heavy records.
    distribution_spec spec = scaled_to({distribution_kind::exponential, 100000}, n);
    auto budget = static_cast<size_t>(kBudgetPerInputByte * 16.0 * n);
    return std::make_unique<record_workload>(make_records(n, spec, seed),
                                             budget);
  }
  if (name == "ops-raw") return std::make_unique<ops_workload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Layer measurements (traced run). Each layer call gets a span; the metric
// is taken from the spans' durations.
// ---------------------------------------------------------------------------

// One parallel copy of the records on the pool: the host's memory-bandwidth
// control (mem.copy_gbs counts the 16 bytes read and 16 written per record).
void parallel_copy(worker_pool& pool, std::span<const record> from,
                   std::span<record> to) {
  pool.run([&] {
    parallel_for_blocks(from.size(), 1 << 16, [&](size_t, size_t lo, size_t hi) {
      std::memcpy(to.data() + lo, from.data() + lo, (hi - lo) * sizeof(record));
    });
  });
}

double copy_gbs(size_t n, double seconds) {
  return 2.0 * sizeof(record) * static_cast<double>(n) / seconds / 1e9;
}

// Median duration of the spans called `name`.
double median_of(const span_log& log, const std::string& name) {
  std::vector<double> d;
  for (const auto& s : log.spans())
    if (s.name == name) d.push_back(s.duration());
  return median(d);
}

bool sorted_by_key(std::span<const record> r) {
  std::vector<uint8_t> ok(check_threads(), 1);
  par_ranges(r.size(), [&](unsigned t, size_t lo, size_t hi) {
    for (size_t i = std::max<size_t>(lo, 1); i < hi; ++i)
      if (r[i - 1].key > r[i].key) ok[t] = 0;
  });
  return std::all_of(ok.begin(), ok.end(), [](uint8_t b) { return b != 0; });
}

// Planner and the five paper phases: plan_semisort_hashed, then the call on
// that plan with params.timings set; a plain stats-off and a stats-on call
// give the stats overhead and the stats counters.
void core_layer(span_log& log, result& res, worker_pool& pool,
                pipeline_context& ctx, const record_set& in) {
  const size_t n = in.recs.size();
  std::vector<record> out(n);
  auto ok_out = [&] {
    return record_digest(out) == in.dig && key_runs(out) == in.distinct;
  };
  std::span<const record> src(in.recs);
  std::map<std::string, std::vector<double>> phases;
  std::vector<double> unattributed;
  semisort_plan plan;
  semisort_stats stats;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    semisort_params p = call_params(pool, &ctx);
    double plan_s = 0.0, exec_s = 0.0;
    phase_timer pt;
    bool ok = guarded([&] {
      {
        span_log::scope s(log, "planner.plan_semisort_hashed", rep);
        plan = plan_semisort_hashed(src, record_key{}, p);
        plan_s = s.close();
      }
      semisort_params q = p;
      q.plan = &plan;
      q.timings = &pt;
      span_log::scope s(log, "core.semisort_hashed", rep);
      semisort_hashed(src, std::span<record>(out), record_key{}, q);
      exec_s = s.close();
    }, "core.semisort_hashed");
    res.check(ok && ok_out(), "core.semisort_hashed output");
    for (const auto& [name, t] : pt.phases()) phases[name].push_back(t);
    unattributed.push_back(plan_s + exec_s - pt.total());

    ok = guarded([&] {
      span_log::scope s(log, "core.semisort_hashed.stats_off", rep);
      semisort_hashed(src, std::span<record>(out), record_key{}, p);
    }, "core stats-off call");
    res.check(ok && ok_out(), "core stats-off output");
    ok = guarded([&] {
      semisort_params q = p;
      q.stats = &stats;
      span_log::scope s(log, "core.semisort_hashed.stats_on", rep);
      semisort_hashed(src, std::span<record>(out), record_key{}, q);
    }, "core stats-on call");
    res.check(ok && ok_out(), "core stats-on output");
  }
  auto phase = [&](const char* name) { return median(phases[name]); };
  res.add("planner.plan_s", median_of(log, "planner.plan_semisort_hashed"), "s");
  res.add("planner.probe_records", static_cast<double>(plan.probe_records),
          "count");
  res.add("core.sample_s", phase("sample and sort"), "s");
  res.add("core.buckets_s", phase("construct buckets"), "s");
  res.add("core.scatter_s", phase("scatter"), "s");
  res.add("core.local_sort_s", phase("local sort"), "s");
  res.add("core.pack_s", phase("pack"), "s");
  res.add("core.unattributed_s", median(unattributed), "s");
  // Computed, not measured: one 16-byte read and one 16-byte write per
  // record over the scatter phase's time.
  double scatter_s = phase("scatter");
  res.add("core.scatter_gbs",
          scatter_s > 0 ? 32.0 * static_cast<double>(n) / scatter_s / 1e9 : 0.0,
          "GB/s");
  res.add("core.heavy_frac", stats.heavy_fraction(), "ratio");
  res.add("core.restarts", stats.restarts, "count");
  res.add("core.slots_per_rec", stats.slots_per_record(), "ratio");
  res.add("core.scratch_bytes_per_rec",
          static_cast<double>(stats.peak_scratch_bytes) / static_cast<double>(n),
          "B/rec");
  res.add("core.stats_overhead",
          median_of(log, "core.semisort_hashed.stats_on") /
              median_of(log, "core.semisort_hashed.stats_off"),
          "ratio");
}

// The paper's baseline: radix_sort on a copy of the same input.
void sort_layer(span_log& log, result& res, worker_pool& pool,
                const record_set& in) {
  std::vector<record> work(in.recs.size());
  for (int rep = 0; rep < kLayerReps; ++rep) {
    copy_into(in.recs, work);
    bool ok = guarded([&] {
      span_log::scope s(log, "sort.radix_sort", rep);
      pool.run([&] { radix_sort(std::span<record>(work), record_key{}); });
    }, "radix_sort");
    res.check(ok && record_digest(work) == in.dig && sorted_by_key(work),
              "radix_sort output");
  }
  res.add("sort.radix_mrec_s",
          static_cast<double>(in.recs.size()) /
              median_of(log, "sort.radix_sort") / 1e6,
          "Mrec/s");
}

// Workload-sized primitives, hashing, the scheduler's fork-join cost, and
// the memory-bandwidth controls.
void primitive_layers(span_log& log, result& res, worker_pool& pool,
                      const record_set& in) {
  const size_t n = in.recs.size();
  std::vector<uint64_t> keys(n);
  par_ranges(n, [&](unsigned, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) keys[i] = in.recs[i].key;
  });
  std::vector<size_t> odd_part(check_threads(), 0);
  par_ranges(n, [&](unsigned t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) odd_part[t] += keys[i] & 1;
  });
  size_t odd = 0;
  for (size_t c : odd_part) odd += c;

  std::vector<uint64_t> words(n), hashed(n);
  const size_t m = n / 16;  // the sample the heavy-key table would see
  std::vector<uint8_t> sink(64 * static_cast<size_t>(pool.num_workers()));
  std::vector<double> fork_join_us;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    par_ranges(n, [&](unsigned, size_t lo, size_t hi) {
      std::fill(words.begin() + lo, words.begin() + hi, uint64_t{1});
    });
    uint64_t total = 0;
    bool ok = guarded([&] {
      span_log::scope s(log, "primitives.scan_exclusive_inplace", rep);
      pool.run([&] {
        total = scan_exclusive_inplace(std::span<uint64_t>(words), uint64_t{0});
      });
    }, "scan");
    res.check(ok && total == n && words[n - 1] == n - 1, "scan output");

    std::vector<size_t> idx;
    ok = guarded([&] {
      span_log::scope s(log, "primitives.pack_index", rep);
      pool.run([&] {
        idx = pack_index(n, [&](size_t i) { return (keys[i] & 1) != 0; });
      });
    }, "pack_index");
    res.check(ok && idx.size() == odd, "pack_index output");

    std::vector<size_t> counts;
    ok = guarded([&] {
      span_log::scope s(log, "primitives.histogram_index", rep);
      pool.run([&] {
        counts = histogram_index(n, 8192, [&](size_t i) { return keys[i] >> 51; });
      });
    }, "histogram_index");
    size_t counted = 0;
    for (size_t c : counts) counted += c;
    res.check(ok && counted == n, "histogram_index output");

    ok = guarded([&] {
      span_log::scope s(log, "hashing.hash64_batch", rep);
      pool.run([&] {
        parallel_for_blocks(n, 4096, [&](size_t, size_t lo, size_t hi) {
          hash64_batch(keys.data() + lo, hashed.data() + lo, hi - lo);
        });
      });
    }, "hash64_batch");
    bool same = true;
    for (size_t i = 0; i < n; i += 997) same &= hashed[i] == hash64(keys[i]);
    res.check(ok && same, "hash64_batch output");

    phase_concurrent_hash_table<uint64_t> table(m);
    ok = guarded([&] {
      span_log::scope s(log, "hashing.table_insert", rep);
      pool.run([&] {
        parallel_for(0, m, [&](size_t j) { table.insert(keys[16 * j], j); });
      });
    }, "table insert");
    bool found = true;
    for (size_t j = 0; j < m; ++j) found &= table.contains(keys[16 * j]);
    res.check(ok && found, "table insert output");

    {
      span_log::scope s(log, "scheduler.parallel_for", rep);
      pool.run([&] {
        for (int r = 0; r < 100; ++r) {
          timer t;
          parallel_for(0, sink.size(), [&](size_t i) { sink[i] = 1; }, 1);
          fork_join_us.push_back(t.elapsed() * 1e6);
        }
      });
    }
  }
  {
    std::vector<record> tmp(n), dst(n);
    rng base(1234);
    for (int rep = 0; rep < kLayerReps; ++rep) {
      {
        span_log::scope s(log, "mem.copy", rep);
        parallel_copy(pool, in.recs, dst);
      }
      res.check(std::memcmp(dst.data(), in.recs.data(), n * sizeof(record)) == 0,
                "copy output");
      // The Figure 5 / Table 4 lower bound any semisort pays: one random
      // write per record, then one linear pass (time_scatter_pack in
      // bench/common.h). Colliding writes are relaxed atomic stores, so
      // the race they model is well defined.
      span_log::scope s(log, "mem.scatter_pack_lb", rep);
      pool.run([&] {
        parallel_for(0, n, [&](size_t i) {
          record& slot = tmp[base.ith_below(i, n)];
          std::atomic_ref<uint64_t>(slot.key).store(in.recs[i].key,
                                                    std::memory_order_relaxed);
          std::atomic_ref<uint64_t>(slot.payload)
              .store(in.recs[i].payload, std::memory_order_relaxed);
        });
        parallel_for_blocks(n, 1 << 16, [&](size_t, size_t lo, size_t hi) {
          std::copy(tmp.data() + lo, tmp.data() + hi, dst.data() + lo);
        });
      });
    }
  }
  double dn = static_cast<double>(n);
  // Nominal traffic: one 8-byte read and one 8-byte write per element.
  res.add("primitives.scan_gbs",
          16.0 * dn / median_of(log, "primitives.scan_exclusive_inplace") / 1e9,
          "GB/s");
  res.add("primitives.pack_index_s", median_of(log, "primitives.pack_index"), "s");
  res.add("primitives.histogram_s", median_of(log, "primitives.histogram_index"),
          "s");
  res.add("hashing.hash64_mrec_s",
          dn / median_of(log, "hashing.hash64_batch") / 1e6, "Mrec/s");
  res.add("hashing.table_insert_mops",
          static_cast<double>(m) / median_of(log, "hashing.table_insert") / 1e6,
          "Mops/s");
  res.add("scheduler.parallel_for_overhead_us", median(fork_join_us), "us");
  res.add("mem.copy_gbs", copy_gbs(n, median_of(log, "mem.copy")), "GB/s");
  res.add("mem.scatter_pack_lb_s", median_of(log, "mem.scatter_pack_lb"), "s");
}

// The shard driver on the layer records, in place, under the budget the
// paper's 10^8 point scales to.
void shard_layer(span_log& log, result& res, worker_pool& pool,
                 const record_set& in) {
  const size_t n = in.recs.size();
  std::vector<record> work(n);
  semisort_params p = call_params(pool, nullptr);
  p.memory_budget_bytes =
      static_cast<size_t>(kBudgetPerInputByte * 16.0 * static_cast<double>(n));
  semisort_stats stats;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    copy_into(in.recs, work);
    bool ok = guarded([&] {
      semisort_plan plan;
      {
        span_log::scope s(log, "shard.plan_semisort_hashed", rep);
        plan = plan_semisort_hashed(std::span<const record>(in.recs),
                                    record_key{}, p);
      }
      semisort_params q = p;
      q.plan = &plan;
      q.stats = &stats;
      span_log::scope s(log, "shard.semisort_hashed_inplace", rep);
      semisort_hashed_inplace(std::span<record>(work), record_key{}, q);
    }, "sharded semisort");
    res.check(ok && record_digest(work) == in.dig && key_runs(work) == in.distinct,
              "sharded semisort output");
  }
  double shards = static_cast<double>(std::max<size_t>(1, stats.shards));
  res.add("shard.plan_s", median_of(log, "shard.plan_semisort_hashed"), "s");
  res.add("shard.shards", shards, "count");
  res.add("shard.spilled_bytes_per_rec",
          static_cast<double>(stats.spilled_bytes) / static_cast<double>(n),
          "B/rec");
  res.add("shard.overlapped_prefetches",
          static_cast<double>(stats.overlapped_prefetches), "count");
  // Per record of the average shard: the engine scratch one shard holds.
  res.add("shard.scratch_bytes_per_rec",
          static_cast<double>(stats.shard_peak_scratch_bytes) * shards /
              static_cast<double>(n),
          "B/rec");
}

// The operators, each timed on its own, and the sequential word count.
void ops_layer(span_log& log, result& res, worker_pool& pool,
               ops_workload& ops, bool already_traced) {
  pipeline_context ctx;
  semisort_params p = call_params(pool, &ctx);
  if (!already_traced) {
    ops.prepare();
    bool ok = guarded([&] { ops.call(p); }, "ops warm-up");
    res.check(ok && ops.verify(), "ops warm-up output");
    for (int rep = 0; rep < kLayerReps; ++rep) {
      ops.prepare();
      ok = guarded([&] { ops.traced_call(log, rep, p); }, "ops");
      res.check(ok && ops.verify(), "ops output");
    }
    ops.release_outputs();
  }
  for (int rep = 0; rep < kLayerReps; ++rep) {
    size_t distinct = 0;
    {
      span_log::scope s(log, "ops.seq_unordered_map", rep);
      distinct = ops.sequential_word_count();
    }
    res.check(distinct == ops.words_present(), "sequential word count");
  }
  res.add("ops.collect_reduce_s", median_of(log, "ops.collect_reduce"), "s");
  res.add("ops.equi_join_s", median_of(log, "ops.equi_join"), "s");
  res.add("ops.count_by_key_s", median_of(log, "ops.count_by_key"), "s");
  res.add("ops.seq_hashmap_ratio",
          median_of(log, "ops.collect_reduce") /
              median_of(log, "ops.seq_unordered_map"),
          "ratio");
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

// Everything a run reports besides the final result line.
struct report {
  std::string routing;
  double copy_gbs = 0;
  std::vector<double> call_times;
  std::vector<double> single_times;  // one-worker calls
  std::vector<double> setup_times;
  std::string tail;  // "p<percentile> of <samples>"
};

// The highest percentile with kTailBeyond samples beyond it.
double tail_time(std::vector<double> v, std::string& label) {
  std::sort(v.begin(), v.end());
  size_t idx = v.size() > kTailBeyond ? v.size() - 1 - kTailBeyond : 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.1f of %zu calls",
                100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size()),
                v.size());
  label = buf;
  return v.empty() ? 0.0 : v[idx];
}

double measure_copy_gbs(worker_pool& pool, const record_set& in) {
  std::vector<record> dst(in.recs.size());
  std::vector<double> t;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    timer w;
    parallel_copy(pool, in.recs, dst);
    t.push_back(w.elapsed());
  }
  return copy_gbs(in.recs.size(), median(t));
}

void run_end_to_end(const options& o, workload& w, result& res, report& rep) {
  const int workers = pool_size();
  std::unique_ptr<worker_pool> pool;
  std::unique_ptr<pipeline_context> ctx;
  // Set-up: pool start plus the first, cold call on a fresh context.
  for (int k = 0; k < kSetups; ++k) {
    ctx.reset();
    pool.reset();
    w.prepare();
    timer t;
    pool = std::make_unique<worker_pool>(workers);
    ctx = std::make_unique<pipeline_context>();
    bool ok = guarded([&] { w.call(call_params(*pool, ctx.get())); }, "cold call");
    rep.setup_times.push_back(t.elapsed());
    res.check(ok && w.verify(), "cold call output");
  }

  // Warm calls, with the same calls on a one-worker pool (the
  // single-thread baseline) interleaved so that both medians sample the
  // whole run: host load drifts on that time scale.
  semisort_params p = call_params(*pool, ctx.get());
  worker_pool one(1);
  semisort_params p1 = call_params(one, ctx.get());
  std::vector<double>& single = rep.single_times;
  double busy = 0, busy1 = 0;
  auto timed = [&](const semisort_params& q, const char* what) {
    w.prepare();
    timer t;
    bool ok = guarded([&] { w.call(q); }, what);
    double s = t.elapsed();
    res.check(ok && w.verify(), what);
    return s;
  };
  while (busy < o.seconds || rep.call_times.size() <= kTailBeyond ||
         busy1 < o.seconds / 2 || single.size() < 3) {
    if (busy < o.seconds || rep.call_times.size() <= kTailBeyond) {
      rep.call_times.push_back(timed(p, "warm call"));
      busy += rep.call_times.back();
    }
    if (busy1 < busy / 2 || (busy >= o.seconds && single.size() < 3)) {
      single.push_back(timed(p1, "1-worker call"));
      busy1 += single.back();
    }
  }
  double rss = peak_rss_mb();

  bool ok = guarded([&] { rep.routing = w.routing(p); }, "stats-on call");
  res.check(ok && w.verify(), "stats-on call output");
  rep.copy_gbs = measure_copy_gbs(*pool, w.layer_records());

  double rows = static_cast<double>(w.rows_per_call());
  res.add("throughput_mrec_s", rows / median(rep.call_times) / 1e6, "Mrec/s");
  res.add("call_tail_s", tail_time(rep.call_times, rep.tail), "s");
  res.add("setup_s", median(rep.setup_times), "s");
  res.add("peak_rss_mb", rss, "MB");
  res.add("throughput_1w_mrec_s", rows / median(single) / 1e6, "Mrec/s");
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (double t : v) {
    std::snprintf(buf, sizeof buf, "%.9f", t);
    s += (s.size() > 1 ? ", " : "") + std::string(buf);
  }
  return s + "]";
}

std::string fmt_json_map(const std::map<std::string, double>& m) {
  std::string s = "{";
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%.9f", v);
    s += (s.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
  }
  return s + "}";
}

void run_traced(const options& o, workload& w, result& res, report& rep,
                const std::string& span_path) {
  worker_pool pool(pool_size());
  auto ctx = std::make_unique<pipeline_context>();
  semisort_params p = call_params(pool, ctx.get());
  span_log log;

  w.prepare();
  bool ok = guarded([&] { w.call(p); }, "warm-up call");
  res.check(ok && w.verify(), "warm-up call output");

  // The workload's own call, traced and untraced, back to back: the span
  // tree of a traced call accounts for its wall time, and the two medians
  // give the tracing overhead.
  std::vector<double> traced, untraced, self_sums;
  timer phase;
  for (int it = 0; phase.elapsed() < o.seconds || it < kLayerReps; ++it) {
    w.prepare();
    size_t root = log.spans().size();
    double d = 0;
    {
      span_log::scope call(log, "call", it);
      ok = guarded([&] { w.traced_call(log, it, p); }, "traced call");
      d = call.close();
    }
    res.check(ok && w.verify(), "traced call output");
    traced.push_back(d);
    self_sums.push_back(log.tree_self_sum(root));

    w.prepare();
    timer t;
    ok = guarded([&] { w.call(p); }, "untraced call");
    untraced.push_back(t.elapsed());
    res.check(ok && w.verify(), "untraced call output");
  }
  rep.call_times = untraced;
  ok = guarded([&] { rep.routing = w.routing(p); }, "stats-on call");
  res.check(ok && w.verify(), "stats-on call output");

  const record_set& recs = w.layer_records();
  core_layer(log, res, pool, *ctx, recs);
  // Free the semisort's outputs and scratch before the radix baseline, so
  // the two never hold memory at once.
  w.release_outputs();
  ctx.reset();
  sort_layer(log, res, pool, recs);
  primitive_layers(log, res, pool, recs);
  shard_layer(log, res, pool, recs);
  if (auto* ops = dynamic_cast<ops_workload*>(&w)) {
    ops_layer(log, res, pool, *ops, /*already_traced=*/true);
  } else {
    ops_workload own(o.seed);
    ops_layer(log, res, pool, own, /*already_traced=*/false);
  }
  res.add("scheduler.sequential_fallbacks",
          static_cast<double>(pool.sequential_fallbacks()), "count");
  rep.copy_gbs = copy_gbs(recs.recs.size(), median_of(log, "mem.copy"));

  double traced_s = median(traced), untraced_s = median(untraced);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"untraced_call_s\": %.9f, \"traced_call_s\": %.9f, "
                "\"tracing_overhead\": %.6f, \"call_self_sum_s\": %.9f",
                o.workload.c_str(), o.seed, untraced_s, traced_s,
                traced_s / untraced_s - 1.0, median(self_sums));
  std::map<std::string, double> selfs = log.median_self_times();
  std::string summary = std::string(buf) + ",\n\"median_self_s\": " +
                        fmt_json_map(selfs);
  if (!log.write_json(span_path, summary))
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());

  std::printf("tracing: traced call %.6f s (self times sum %.6f s), untraced "
              "%.6f s, overhead %+.2f%%\n",
              traced_s, median(self_sums), untraced_s,
              100.0 * (traced_s / untraced_s - 1.0));
  std::printf("layer self times (median per span, s):\n");
  for (const auto& [name, t] : selfs) std::printf("  %-40s %.6f\n", name.c_str(), t);
}

std::string host_json(const options& o, double copy_gbs) {
  std::string isa = simd::isa_name();
#if defined(__AVX512F__)
  isa += "+avx512f";
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"isa\": \"%s\", \"l3_bytes\": %ld, "
                "\"compiler\": \"%s\", \"source\": \"%s\", \"mem_copy_gbs\": %.3f}",
                std::thread::hardware_concurrency(), isa.c_str(),
                sysconf(_SC_LEVEL3_CACHE_SIZE), __VERSION__, o.source_id.c_str(),
                copy_gbs);
  return buf;
}

bool parse(int argc, char** argv, options& o) {
  bool have_w = false, have_seed = false, have_s = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], v = argv[i + 1];
    try {
      if (flag == "--workload") { o.workload = v; have_w = true; }
      else if (flag == "--seed") { o.seed = std::stoull(v); have_seed = true; }
      else if (flag == "--seconds") { o.seconds = std::stod(v); have_s = true; }
      else if (flag == "--trace") o.trace = std::stoi(v);
      else if (flag == "--out-dir") o.out_dir = v;
      else if (flag == "--source-id") o.source_id = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <uniform-1e7|exp-1e7-budget|ops-raw> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--source-id <id>]\n");
    return 2;
  }
  parsemi::timer gen;
  std::unique_ptr<workload> w = make_workload(o.workload, o.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: inputs generated in %.2f s\n", gen.elapsed());

  result res;
  report rep;
  std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  if (o.trace == 1) {
    run_traced(o, *w, res, rep, stem + "-spans.json");
  } else {
    run_end_to_end(o, *w, res, rep);
  }

  std::string host = host_json(o, rep.copy_gbs);
  std::printf("host: %s\n", host.c_str());
  std::printf("routing: %s\n", rep.routing.c_str());
  if (!rep.tail.empty()) std::printf("call_tail_s is the %s\n", rep.tail.c_str());
  std::printf("fail_frac: %zu/%zu = %.6f\n", res.failed, res.attempted,
              static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  for (const metric& m : res.metrics)
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string path = stem + "-trace" + std::to_string(o.trace) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"trace\": %d, \"host\": %s, \"routing\": \"%s\", "
                 "\"call_times_s\": %s, \"single_worker_times_s\": %s, "
                 "\"setup_times_s\": %s, \"result\": %s}\n",
                 o.workload.c_str(), o.seed, o.trace, host.c_str(),
                 rep.routing.c_str(), json_list(rep.call_times).c_str(),
                 json_list(rep.single_times).c_str(),
                 json_list(rep.setup_times).c_str(), res.json().c_str());
    std::fclose(f);
  }
  std::printf("%s\n", res.json().c_str());
  return 0;
}
