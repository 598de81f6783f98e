// Front-end dispatch ablation: both dispatch strategies (the pinned general
// pipeline and the adaptive selector, which takes the stable counting/radix
// path when the key domain is dense) on the paper's
// Table 1 distributions, in both key forms: pre-hashed (the paper's inputs
// — the domain probe must reject and fall back) and raw underlying keys
// (small dense integer domains — the counting path's home turf). Each run emits an order-insensitive output checksum so
// scripts/bench_compare.py can prove the paths are interchangeable, not
// just fast.
//
// Default here: n = 10^7 (pass --n 100000000 for paper scale); parameters
// are scaled by n/1e8 like table1_distributions. Use --dist <substring> to
// restrict the sweep, --keys hashed|raw to restrict the key form. Emits
// BENCH_ablation_dispatch.json with per-path telemetry (chosen path, key
// domain width, counting passes).
#include "common.h"

namespace {

using namespace parsemi;

// Commutative digest of the output multiset: every valid dispatch path
// emits some permutation with contiguous groups, so the digests must match
// exactly across paths on the same input.
uint64_t multiset_checksum(const std::vector<record>& out) {
  uint64_t sum = 0;
  for (const record& rec : out) {
    sum += hash64(rec.key + 0x9e3779b97f4a7c15ull * hash64(rec.payload));
  }
  return sum;
}

// Number of maximal equal-key runs: equals the distinct-key count iff the
// output is properly grouped.
size_t key_run_count(const std::vector<record>& out) {
  size_t runs = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i == 0 || out[i].key != out[i - 1].key) ++runs;
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parsemi;
  using namespace parsemi::bench;
  arg_parser args(argc, argv);
  size_t n = static_cast<size_t>(args.get_int("n", 10000000));
  int reps = static_cast<int>(args.get_int("reps", 2));
  int threads = static_cast<int>(args.get_int("threads", hardware_threads()));
  std::string dist_filter = args.get_string("dist", "");
  std::string key_filter = args.get_string("keys", "");
  bool scale = !args.has("noscale");

  print_context("Ablation: front-end dispatch (general / adaptive)", n);

  struct path_case {
    semisort_params::dispatch_strategy strategy;
    const char* label;
  };
  constexpr path_case kPaths[] = {
      {semisort_params::dispatch_strategy::general, "general"},
      {semisort_params::dispatch_strategy::adaptive, "adaptive"},
  };
  constexpr const char* kKeyForms[] = {"hashed", "raw"};

  // One arena across the whole sweep: after the first run per size the
  // paths are compared on equal (heap-quiet) footing.
  pipeline_context ctx;
  bench_json json("ablation_dispatch");
  ascii_table table({"distribution", "keys", "path", "time(s)", "Mrec/s",
                     "vs_general", "path_used", "width", "checksum"});

  set_num_workers(threads);
  for (auto spec : table1_distributions()) {
    if (scale) spec = scaled_to(spec, n);
    std::string label = dist_label(spec);
    if (!dist_filter.empty() &&
        label.find(dist_filter) == std::string::npos) {
      continue;
    }
    for (const char* key_form : kKeyForms) {
      if (!key_filter.empty() && key_filter != key_form) continue;
      bool raw = key_form[0] == 'r';
      auto in = raw ? generate_records_raw(n, spec, 42)
                    : generate_records(n, spec, 42);
      std::vector<record> out(n);

      double general_time = 0;
      for (const auto& pc : kPaths) {
        semisort_stats stats;
        semisort_params params;
        params.context = &ctx;
        params.dispatch_with = pc.strategy;
        double secs = time_semisort(in, reps, &stats, params);
        if (pc.strategy == semisort_params::dispatch_strategy::general) {
          general_time = secs;
        }
        // Digest the run that produced `stats` (time_semisort's internal
        // buffer is private, so redo one semisort into `out`).
        params.stats = nullptr;
        semisort_hashed(std::span<const record>(in), std::span<record>(out),
                        record_key{}, params);
        uint64_t checksum = multiset_checksum(out);
        size_t runs = key_run_count(out);

        char checksum_hex[32];
        std::snprintf(checksum_hex, sizeof checksum_hex, "%016llx",
                      static_cast<unsigned long long>(checksum));
        table.add_row({label, key_form, pc.label, fmt(secs, 3),
                       fmt(static_cast<double>(n) / secs / 1e6, 1),
                       general_time > 0 ? fmt(general_time / secs, 2) : "--",
                       to_string(stats.dispatch_path_used),
                       std::to_string(stats.key_domain_width), checksum_hex});
        json.add_row()
            .field("distribution", label)
            .field("keys", std::string(key_form))
            .field("n", n)
            .field("threads", threads)
            .field("path_requested", std::string(pc.label))
            .field("time_s", secs)
            .field("mrec_per_s", static_cast<double>(n) / secs / 1e6)
            .field("checksum", std::string(checksum_hex))
            .field("key_runs", runs)
            .stats(stats);
        std::fprintf(stderr, "  done: %s keys=%s path=%s\n", label.c_str(),
                     key_form, pc.label);
      }
    }
  }
  set_num_workers(1);

  std::printf("%s\n", table.to_string().c_str());
  if (args.has("csv")) std::printf("%s\n", table.to_csv().c_str());
  json.write();
  std::printf(
      "expected shape: checksum and key_runs identical down each\n"
      "(distribution, keys) column (the paths are interchangeable). On\n"
      "hashed keys adaptive falls back to the general pipeline (the\n"
      "probe rejects 64-bit hash values). On raw keys with small dense\n"
      "domains adaptive takes the counting path, which skips\n"
      "sampling/bucketing entirely and should beat general; wide or sparse\n"
      "raw domains fall back.\n");
  return 0;
}
