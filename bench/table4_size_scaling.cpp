// Table 4: running time (sequential and parallel), speedup, and records per
// second of the semisort for input sizes across three decades, on the two
// representative distributions, plus the scatter / pack / scatter+pack
// baseline columns.
//
// Paper setting: n ∈ {10, 20, 50, 100, 200, 500, 1000} million. Defaults
// here run n ∈ {1, 2, 5, 10, 20} million; pass --sizes to extend, e.g.
//   --sizes 10000000,20000000,50000000,100000000
//
// The paper's largest point (10^9 records) runs out of core:
//   table4_size_scaling --sizes 1000000000 --budget 4G --reps 1
// With --budget set, runs whose input+output no longer fit beside the
// budget are held in file-backed mappings and the semisort itself shards
// under the budget (stats land in the `shard` sidecar object). Sequential
// and scatter/pack baselines are skipped above --seqlimit records so the
// large points do not spend hours in single-threaded baselines.
//
// --inplace switches the timed call to the in-place entry point (the input
// is restored by a copy inside the timed region, identically in every
// configuration). Under a budget this is the spill configuration — the
// partition round-trips through an mmap-backed spill run — which is what
// the overlapped-I/O comparison measures: run once with
// PARSEMI_SHARD_OVERLAP=off as baseline and once with the default as
// candidate, then gate with scripts/bench_compare.py --overlap-baseline.
#include "common.h"

#include "shard/spill_file.h"

int main(int argc, char** argv) {
  using namespace parsemi;
  using namespace parsemi::bench;
  arg_parser args(argc, argv);
  int reps = static_cast<int>(args.get_int("reps", 2));
  int max_threads =
      static_cast<int>(args.get_int("maxthreads", hardware_threads()));
  size_t budget = args.get_bytes("budget", 0);  // 0 = unlimited / env
  size_t seq_limit =
      static_cast<size_t>(args.get_int("seqlimit", 50000000));
  bool inplace = args.has("inplace");  // spill/overlap configuration

  std::vector<size_t> sizes;
  if (args.has("sizes")) {
    std::string list = args.get_string("sizes", "");
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      sizes.push_back(std::stoull(list.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  } else {
    sizes = {1000000, 2000000, 5000000, 10000000};
  }

  print_context("Table 4: scaling with input size + scatter/pack baseline",
                sizes.back());
  if (budget != 0) {
    std::printf("memory budget: %zu bytes (semisort shards when exceeded)\n\n",
                budget);
  }

  // One context across every size and distribution: the arena only grows,
  // so all but the first run at each size are heap-quiet, and the JSON
  // shows the memory plan (peak scratch, arena allocs) per configuration.
  pipeline_context ctx;
  bench_json json("table4_size_scaling");

  std::vector<std::pair<const char*, distribution_kind>> dists = {
      {"exponential(n/1e3)", distribution_kind::exponential},
      {"uniform(n)", distribution_kind::uniform},
  };

  for (auto& [title, kind] : dists) {
    ascii_table table({"n", "seq(s)", "par(s)", "speedup", "Mrec/s",
                       "scatter(s)", "pack(s)", "scatter+pack(s)", "shards"});
    for (size_t n : sizes) {
      uint64_t param = kind == distribution_kind::exponential
                           ? std::max<uint64_t>(1, n / 1000)
                           : n;

      // Storage: heap vectors normally; file-backed mappings once a budget
      // is in force and input+output would dwarf it (the out-of-core
      // regime — the data itself is not supposed to fit beside the budget).
      size_t bytes = n * sizeof(record);
      bool file_backed = budget != 0 && 2 * bytes > budget;
      std::vector<record> in_vec, out_vec;
      spill_file in_file, out_file;
      std::span<record> in, out;
      if (file_backed) {
        in_file = spill_file(bytes);
        out_file = spill_file(bytes);
        in = in_file.as_span<record>();
        out = out_file.as_span<record>();
      } else {
        in_vec.resize(n);
        out_vec.resize(n);
        in = in_vec;
        out = out_vec;
      }
      generate_records_into(in, {kind, param}, 42);

      semisort_params params;
      params.context = &ctx;
      params.memory_budget_bytes = budget;
      semisort_stats stats;
      bool run_baselines = n <= seq_limit && !file_backed && !inplace;

      double seq = 0;
      if (run_baselines) {
        set_num_workers(1);
        seq = time_min(reps, [&] {
          semisort_hashed(std::span<const record>(in), out, record_key{},
                          params);
        });
      }
      set_num_workers(max_threads);
      params.stats = &stats;
      double par;
      if (inplace) {
        // Restore-then-sort inside the timed region: the copy is identical
        // across overlap on/off runs, so it cancels in the comparison.
        par = time_min(reps, [&] {
          std::copy(in.begin(), in.end(), out.begin());
          semisort_hashed_inplace(out, record_key{}, params);
        });
      } else {
        par = time_min(reps, [&] {
          semisort_hashed(std::span<const record>(in), out, record_key{},
                          params);
        });
      }
      params.stats = nullptr;
      scatter_pack_times sp{0, 0};
      if (run_baselines) sp = time_scatter_pack(in_vec, reps);
      set_num_workers(1);

      table.add_row({fmt_count(n), run_baselines ? fmt(seq, 3) : "-",
                     fmt(par, 3),
                     run_baselines ? fmt(seq / par, 2) : "-",
                     fmt(static_cast<double>(n) / par / 1e6, 1),
                     run_baselines ? fmt(sp.scatter, 3) : "-",
                     run_baselines ? fmt(sp.pack, 3) : "-",
                     run_baselines ? fmt(sp.scatter + sp.pack, 3) : "-",
                     std::to_string(stats.shards)});
      auto& row = json.add_row()
                      .field("distribution", std::string(title))
                      .field("n", n)
                      .field("threads", max_threads)
                      .field("memory_budget", budget)
                      .field("entry", inplace ? std::string("inplace")
                                              : std::string("copy"))
                      .field("file_backed", static_cast<int>(file_backed))
                      .field("par_s", par);
      if (run_baselines) {
        row.field("seq_s", seq)
            .field("scatter_s", sp.scatter)
            .field("pack_s", sp.pack);
      }
      row.stats(stats);
      std::fprintf(stderr, "  done: %s n=%s shards=%zu\n", title,
                   fmt_count(n).c_str(), stats.shards);
    }
    std::printf("%s:\n%s\n", title, table.to_string().c_str());
    if (args.has("csv")) std::printf("%s\n", table.to_csv().c_str());
  }
  json.write();
  std::printf(
      "paper shape: records/second improves with n (fixed costs amortize);\n"
      "parallel semisort stays within ~1.5-2x of the raw scatter+pack lower\n"
      "bound, with the ratio improving at larger n. With --budget, the\n"
      "largest sizes run sharded (see the shard column / sidecar object).\n");
  return 0;
}
