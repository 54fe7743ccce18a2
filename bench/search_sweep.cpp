// Precision-search sweep cost (DESIGN.md §10): the search driver re-runs a
// workload dozens of times under candidate formats, so the sweep is only
// affordable because the substrates dispatch through the batch entry points
// (DESIGN.md §8). This bench measures exactly that margin:
//
//   1. scalar-vs-batch dispatch time for one truncated run of the Poisson
//      solve and the cellular detonation — each kernel written once, run
//      per cell on Real or as batch::Vec spans — the speedup is the factor
//      the whole sweep inherits;
//   2. a full precision search on each of the registered workloads —
//      Poisson, cellular burn, the broadened hydro corpus (double Mach
//      reflection, Rayleigh–Taylor, shock–bubble) and the per-level mesh
//      search (sod_amr) — reporting wall time and evaluations spent.
//
// Everything is written to search_sweep.csv (next to the binary unless
// --csv overrides) and, for the recorded perf
// trajectory, BENCH_search_sweep.json.
//
// Options: --quick, --tol=1e-3, --csv=PATH, --json=PATH.
#include <cstdio>
#include <string>
#include <vector>

#include "burn/cellular.hpp"
#include "incomp/poisson.hpp"
#include "io/csv.hpp"
#include "search/workloads.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

using namespace raptor;

namespace {

/// One truncated Poisson solve; returns seconds.
double time_poisson(int n, bool batch) {
  const double h = 1.0 / n;
  incomp::PoissonSolver<Real> solver(n, n, h, h);
  solver.set_batch(batch);
  std::vector<double> beta_x(static_cast<std::size_t>(n + 1) * n, 0.0);
  std::vector<double> beta_y(static_cast<std::size_t>(n) * (n + 1), 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 1; i < n; ++i) beta_x[static_cast<std::size_t>(j) * (n + 1) + i] = 1.0;
  }
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < n; ++i) beta_y[static_cast<std::size_t>(j) * n + i] = 1.0;
  }
  std::vector<double> rhs(static_cast<std::size_t>(n) * n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      rhs[static_cast<std::size_t>(j) * n + i] =
          std::cos(M_PI * (i + 0.5) * h) * std::cos(M_PI * (j + 0.5) * h);
    }
  }
  std::vector<Real> p(rhs.size(), Real(0.0));
  Timer t;
  solver.solve(p, rhs, beta_x, beta_y, 1e-8, 2000);
  return t.seconds();
}

/// A few truncated cellular steps; returns seconds.
double time_cellular(int n, int steps, bool batch) {
  burn::CellularConfig cc;
  cc.n = n;
  cc.batch = batch;
  burn::CellularSim<Real> sim(cc);
  Timer t;
  for (int s = 0; s < steps; ++s) sim.step();
  return t.seconds();
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  auto& R = rt::Runtime::instance();
  // Default the CSV next to the binary (build/bench/), not the cwd — running
  // the bench from a source checkout must not strew artifacts into the repo.
  std::string default_csv = cli.program();
  const std::size_t slash = default_csv.find_last_of('/');
  default_csv = slash == std::string::npos ? std::string("search_sweep.csv")
                                           : default_csv.substr(0, slash + 1) + "search_sweep.csv";
  io::CsvWriter csv(cli.get("csv", default_csv),
                    {"case", "scalar_s", "batch_s", "speedup"});
  struct DispatchRow {
    std::string name;
    double scalar_s = 0.0, batch_s = 0.0;
  };
  struct SearchRow {
    std::string name;
    double time_s = 0.0, err = 0.0, trunc_frac = 0.0, trunc_share = 0.0;
    int evals = 0;
  };
  std::vector<DispatchRow> dispatch_rows;
  std::vector<SearchRow> search_rows;

  std::printf("search sweep dispatch cost (one truncated run each)\n");
  std::printf("%-12s %12s %12s %10s\n", "case", "scalar [s]", "batch [s]", "speedup");

  // Inside the fast-kernel envelope (exp <= 11, man <= 24): the batch
  // path swaps the BigFloat emulator for the fast_round integer kernels
  // on top of saving the per-op dispatch.
  const rt::TruncationSpec spec = rt::TruncationSpec::trunc64(8, 20);
  {
    R.reset_all();
    R.set_region_format("poisson", spec);
    const int n = quick ? 32 : 64;
    const double ts = time_poisson(n, /*batch=*/false);
    const double tb = time_poisson(n, /*batch=*/true);
    std::printf("%-12s %12.3f %12.3f %9.1fx\n", "poisson", ts, tb, ts / tb);
    csv.row_strings({"poisson", std::to_string(ts), std::to_string(tb),
                     std::to_string(ts / tb)});
    dispatch_rows.push_back({"poisson", ts, tb});
  }
  {
    R.reset_all();
    for (const char* region : {"eos", "hydro", "burn"}) R.set_region_format(region, spec);
    const int n = quick ? 48 : 128;
    const int steps = quick ? 8 : 25;
    const double ts = time_cellular(n, steps, /*batch=*/false);
    const double tb = time_cellular(n, steps, /*batch=*/true);
    std::printf("%-12s %12.3f %12.3f %9.1fx\n", "cellular", ts, tb, ts / tb);
    csv.row_strings({"cellular", std::to_string(ts), std::to_string(tb),
                     std::to_string(ts / tb)});
    dispatch_rows.push_back({"cellular", ts, tb});
  }

  std::printf("\nfull precision search (batch dispatch)\n");
  // trunc% counts flops only; share (SearchResult::trunc_share) weighs each
  // searched region by its flops plus memory words, so mesh searches whose
  // regions move bytes rather than flops read honestly.
  std::printf("%-16s %12s %12s %12s %14s %10s\n", "workload", "time [s]", "evals", "err",
              "trunc% flops", "share");
  search::WorkloadOptions wopts;
  wopts.quick = quick;
  search::SearchOptions sopts;
  sopts.tolerance = cli.get_double("tol", 1e-3);
  for (const char* name :
       {"poisson", "burn", "dmr", "rayleigh_taylor", "shock_bubble", "sod_amr"}) {
    search::SearchOptions wl_opts = sopts;
    // The mesh workload's knobs (per-level guard regions) are a tiny flop
    // share next to the hydro stages; don't let the share filter skip them.
    if (std::string(name) == "sod_amr") wl_opts.min_flop_share = 0.0;
    const search::PrecisionSearch driver(wl_opts);
    Timer t;
    const auto res = driver.run(search::builtin_workload(name, wopts));
    std::printf("%-16s %12.2f %12d %12.3e %13.1f%% %10.3f\n", name, t.seconds(),
                res.evaluations, res.final_error, 100.0 * res.trunc_fraction, res.trunc_share);
    csv.row_strings({std::string("search_") + name, std::to_string(t.seconds()),
                     std::to_string(res.evaluations), std::to_string(res.final_error)});
    search_rows.push_back({name, t.seconds(), res.final_error, res.trunc_fraction,
                           res.trunc_share, res.evaluations});
  }
  R.reset_all();

  // -- BENCH_search_sweep.json: the recorded perf trajectory -------------
  const std::string json_path = cli.get("json", "BENCH_search_sweep.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"search_sweep\", \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"dispatch\": [\n");
    for (std::size_t i = 0; i < dispatch_rows.size(); ++i) {
      const auto& r = dispatch_rows[i];
      std::fprintf(f,
                   "    {\"case\": \"%s\", \"scalar_s\": %.6g, \"batch_s\": %.6g, "
                   "\"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.scalar_s, r.batch_s, r.scalar_s / r.batch_s,
                   i + 1 < dispatch_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"search\": [\n");
    for (std::size_t i = 0; i < search_rows.size(); ++i) {
      const auto& r = search_rows[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"time_s\": %.6g, \"evaluations\": %d, "
                   "\"final_error\": %.6g, \"trunc_fraction_flops\": %.4f, "
                   "\"trunc_share\": %.4f}%s\n",
                   r.name.c_str(), r.time_s, r.evals, r.err, r.trunc_frac, r.trunc_share,
                   i + 1 < search_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
