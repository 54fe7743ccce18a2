// Table 3 reproduction: RAPTOR's slowdown in practice.
//
// Measures wall-clock overhead of the instrumented Sedov run against the
// uninstrumented native baseline at a 12-bit mantissa, across the M-l
// cutoffs, for:
//   * op-mode, naive allocation (per-op heap cells ~ mpfr_init2/clear),
//   * op-mode, scratch-pad allocation (the Fig. 4b optimization),
//   * both with operation counting enabled (the paper's second block),
//   * the hardware fast path at a native format (fp32) — near-zero
//     emulation overhead (§3.4),
//   * mem-mode (baseline truncate-hydro and with Recon excluded; both cost
//     alike since exclusion is handled dynamically, paper fn. 20).
//
// The sedov rows pin hc.batch = false so they keep measuring the paper's
// per-op scalar dispatch. The batched op-mode dispatch (DESIGN.md §8) is
// measured separately on the two wired inner loops — the WENO5 row kernel
// and the PLM reconstruction pencil — as
//     overhead_ratio = (t_scalar - t_native) / (t_batch - t_native)
// for the non-hardware format e8m12, plus an end-to-end Sedov comparison
// with hc.batch on/off. Everything is written to table3_overhead.csv and,
// for the recorded perf trajectory, BENCH_table3.json (bench/report.hpp's
// layout, like BENCH_simd.json below).
//
// Expected shape: overhead tracks the truncated-op share; scratch beats
// naive by 2-3x; counting adds measurable cost; mem-mode is the most
// expensive; the batched loops beat scalar dispatch by >= 3x overhead.
//
// The two loop benches additionally re-measure the batched phase once per
// supported SIMD dispatch path (DESIGN.md §13) — the forced-portable run is
// the pre-SIMD per-element loop body, so batch_portable_s / batch_<best>_s
// is the SIMD speedup — and write the per-path numbers to BENCH_simd.json.
// The per-op costs under these loops (the batch::Vec lane-control ops and
// the Format{11,m} mantissa rows on every path) are overhead_ladder's
// `paths` table.
//
// Options: --level=N, --steps=N, --csv=..., --json=..., --simd-json=...,
//   --loops-only (skip the Sedov table; CI), --gate-simd=N (exit nonzero
//   unless the best SIMD path is >= N times the portable path on both
//   loops; no-op when only the portable path is supported).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/report.hpp"
#include "incomp/weno.hpp"
#include "io/csv.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"
#include "trunc/span_ops.hpp"

using namespace raptor;

namespace {

struct Measurement {
  double seconds = 0.0;
  double trunc_frac = 0.0;
};

constexpr sf::simd::Path kAllPaths[3] = {sf::simd::Path::Portable, sf::simd::Path::Avx2,
                                         sf::simd::Path::Avx512};

struct LoopBench {
  double native_s = 0.0, scalar_s = 0.0, batch_s = 0.0;
  /// Batched phase re-measured under each supported forced SIMD path,
  /// indexed by Path; -1 marks paths this binary/CPU cannot run. The
  /// portable entry is the pre-SIMD per-element loop body, so
  /// batch_path_s[Portable] / batch_path_s[best] is the SIMD speedup.
  double batch_path_s[3] = {-1.0, -1.0, -1.0};
  [[nodiscard]] double overhead_ratio() const {
    const double denom = batch_s - native_s;
    return denom > 0.0 ? (scalar_s - native_s) / denom : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    double best = batch_path_s[0];
    for (const double s : batch_path_s) {
      if (s > 0.0 && s < best) best = s;
    }
    return best > 0.0 ? batch_path_s[0] / best : 0.0;
  }
};

/// WENO5 advection row at format e8m12: native doubles, per-cell scalar Real
/// dispatch (per-cell TruncScope, as the solver's scalar path), and the
/// batched Vec path (one scope per row).
LoopBench bench_weno_row(int n, int reps) {
  auto& R = rt::Runtime::instance();
  std::vector<double> phi_d(n + 6);
  for (int i = 0; i < n + 6; ++i) phi_d[i] = std::sin(0.05 * i) + 1.5;
  const double h = 1.0 / n;
  const auto spec = rt::TruncationSpec::trunc64(8, 12);
  LoopBench out;

  {
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < n; ++i) {
        sink = sink + incomp::weno5_derivative<double>(
                          [&](int k) -> double { return phi_d[i + 3 + k]; }, 1.0, h);
      }
    }
    out.native_s = t.seconds();
  }

  R.reset_all();
  {
    std::vector<Real> phi(phi_d.begin(), phi_d.end());
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < n; ++i) {
        TruncScope sc(spec);
        sink = sink + to_double(incomp::weno5_derivative<Real>(
                          [&](int k) -> Real { return phi[i + 3 + k]; }, 1.0, h));
      }
    }
    out.scalar_s = t.seconds();
  }

  const auto run_batch = [&](sf::simd::Path p) {
    R.reset_all();
    R.force_simd_path(p);
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      TruncScope sc(spec);
      const auto d = [&](int off) {
        return batch::Vec::gather(static_cast<std::size_t>(n), [&](std::size_t k) {
          return phi_d[k + 3 + static_cast<std::size_t>(off)];
        });
      };
      const batch::Vec ih(1.0 / h);
      const batch::Vec v1 = (d(-2) - d(-3)) * ih;
      const batch::Vec v2 = (d(-1) - d(-2)) * ih;
      const batch::Vec v3 = (d(0) - d(-1)) * ih;
      const batch::Vec v4 = (d(1) - d(0)) * ih;
      const batch::Vec v5 = (d(2) - d(1)) * ih;
      const batch::Vec dv = incomp::weno5<batch::Vec>(v1, v2, v3, v4, v5);
      sink = sink + dv[0];
    }
    const double s = t.seconds();
    R.reset_all();
    return s;
  };
  for (const sf::simd::Path p : kAllPaths) {
    if (sf::simd::path_supported(p)) {
      out.batch_path_s[static_cast<int>(p)] = run_batch(p);
    }
  }
  out.batch_s = out.batch_path_s[static_cast<int>(sf::simd::default_path())];
  return out;
}

/// PLM reconstruction pencil at format e8m12: plm_pencil<double> /
/// plm_pencil<Real> / plm_face<batch::Vec> (one lane per face) over the same
/// pencil.
LoopBench bench_plm_pencil(int n, int reps) {
  auto& R = rt::Runtime::instance();
  constexpr int ng = 2;
  const auto spec = rt::TruncationSpec::trunc64(8, 12);
  LoopBench out;

  const auto fill = [&](auto& w) {
    for (int c = 0; c < n + 2 * ng; ++c) {
      w[c].rho = 1.0 + 0.3 * std::sin(0.11 * c);
      w[c].un = 0.5 * std::cos(0.07 * c);
      w[c].ut = 0.1 * std::sin(0.05 * c);
      w[c].p = 2.0 + std::cos(0.13 * c);
    }
  };

  {
    std::vector<hydro::PrimState<double>> w(n + 2 * ng), wl(n + 1), wr(n + 1);
    fill(w);
    Timer t;
    for (int r = 0; r < reps; ++r) {
      hydro::plm_pencil(w, wl, wr, n, ng, hydro::ReconKind::PLM, 1e-10, 1e-14);
    }
    out.native_s = t.seconds();
  }

  R.reset_all();
  {
    std::vector<hydro::PrimState<Real>> w(n + 2 * ng), wl(n + 1), wr(n + 1);
    fill(w);
    TruncScope sc(spec);
    Timer t;
    for (int r = 0; r < reps; ++r) {
      hydro::plm_pencil(w, wl, wr, n, ng, hydro::ReconKind::PLM, 1e-10, 1e-14);
    }
    out.scalar_s = t.seconds();
  }

  const auto run_batch = [&](sf::simd::Path p) {
    R.reset_all();
    R.force_simd_path(p);
    using P = hydro::PrimState<Real>;
    std::vector<P> w(n + 2 * ng);
    fill(w);
    // The cells at offset `off` from every face, one lane per face.
    const auto at_faces = [&](int off) {
      const auto lanes = [&](Real P::* m) {
        return batch::Vec::gather(static_cast<std::size_t>(n) + 1,
                                  [&](std::size_t f) { return (w[f + ng + off].*m).raw(); });
      };
      return hydro::PrimState<batch::Vec>{lanes(&P::rho), lanes(&P::un), lanes(&P::ut),
                                          lanes(&P::p)};
    };
    TruncScope sc(spec);
    Timer t;
    for (int r = 0; r < reps; ++r) {
      hydro::PrimState<batch::Vec> wl, wr;
      hydro::plm_face(at_faces(-2), at_faces(-1), at_faces(0), at_faces(1), wl, wr, 1e-10, 1e-14);
    }
    const double s = t.seconds();
    R.reset_all();
    return s;
  };
  for (const sf::simd::Path p : kAllPaths) {
    if (sf::simd::path_supported(p)) {
      out.batch_path_s[static_cast<int>(p)] = run_batch(p);
    }
  }
  out.batch_s = out.batch_path_s[static_cast<int>(sf::simd::default_path())];
  return out;
}

/// Per-path loop-bench measurement + BENCH_simd.json + the CI speedup gate.
/// Returns nonzero when gating is requested and the best SIMD path is not at
/// least `gate_simd` times the portable path on both loops (skipped — with a
/// note — when only the portable path exists, e.g. non-x86 runners).
int simd_bench_and_gate(const LoopBench& weno, const LoopBench& plm, const std::string& path,
                        int gate_simd) {
  std::printf("\n# SIMD batch kernels, format e8m12 (forced per-path batch timings):\n");
  for (const auto& [name, lb] : {std::pair<const char*, const LoopBench&>{"weno row", weno},
                                 {"plm pencil", plm}}) {
    std::printf("%-16s", name);
    for (const sf::simd::Path p : kAllPaths) {
      const double s = lb.batch_path_s[static_cast<int>(p)];
      if (s >= 0.0) std::printf("  %s %.4fs", sf::simd::path_name(p), s);
    }
    std::printf("  speedup %.2fx\n", lb.simd_speedup());
  }

  const bool vector_paths = sf::simd::best_path() != sf::simd::Path::Portable;
  const bool pass = !vector_paths || std::min(weno.simd_speedup(), plm.simd_speedup()) >=
                                         static_cast<double>(gate_simd);
  bench::Report report("simd_batch_kernels");
  report.params.set("format", "e8m12");
  report.gates.set("min_speedup", gate_simd).set("pass", pass);
  for (const auto& [name, lb] : {std::pair<const char*, const LoopBench&>{"weno_row", weno},
                                 {"plm_pencil", plm}}) {
    bench::Row& row = report.row("loops");
    row.set("loop", name).set("native_s", lb.native_s).set("scalar_s", lb.scalar_s);
    for (const sf::simd::Path p : kAllPaths) {
      const double s = lb.batch_path_s[static_cast<int>(p)];
      if (s >= 0.0) row.set(std::string("batch_") + sf::simd::path_name(p) + "_s", s);
    }
    row.set("simd_speedup", lb.simd_speedup());
  }
  if (report.write(path)) std::printf("# wrote %s\n", path.c_str());
  if (gate_simd <= 0) return 0;
  if (!vector_paths) {
    std::printf("# gate-simd skipped: only the portable path is supported here\n");
    return 0;
  }
  std::printf("# gate-simd=%d: %s (weno %.2fx, plm %.2fx)\n", gate_simd,
              pass ? "PASS" : "FAIL", weno.simd_speedup(), plm.simd_speedup());
  return pass ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int max_level = cli.get_int("level", 3);
  const int steps = cli.get_int("steps", 12);
  const int mantissa = 12;
  const bool loops_only = cli.has("loops-only");
  const int gate_simd = cli.get_int("gate-simd", 0);

  // -- Batched op-mode dispatch on the wired inner loops (DESIGN.md §8/§13),
  // measured first so --loops-only (CI) can skip the Sedov table entirely.
  const LoopBench weno = bench_weno_row(4096, 200);
  const LoopBench plm = bench_plm_pencil(4096, 200);
  std::printf("# batched dispatch, format e8m12 (overhead vs native, scalar/batched):\n");
  std::printf("%-16s native %.4fs  scalar %.4fs  batch %.4fs  overhead ratio %.1fx\n",
              "weno row", weno.native_s, weno.scalar_s, weno.batch_s, weno.overhead_ratio());
  std::printf("%-16s native %.4fs  scalar %.4fs  batch %.4fs  overhead ratio %.1fx\n",
              "plm pencil", plm.native_s, plm.scalar_s, plm.batch_s, plm.overhead_ratio());
  const int gate_rc =
      simd_bench_and_gate(weno, plm, cli.get("simd-json", "BENCH_simd.json"), gate_simd);
  if (loops_only) return gate_rc;

  hydro::SedovParams sp;
  const auto grid_cfg = hydro::sedov_grid_config(max_level);
  auto& R = rt::Runtime::instance();

  // Shared fixed dt so every run does identical work.
  amr::AmrGrid<double> probe(grid_cfg);
  probe.build_with_ic(
      [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
  hydro::HydroConfig hc0;
  hydro::HydroSolver<double> probe_solver(hc0);
  const double fixed_dt = 0.5 * probe_solver.compute_dt(probe);

  const auto run_native = [&]() {
    amr::AmrGrid<double> grid(grid_cfg);
    grid.build_with_ic(
        [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
    hydro::HydroConfig hc;
    hydro::HydroSolver<double> solver(hc);
    Timer t;
    for (int s = 0; s < steps; ++s) {
      if (s > 0 && s % 4 == 0) grid.regrid();
      solver.step(grid, fixed_dt);
    }
    return t.seconds();
  };

  // One instrumented Sedov run; `excluded` names a region left untruncated
  // (null: none).
  const auto run_instrumented = [&](int cutoff, rt::Mode mode, rt::AllocStrategy alloc,
                                    bool counting, bool hw, int man, bool batch,
                                    const char* excluded = nullptr) {
    R.reset_all();
    R.set_mode(mode);
    R.set_alloc_strategy(alloc);
    R.set_counting(counting);
    R.set_hw_fastpath(hw);
    if (excluded != nullptr) R.exclude_region(excluded);
    Measurement m;
    {
      // Inner scope: mem-mode's grid holds shadow handles, released before
      // reset_all() recycles the table.
      amr::AmrGrid<Real> grid(grid_cfg);
      grid.build_with_ic(
          [&sp](double x, double y, std::span<Real> v) { hydro::sedov_init(sp, x, y, v); });
      hydro::HydroConfig hc;
      hc.trunc = rt::TruncationSpec::trunc64(hw ? 8 : 11, hw ? 23 : man);
      // The paper's Table 3 measures per-op scalar dispatch; batch is the §8
      // comparison knob (mem-mode always takes the scalar row loop).
      hc.batch = batch;
      const int M = max_level;
      hc.trunc_enabled = [M, cutoff](int level) { return level <= M - cutoff; };
      hydro::HydroSolver<Real> solver(hc);
      Timer t;
      for (int s = 0; s < steps; ++s) {
        if (s > 0 && s % 4 == 0) grid.regrid();
        solver.step(grid, fixed_dt);
      }
      m.seconds = t.seconds();
      // The truncated share, when counting was on.
      if (counting) {
        m.trunc_frac = R.counters().trunc_fraction();
      }
    }
    R.reset_all();
    return m;
  };

  // The native baseline is the best of 3 runs: a run lasts a few
  // milliseconds, so one sample is at the mercy of the host, and every x
  // column divides by it.
  double base = run_native();
  for (int rep = 1; rep < 3; ++rep) base = std::min(base, run_native());
  std::printf("# Table 3: slowdown of RAPTOR in practice (Sedov, %d-bit mantissa, %d steps)\n",
              mantissa, steps);
  std::printf("# native baseline (best of 3): %.4f s\n\n", base);
  std::printf("%-34s %-8s %-12s %-12s %-10s %-10s\n", "configuration", "cutoff", "naive(s)",
              "opt(s)", "naive(x)", "opt(x)");

  io::CsvWriter csv(cli.get("csv", "table3_overhead.csv"),
                    {"mode", "cutoff_l", "naive_s", "opt_s", "naive_x", "opt_x", "trunc_frac"});
  bench::Report report("table3_overhead");
  report.params.set("level", max_level)
      .set("steps", steps)
      .set("mantissa", mantissa)
      .set("batch_format", "e8m12");
  // One Table 3 row: naive- and scratch-allocation seconds (0: not run),
  // their slowdowns against native, and the truncated flop share (-1: not
  // counted).
  const auto table_row = [&](const char* mode, int cutoff, double naive_s, double opt_s,
                             double trunc_frac) {
    report.row("rows")
        .set("mode", mode)
        .set("cutoff_l", cutoff)
        .set("naive_s", naive_s)
        .set("opt_s", opt_s)
        .set("naive_x", naive_s / base)
        .set("opt_x", opt_s / base)
        .set("trunc_frac", trunc_frac);
  };

  const auto block = [&](const char* name, bool counting) {
    for (const int cutoff : {0, 1, 2, 3}) {
      const auto naive = run_instrumented(cutoff, rt::Mode::Op, rt::AllocStrategy::Naive,
                                          counting, false, mantissa, false);
      const auto opt = run_instrumented(cutoff, rt::Mode::Op, rt::AllocStrategy::Scratch,
                                        counting, false, mantissa, false);
      std::printf("%-34s M-%-6d %-12.3f %-12.3f %-10.1f %-10.1f\n", name, cutoff, naive.seconds,
                  opt.seconds, naive.seconds / base, opt.seconds / base);
      csv.row_strings({name, std::to_string(cutoff), io::csv_number(naive.seconds),
                       io::csv_number(opt.seconds), io::csv_number(naive.seconds / base),
                       io::csv_number(opt.seconds / base),
                       io::csv_number(counting ? opt.trunc_frac : -1.0)});
      table_row(name, cutoff, naive.seconds, opt.seconds, counting ? opt.trunc_frac : -1.0);
    }
  };
  block("op-mode", false);
  block("op-mode with op counting", true);

  {
    const auto hw =
        run_instrumented(0, rt::Mode::Op, rt::AllocStrategy::Scratch, false, true, 23, false);
    std::printf("%-34s M-%-6d %-12s %-12.3f %-10s %-10.1f\n",
                "op-mode hw fast path (fp32)", 0, "-", hw.seconds, "-", hw.seconds / base);
    table_row("op-mode hw fast path (fp32)", 0, 0.0, hw.seconds, -1.0);
  }

  // Batched vs scalar end-to-end: with batch on, every hydro stage of a
  // block (primitive recovery, reconstruction, Riemann solve, update) runs
  // as batch calls over all its rows.
  Measurement sedov_scalar, sedov_batch;
  {
    sedov_scalar =
        run_instrumented(0, rt::Mode::Op, rt::AllocStrategy::Scratch, false, false, mantissa,
                         false);
    sedov_batch = run_instrumented(0, rt::Mode::Op, rt::AllocStrategy::Scratch, false, false,
                                   mantissa, true);
    std::printf("%-34s M-%-6d %-12.3f %-12.3f %-10.1f %-10.1f\n",
                "op-mode batched (all hydro stages)", 0, sedov_scalar.seconds,
                sedov_batch.seconds, sedov_scalar.seconds / base, sedov_batch.seconds / base);
    table_row("op-mode batched (all hydro stages)", 0, sedov_scalar.seconds, sedov_batch.seconds,
              -1.0);
  }

  // Mem-mode rows (paper: "Truncate Hydro" vs "Exclude Recon" — comparable
  // cost because exclusion is dynamic in the runtime).
  for (const bool exclude_recon : {false, true}) {
    const char* name = exclude_recon ? "mem-mode, exclude Recon" : "mem-mode, truncate hydro";
    const auto mem = run_instrumented(0, rt::Mode::Mem, rt::AllocStrategy::Scratch, true, false,
                                      mantissa, false, exclude_recon ? "hydro/recon" : nullptr);
    std::printf("%-34s M-%-6d %-12s %-12.3f %-10s %-10.1f  (trunc %.1f%%)\n", name, 0, "-",
                mem.seconds, "-", mem.seconds / base, 100.0 * mem.trunc_frac);
    table_row(name, 0, 0.0, mem.seconds, mem.trunc_frac);
  }

  // -- BENCH_table3.json: the recorded perf trajectory ---------------------
  for (const auto& [name, lb] : {std::pair<const char*, const LoopBench&>{"weno_row", weno},
                                 {"plm_pencil", plm}}) {
    report.row("batch_dispatch")
        .set("case", name)
        .set("native_s", lb.native_s)
        .set("scalar_s", lb.scalar_s)
        .set("batch_s", lb.batch_s)
        .set("overhead_ratio", lb.overhead_ratio());
  }
  report.row("batch_dispatch")
      .set("case", "sedov_end_to_end")
      .set("native_s", base)
      .set("scalar_s", sedov_scalar.seconds)
      .set("batch_s", sedov_batch.seconds)
      .set("speedup", sedov_batch.seconds > 0.0 ? sedov_scalar.seconds / sedov_batch.seconds : 0.0);
  const std::string json_path = cli.get("json", "BENCH_table3.json");
  if (report.write(json_path)) std::printf("# wrote %s\n", json_path.c_str());
  return gate_rc;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
