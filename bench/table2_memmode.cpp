// Table 2 reproduction: numerically debugging Sedov with mem-mode.
//
// Runs the modular (Spark-like) hydro solver under mem-mode truncation with
// a fixed timestep (paper §6.3: "we keep the timestep of the solver
// constant") and walks the paper's exclusion ladder:
//   baseline        truncate the whole hydro module,
//   Recon           exclude reconstruction,
//   Recon+Riemann   exclude reconstruction and the Riemann solver,
//   Recon+Update    exclude reconstruction and the update stage,
// reporting the L1 errors of density and x-velocity vs the full-precision
// reference and the truncated-op share — plus the deviation heatmap that
// drives the workflow.
//
// Expected shape (paper Table 2): excluding Recon slightly improves both
// errors; adding Riemann makes them *worse*; adding Update is neutral.
//
// Options: --level=N, --steps=N, --mantissa=M.
#include "bench/common.hpp"
#include "io/csv.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

using namespace raptor;

namespace {

struct Row {
  std::string name;
  double l1_dens = 0.0;
  double l1_velx = 0.0;
  double trunc_frac = 0.0;
};

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int max_level = cli.get_int("level", 3);
  const int steps = cli.get_int("steps", 16);
  const int mantissa = cli.get_int("mantissa", 12);

  hydro::SedovParams sp;
  const auto grid_cfg = hydro::sedov_grid_config(max_level);

  // Reference (full precision) with the same fixed dt.
  amr::AmrGrid<double> ref(grid_cfg);
  ref.build_with_ic(
      [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
  hydro::HydroConfig hc_ref;
  hydro::HydroSolver<double> ref_solver(hc_ref);
  const double fixed_dt = 0.5 * ref_solver.compute_dt(ref);
  for (int s = 0; s < steps; ++s) {
    if (s > 0 && s % 4 == 0) ref.regrid();
    ref_solver.step(ref, fixed_dt);
  }
  const auto ref_dens = io::to_uniform(ref, hydro::DENS);
  const auto ref_velx = bench::velx_field(ref);

  auto& R = rt::Runtime::instance();
  Timer timer;

  const auto run_variant = [&](const std::string& name,
                               const std::vector<std::string>& excluded) {
    R.reset_all();
    R.set_mode(rt::Mode::Mem);
    R.set_deviation_threshold(1e-7);
    for (const auto& region : excluded) R.exclude_region(region);

    Row row;
    row.name = name;
    {
      // Inner scope: the grid (full of boxed mem-mode values) must release
      // its shadow entries before reset_all() recycles the table.
      amr::AmrGrid<Real> grid(grid_cfg);
      grid.build_with_ic(
          [&sp](double x, double y, std::span<Real> v) { hydro::sedov_init(sp, x, y, v); });
      hydro::HydroConfig hc;
      hc.trunc = rt::TruncationSpec::trunc64(11, mantissa);
      hydro::HydroSolver<Real> solver(hc);
      for (int s = 0; s < steps; ++s) {
        if (s > 0 && s % 4 == 0) grid.regrid();
        solver.step(grid, fixed_dt);
      }
      row.l1_dens = io::compare_fields(io::to_uniform(grid, hydro::DENS), ref_dens).l1;
      row.l1_velx = io::compare_fields(bench::velx_field(grid), ref_velx).l1;
      row.trunc_frac = R.counters().trunc_fraction();
    }
    const auto flags = R.flag_report();
    std::printf("  heatmap after '%s' (top regions by fresh deviations):\n", name.c_str());
    int shown = 0;
    for (const auto& rec : flags) {
      if (shown++ >= 4) break;
      std::printf("    %-16s %-6s flagged=%-8llu fresh=%-8llu maxdev=%.2e\n",
                  rec.location.c_str(), rt::op_name(rec.op),
                  static_cast<unsigned long long>(rec.flagged),
                  static_cast<unsigned long long>(rec.fresh), rec.max_deviation);
    }
    R.reset_all();
    return row;
  };

  std::printf("# Table 2: mem-mode debugging of Sedov (mantissa %d, fixed dt %.3e, %d steps)\n",
              mantissa, fixed_dt, steps);
  std::vector<Row> rows;
  rows.push_back(run_variant("Baseline (truncate hydro)", {}));
  rows.push_back(run_variant("Excl. Recon", {"hydro/recon"}));
  rows.push_back(run_variant("Excl. Recon+Riemann", {"hydro/recon", "hydro/riemann"}));
  rows.push_back(run_variant("Excl. Recon+Update", {"hydro/recon", "hydro/update"}));

  std::printf("\n%-28s %-14s %-14s %s\n", "Excluded modules", "L1(density)", "L1(x-velocity)",
              "Truncated FP ops");
  io::CsvWriter csv(cli.get("csv", "table2_memmode.csv"),
                    {"variant", "l1_dens", "l1_velx", "trunc_frac"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const char* dens_arrow =
        i == 0 ? " " : (r.l1_dens < rows[0].l1_dens ? "v" : "^");
    const char* velx_arrow =
        i == 0 ? " " : (r.l1_velx < rows[0].l1_velx ? "v" : "^");
    std::printf("%-28s %s%-13.4e %s%-13.4e %.1f%%\n", r.name.c_str(), dens_arrow, r.l1_dens,
                velx_arrow, r.l1_velx, 100.0 * r.trunc_frac);
    csv.row_strings({r.name, io::csv_number(r.l1_dens), io::csv_number(r.l1_velx),
                     io::csv_number(r.trunc_frac)});
  }
  std::printf("# total %.1f s\n", timer.seconds());
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
