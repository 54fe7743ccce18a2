// Figure 7a reproduction: truncating hydrodynamics in the Sedov blast wave.
//
// Sweeps mantissa width and the AMR refinement cutoff M-l; reports the L1
// density error against the full-precision reference (sfocu style) and the
// truncated/full operation counts behind the paper's bar plots, with the wall
// time of each truncated run (the cost per mantissa).
//
// Expected shape (paper §6.1): excluding the finest level (M-1) drops the
// error by many orders of magnitude for small mantissas and exposes a flat
// error floor; M-2 barely differs from M-1; the truncated-op share shrinks
// from >80% (M-0) to <1% (M-3); op counts fluctuate at tiny mantissas
// because truncation noise triggers extra AMR refinement.
//
// Options: --quick (reduced sweep), --level=N, --t-end=T, --csv=PATH.
#include "bench/common.hpp"
#include "io/csv.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

using namespace raptor;

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int max_level = cli.get_int("level", 5);
  const double t_end = cli.get_double("t-end", 0.006);
  const std::vector<int> mantissas =
      cli.has("quick") ? std::vector<int>{4, 12, 28, 52} : bench::default_mantissas();

  hydro::SedovParams sp;
  bench::CompressibleCase pc;
  pc.grid_cfg = hydro::sedov_grid_config(max_level);
  pc.init = [sp](double x, double y, std::span<Real> v) { hydro::sedov_init(sp, x, y, v); };
  pc.t_end = t_end;

  // Full-precision reference.
  Timer timer;
  amr::AmrGrid<double> ref(pc.grid_cfg);
  ref.build_with_ic(
      [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
  hydro::HydroConfig hc;
  hydro::HydroSolver<double> solver(hc);
  const int steps = hydro::run_to_time(ref, solver, pc.t_end, pc.regrid_interval);
  const auto ref_dens = io::to_uniform(ref, hydro::DENS);
  const auto ref_velx = bench::velx_field(ref);
  std::printf("# Sedov reference: %d steps, %d leaves, max level %d (%.1f s)\n", steps,
              ref.num_leaves(), ref.max_level_present(), timer.seconds());

  bench::print_sweep_header("Figure 7a: Sedov truncation sweep (L1 density error vs mantissa)");
  io::CsvWriter csv(cli.get("csv", "fig7a_sedov.csv"),
                    {"cutoff_l", "mantissa", "l1_dens", "l1_velx", "trunc_flops", "full_flops",
                     "leaves", "seconds"});
  for (const int cutoff : {0, 1, 2, 3}) {
    for (const int m : mantissas) {
      const auto r = bench::run_truncated_case(pc, m, cutoff, ref_dens, ref_velx);
      bench::print_sweep_row(r);
      csv.row({static_cast<double>(r.cutoff_l), static_cast<double>(r.mantissa), r.l1_dens,
               r.l1_velx, static_cast<double>(r.trunc_flops), static_cast<double>(r.full_flops),
               static_cast<double>(r.leaves_end), r.seconds});
    }
    std::printf("#\n");
  }
  std::printf("# total %.1f s; series written to %s\n", timer.seconds(),
              cli.get("csv", "fig7a_sedov.csv").c_str());
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
