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

using namespace raptor;

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const hydro::SedovParams sp;
  return bench::fig7_sweep(
      cli, "fig7a_sedov", "7a", "Sedov", hydro::sedov_grid_config(cli.get_int("level", 5)),
      [sp](double x, double y, auto v) { hydro::sedov_init(sp, x, y, v); }, 0.006, {0, 1, 2, 3});
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
