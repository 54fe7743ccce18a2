// Figure 7b reproduction: truncating hydrodynamics in the Sod shock tube.
//
// Same sweep as fig7a_sedov but with cutoffs M-0..M-2 (the paper's Sod
// figure has one panel fewer: no leaf blocks remain at M-3).
//
// Expected shape (paper §6.1): M-1 improves the error by at most an order
// of magnitude (much less benefit than Sedov — Hypothesis 1); M-2 improves
// across the board; anomalous error at 4-6 bit mantissas where truncation
// noise makes the AMR refine many more blocks.
//
// Options: --quick, --level=N, --t-end=T, --csv=PATH.
#include "bench/common.hpp"

using namespace raptor;

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const hydro::SodParams sp;
  return bench::fig7_sweep(
      cli, "fig7b_sod", "7b", "Sod", hydro::sod_grid_config(cli.get_int("level", 5)),
      [sp](double x, double y, auto v) { hydro::sod_init(sp, x, y, v); }, 0.05, {0, 1, 2});
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
