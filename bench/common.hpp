// Shared helpers for the bench harnesses (one binary per paper table or
// figure; see DESIGN.md §3 for the experiment index).
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hydro/setups.hpp"
#include "io/sfocu.hpp"
#include "runtime/runtime.hpp"
#include "support/timer.hpp"
#include "trunc/real.hpp"

namespace raptor::bench {

/// One truncation sweep point for the Fig. 7 style experiments.
struct SweepResult {
  int mantissa = 0;
  int cutoff_l = 0;  ///< M - l cutoff (0 = truncate everything)
  double l1_dens = 0.0;
  double l1_velx = 0.0;
  u64 trunc_flops = 0;
  u64 full_flops = 0;
  u64 trunc_bytes = 0;
  u64 full_bytes = 0;
  int leaves_end = 0;
  double seconds = 0.0;  ///< wall time of the truncated run (grid build + solve)
};

/// Uniform-sampled x-velocity field (momx / dens) for the Table 2 metrics.
template <class T>
std::vector<double> velx_field(const amr::AmrGrid<T>& g) {
  auto momx = io::to_uniform(g, hydro::MOMX);
  const auto dens = io::to_uniform(g, hydro::DENS);
  for (std::size_t k = 0; k < momx.size(); ++k) {
    momx[k] = dens[k] > 1e-12 ? momx[k] / dens[k] : 0.0;
  }
  return momx;
}

/// Run one truncated Sedov/Sod configuration and compare against reference
/// fields. `setup` initializes the grid; reference fields are sampled on
/// the common uniform mesh.
struct CompressibleCase {
  amr::GridConfig grid_cfg;
  std::function<void(double, double, std::span<Real>)> init;
  double t_end = 0.01;
  int regrid_interval = 4;
  hydro::RiemannKind riemann = hydro::RiemannKind::HLLC;
};

inline SweepResult run_truncated_case(const CompressibleCase& pc, int mantissa, int cutoff_l,
                                      const std::vector<double>& ref_dens,
                                      const std::vector<double>& ref_velx) {
  auto& R = rt::Runtime::instance();
  R.reset_counters();

  const Timer timer;
  amr::AmrGrid<Real> grid(pc.grid_cfg);
  grid.build_with_ic(pc.init);
  const int M = pc.grid_cfg.max_level;

  hydro::HydroConfig hc;
  hc.riemann = pc.riemann;
  hc.trunc = rt::TruncationSpec::trunc64(11, mantissa);
  hc.trunc_enabled = [M, cutoff_l](int level) { return level <= M - cutoff_l; };
  hydro::HydroSolver<Real> solver(hc);
  hydro::run_to_time(grid, solver, pc.t_end, pc.regrid_interval);

  SweepResult out;
  out.seconds = timer.seconds();
  out.mantissa = mantissa;
  out.cutoff_l = cutoff_l;
  out.l1_dens = io::compare_fields(io::to_uniform(grid, hydro::DENS), ref_dens).l1;
  out.l1_velx = io::compare_fields(velx_field(grid), ref_velx).l1;
  const auto c = R.counters();
  out.trunc_flops = c.trunc_flops;
  out.full_flops = c.full_flops;
  out.trunc_bytes = c.trunc_bytes;
  out.full_bytes = c.full_bytes;
  out.leaves_end = grid.num_leaves();
  return out;
}

inline void print_sweep_header(const char* name) {
  std::printf("%s\n", name);
  std::printf("%-8s %-6s %-12s %-12s %-14s %-14s %-10s %-8s %s\n", "cutoff", "man", "L1(dens)",
              "L1(velx)", "trunc_flops", "full_flops", "trunc%", "leaves", "seconds");
}

inline void print_sweep_row(const SweepResult& r) {
  const double total = static_cast<double>(r.trunc_flops + r.full_flops);
  std::printf("M-%-6d %-6d %-12.4e %-12.4e %-14llu %-14llu %-10.1f %-8d %.3f\n", r.cutoff_l,
              r.mantissa, r.l1_dens, r.l1_velx, static_cast<unsigned long long>(r.trunc_flops),
              static_cast<unsigned long long>(r.full_flops),
              total > 0 ? 100.0 * static_cast<double>(r.trunc_flops) / total : 0.0,
              r.leaves_end, r.seconds);
}

inline std::vector<int> default_mantissas() { return {4, 6, 8, 10, 12, 16, 20, 28, 36, 44, 52}; }

}  // namespace raptor::bench
