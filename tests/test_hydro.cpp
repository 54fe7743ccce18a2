// Hydro solver tests: exact Riemann oracle, approximate-solver consistency,
// Sod convergence against the analytic solution, Sedov physics checks,
// conservation, and truncation scoping behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "hydro/euler.hpp"
#include "hydro/exact_riemann.hpp"
#include "hydro/setups.hpp"
#include "io/sfocu.hpp"
#include "runtime/runtime.hpp"
#include "tests/team_size.hpp"

namespace raptor::hydro {
namespace {

constexpr double kGamma = 1.4;

// ---------------------------------------------------------------------------
// Exact Riemann solver (oracle)
// ---------------------------------------------------------------------------

TEST(ExactRiemann, SodStarStateMatchesToro) {
  // Toro, table 4.2, test 1: p* = 0.30313, u* = 0.92745.
  const RiemannState l{1.0, 0.0, 1.0};
  const RiemannState r{0.125, 0.0, 0.1};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 0.30313, 2e-4);
  EXPECT_NEAR(sol.u_star, 0.92745, 2e-4);
}

TEST(ExactRiemann, Toro123Problem) {
  // Toro test 2 (123 problem): two rarefactions, near-vacuum middle.
  const RiemannState l{1.0, -2.0, 0.4};
  const RiemannState r{1.0, 2.0, 0.4};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 0.00189, 2e-4);
  EXPECT_NEAR(sol.u_star, 0.0, 1e-8);
}

TEST(ExactRiemann, StrongShockTube) {
  // Toro test 3: left blast, p* = 460.894, u* = 19.5975.
  const RiemannState l{1.0, 0.0, 1000.0};
  const RiemannState r{1.0, 0.0, 0.01};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 460.894, 0.5);
  EXPECT_NEAR(sol.u_star, 19.5975, 0.01);
}

TEST(ExactRiemann, TrivialContactPreservesState) {
  const RiemannState l{1.0, 0.5, 1.0};
  const RiemannState r{1.0, 0.5, 1.0};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 1.0, 1e-10);
  EXPECT_NEAR(sol.u_star, 0.5, 1e-10);
  const auto mid = sample_exact_riemann(l, r, kGamma, sol, 0.0);
  EXPECT_NEAR(mid.rho, 1.0, 1e-10);
}

TEST(ExactRiemann, SampledSolutionIsSelfSimilar) {
  const RiemannState l{1.0, 0.0, 1.0};
  const RiemannState r{0.125, 0.0, 0.1};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  // Far left/right recover the initial states.
  EXPECT_NEAR(sample_exact_riemann(l, r, kGamma, sol, -10.0).rho, 1.0, 1e-12);
  EXPECT_NEAR(sample_exact_riemann(l, r, kGamma, sol, 10.0).rho, 0.125, 1e-12);
  // Monotone density through the rarefaction fan.
  double prev = 1.0;
  for (double s = -1.1; s < -0.1; s += 0.05) {
    const double rho = sample_exact_riemann(l, r, kGamma, sol, s).rho;
    EXPECT_LE(rho, prev + 1e-12);
    prev = rho;
  }
}

// ---------------------------------------------------------------------------
// Approximate Riemann solvers
// ---------------------------------------------------------------------------

TEST(ApproxRiemann, AllSolversAgreeOnUniformFlow) {
  const PrimState<double> w{1.4, 2.5, -0.5, 2.0};
  for (const auto kind : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    const auto f = riemann_flux(kind, w, w, kGamma);
    const auto exact = physical_flux(w, kGamma);
    for (int k = 0; k < 4; ++k) EXPECT_NEAR(f.f[k], exact.f[k], 1e-12) << static_cast<int>(kind);
  }
}

TEST(ApproxRiemann, HllcResolvesStationaryContactExactly) {
  // Density jump, equal pressure/velocity: HLLC preserves it, HLL smears.
  const PrimState<double> wl{1.0, 0.0, 0.0, 1.0};
  const PrimState<double> wr{0.25, 0.0, 0.0, 1.0};
  const auto hllc = hllc_flux(wl, wr, kGamma);
  EXPECT_NEAR(hllc.f[0], 0.0, 1e-12);  // no mass flux through the contact
  const auto hll = hll_flux(wl, wr, kGamma);
  EXPECT_GT(std::fabs(hll.f[0]), 1e-3);  // HLL diffuses the contact
}

TEST(ApproxRiemann, SupersonicFluxIsUpwind) {
  const PrimState<double> wl{1.0, 5.0, 0.0, 1.0};  // Mach ~4 to the right
  const PrimState<double> wr{0.5, 5.0, 0.0, 0.5};
  const auto f = hllc_flux(wl, wr, kGamma);
  const auto fl = physical_flux(wl, kGamma);
  for (int k = 0; k < 4; ++k) EXPECT_NEAR(f.f[k], fl.f[k], 1e-12);
}

TEST(ApproxRiemann, FluxConsistencyAcrossScalarTypes) {
  rt::Runtime::instance().reset_all();
  const PrimState<double> wl{1.0, 0.3, -0.2, 1.2};
  const PrimState<double> wr{0.7, -0.5, 0.1, 0.8};
  const PrimState<Real> rl{Real(1.0), Real(0.3), Real(-0.2), Real(1.2)};
  const PrimState<Real> rr{Real(0.7), Real(-0.5), Real(0.1), Real(0.8)};
  for (const auto kind : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    const auto fd = riemann_flux(kind, wl, wr, kGamma);
    const auto fr = riemann_flux(kind, rl, rr, kGamma);
    for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(to_double(fr.f[k]), fd.f[k]);
  }
  rt::Runtime::instance().reset_all();
}

// ---------------------------------------------------------------------------
// Sod shock tube vs analytic solution
// ---------------------------------------------------------------------------

TEST(SodProblem, ConvergesToExactSolution) {
  const SodParams sp;
  auto cfg = sod_grid_config(/*max_level=*/3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });

  HydroConfig hc;
  hc.gamma = sp.gamma;
  HydroSolver<double> solver(hc);
  const double t_end = 0.15;
  run_to_time(grid, solver, t_end);

  const auto exact_sol =
      solve_exact_riemann({sp.rho_l, 0.0, sp.p_l}, {sp.rho_r, 0.0, sp.p_r}, sp.gamma);
  double err = 0.0;
  int count = 0;
  for (double x = 0.05; x < 0.95; x += 0.01) {
    const double s = (x - sp.x_jump) / t_end;
    const auto ref =
        sample_exact_riemann({sp.rho_l, 0.0, sp.p_l}, {sp.rho_r, 0.0, sp.p_r}, sp.gamma,
                             exact_sol, s);
    err += std::fabs(grid.sample(DENS, x, 0.5) - ref.rho);
    ++count;
  }
  err /= count;
  EXPECT_LT(err, 0.015) << "mean density error vs exact solution";
}

TEST(SodProblem, PlanarSymmetryInY) {
  const SodParams sp;
  auto cfg = sod_grid_config(2);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.1);
  // The solution must stay independent of y.
  for (double x : {0.3, 0.5, 0.7, 0.85}) {
    const double a = grid.sample(DENS, x, 0.25);
    const double b = grid.sample(DENS, x, 0.75);
    EXPECT_NEAR(a, b, 1e-11) << x;
  }
}

TEST(SodProblem, MassAndEnergyConserved) {
  // Before the waves reach the boundaries, outflow BCs leak nothing.
  const SodParams sp;
  auto cfg = sod_grid_config(3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  const double mass0 = grid.integral(DENS);
  const double ener0 = grid.integral(ENER);
  run_to_time(grid, solver, 0.1);
  EXPECT_NEAR(grid.integral(DENS), mass0, 5e-3 * mass0);
  EXPECT_NEAR(grid.integral(ENER), ener0, 5e-3 * ener0);
}

// ---------------------------------------------------------------------------
// Sedov blast
// ---------------------------------------------------------------------------

TEST(SedovProblem, ShockExpandsRadially) {
  const SedovParams sp;
  auto cfg = sedov_grid_config(3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sedov_init(sp, x, y, v); });
  HydroConfig hc;
  hc.gamma = sp.gamma;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.02);

  // Locate the density maximum along +x: that's the shock radius.
  auto shock_radius = [&grid, &sp]() {
    double best_r = 0.0, best_v = 0.0;
    for (double r = 0.01; r < 0.49; r += 0.004) {
      const double v = grid.sample(DENS, sp.cx + r, sp.cy);
      if (v > best_v) {
        best_v = v;
        best_r = r;
      }
    }
    return best_r;
  };
  const double r1 = shock_radius();
  EXPECT_GT(r1, 0.05);
  run_to_time(grid, solver, 0.02);  // advance further
  const double r2 = shock_radius();
  EXPECT_GT(r2, r1);

  // Radial symmetry: density at +x, -x, +y, -y matches.
  const double d1 = grid.sample(DENS, sp.cx + r2, sp.cy);
  const double d2 = grid.sample(DENS, sp.cx - r2, sp.cy);
  const double d3 = grid.sample(DENS, sp.cx, sp.cy + r2);
  EXPECT_NEAR(d1, d2, 0.05 * d1);
  EXPECT_NEAR(d1, d3, 0.05 * d1);
}

TEST(SedovProblem, RefinementTracksTheShock) {
  const SedovParams sp;
  auto cfg = sedov_grid_config(4);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sedov_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.03);
  // The finest blocks must cluster near the shock annulus; blocks far from
  // it sit at least one level lower (quartet-granularity derefinement and
  // 2:1 chains put a floor on how coarse the far field can get with this
  // root-block geometry, exactly as in PARAMESH).
  EXPECT_EQ(grid.max_level_present(), 4);
  double max_r_of_finest = 0.0;
  int fine_far = 0, total_far = 0;
  for (int n = 0; n < grid.num_leaves(); ++n) {
    const auto& b = grid.leaf(n);
    const double bx = grid.cell_x(b, grid.config().nxb / 2);
    const double by = grid.cell_y(b, grid.config().nyb / 2);
    const double r = std::hypot(bx - sp.cx, by - sp.cy);
    if (b.level == 4) max_r_of_finest = std::max(max_r_of_finest, r);
    if (r > 0.45) {
      ++total_far;
      if (b.level == 4) ++fine_far;
    }
  }
  ASSERT_GT(total_far, 0);
  EXPECT_EQ(fine_far, 0);              // no max-level blocks far away
  EXPECT_LT(max_r_of_finest, 0.40);    // finest level hugs the shock
}

// ---------------------------------------------------------------------------
// Operator-split gravity source (Rayleigh–Taylor support)
// ---------------------------------------------------------------------------

TEST(HydroGravity, OperatorSplitSourceMatchesAnalyticImpulse) {
  // Uniform medium in a reflecting channel: both sweeps see a constant
  // state, so after one step the only update is the gravity source —
  // momy += rho*g*dt, energy follows the trapezoidal kinetic update, and
  // density is untouched.
  auto gc = rayleigh_taylor_grid_config(1);
  amr::AmrGrid<double> g(gc);
  const double rho = 2.0, e0 = 2.5 / 0.4;
  g.init([rho, e0](double, double, std::span<double> v) {
    v[DENS] = rho;
    v[MOMX] = 0.0;
    v[MOMY] = 0.0;
    v[ENER] = e0;
  });
  HydroConfig hc;
  hc.gravity = -0.1;
  HydroSolver<double> solver(hc);
  const double dt = 1e-3;
  solver.step(g, dt);
  const double gdt = hc.gravity * dt;
  const double my = 0.0 + gdt * rho;
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    EXPECT_DOUBLE_EQ(g.at(b, DENS, 3, 3), rho);
    EXPECT_DOUBLE_EQ(g.at(b, MOMX, 3, 3), 0.0);
    EXPECT_NEAR(g.at(b, MOMY, 3, 3), my, 1e-15);
    EXPECT_NEAR(g.at(b, ENER, 3, 3), e0 + gdt * 0.5 * my, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Truncation scoping through the solver
// ---------------------------------------------------------------------------

// The batch path (DESIGN.md §8) runs every stage of a sweep through the
// batch::Vec instantiation of its kernel, over all the leaf blocks a thread
// owns under one truncation gate. Per solver and format it must be
// bit-identical to the per-op row loop through a multi-step AMR run: cells,
// per-OpKind counters, and the op counts of each hydro region. Beyond the
// solver x format grid, three cases aim at the span layout itself:
//  * a Sedov start, whose zero velocities put ±0 lanes through the SIMD
//    kernels' common-case branch in every stage;
//  * a level gate on a three-level Sedov grid that splits each sweep into
//    a truncated and a native group, with blocks of two levels (so two
//    dt/dx values) in the truncated span;
//  * a 3-thread team, whose static share of the leaves is uneven.
enum class BatchSetup { Streams, Sedov };

struct BatchCase {
  RiemannKind riemann;
  sf::Format fmt;
  bool hw_fastpath;
  ReconKind recon = ReconKind::PLM;
  BatchSetup setup = BatchSetup::Streams;
  bool level_gate = false;  ///< truncate only the levels below the finest
  int threads = 0;          ///< OpenMP team size; 0 keeps the default
};

std::string batch_case_name(const ::testing::TestParamInfo<BatchCase>& info) {
  const BatchCase& c = info.param;
  const char* solver = c.riemann == RiemannKind::Rusanov ? "Rusanov"
                       : c.riemann == RiemannKind::HLL   ? "HLL"
                                                         : "HLLC";
  std::string name = std::string(solver) + "_" + c.fmt.tag();
  if (c.hw_fastpath) name += "_hw";
  if (c.recon == ReconKind::FirstOrder) name += "_first_order";
  if (c.setup == BatchSetup::Sedov) name += "_sedov_start";
  if (c.level_gate) name += "_level_gate";
  if (c.threads != 0) name += "_threads" + std::to_string(c.threads);
  return name;
}

class HydroBatch : public ::testing::TestWithParam<BatchCase> {};

/// Colliding and separating supersonic streams with density jumps across
/// both axes: every face outcome occurs — sl >= 0, sr <= 0, and the
/// subsonic fan with the contact on either side (HLLC's sstar >= 0 / < 0).
void streams_init(double x, double y, std::span<Real> v) {
  const double rho = (x < 0.5) == (y < 0.5) ? 1.0 : 0.25;
  const double u = x < 0.5 ? 2.5 : -2.5;
  const double w = y < 0.5 ? -2.5 : 2.5;
  const double p = 1.0;
  v[DENS] = rho;
  v[MOMX] = rho * u;
  v[MOMY] = rho * w;
  v[ENER] = p / (kGamma - 1.0) + 0.5 * rho * (u * u + w * w);
}

TEST_P(HydroBatch, BatchedSolverBitwiseMatchesScalarSolver) {
  const BatchCase bc = GetParam();
  auto& R = rt::Runtime::instance();
  const testing_support::TeamSize team(bc.threads);
  const auto run_with = [&](bool batch) {
    R.reset_all();
    R.set_hw_fastpath(bc.hw_fastpath);
    R.set_region_profiling(true);
    const bool sedov = bc.setup == BatchSetup::Sedov;
    amr::AmrGrid<Real> grid(sedov ? sedov_grid_config(bc.level_gate ? 4 : 3) : sod_grid_config(2));
    if (sedov) {
      const SedovParams sp;
      grid.build_with_ic([&sp](double x, double y, std::span<Real> v) { sedov_init(sp, x, y, v); });
    } else {
      grid.build_with_ic(streams_init);
    }
    HydroConfig hc;
    hc.riemann = bc.riemann;
    hc.recon = bc.recon;
    hc.trunc = rt::TruncationSpec::trunc64(bc.fmt.exp_bits, bc.fmt.man_bits);
    hc.batch = batch;
    std::set<int> gated_levels;
    if (bc.level_gate) {
      const int finest = grid.max_level_present();
      hc.trunc_enabled = [finest](int level) { return level < finest; };
      for (int n = 0; n < grid.num_leaves(); ++n) {
        if (grid.leaf(n).level < finest) gated_levels.insert(grid.leaf(n).level);
      }
    }
    const int leaves = grid.num_leaves();
    HydroSolver<Real> solver(hc);
    if (sedov) {
      run_to_time(grid, solver, 1.0, /*regrid_interval=*/2, 0.0, /*max_steps=*/6);
    } else {
      run_to_time(grid, solver, 0.04, /*regrid_interval=*/2);
    }
    std::vector<double> cells;
    for (const int var : {DENS, MOMX, MOMY, ENER}) {
      const auto f = io::to_uniform(grid, var);
      cells.insert(cells.end(), f.begin(), f.end());
    }
    std::map<std::string, rt::CounterSnapshot> regions;
    for (const auto& e : R.region_profiles()) regions[e.label] = e.profile.counters;
    const auto counters = R.counters();
    R.reset_all();
    return std::tuple{cells, counters, regions, gated_levels.size(), leaves};
  };
  const auto [scalar, sc, sregions, s_gated, s_leaves] = run_with(false);
  const auto [batched, bc_, bregions, b_gated, b_leaves] = run_with(true);
  // The span-layout cases must exercise what they are named for.
  if (bc.level_gate) {
    EXPECT_GE(s_gated, 2u) << "truncated group spans fewer than two levels";
  }
  if (bc.threads != 0) {
    EXPECT_NE(s_leaves % bc.threads, 0) << "leaves split evenly";
  }
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batched[i])) << "cell " << i;
  }
  EXPECT_EQ(sc.trunc_flops, bc_.trunc_flops);
  EXPECT_EQ(sc.full_flops, bc_.full_flops);
  EXPECT_EQ(sc.trunc_bytes, bc_.trunc_bytes);
  EXPECT_EQ(sc.full_bytes, bc_.full_bytes);
  EXPECT_EQ(sc.trunc_by_kind, bc_.trunc_by_kind);
  EXPECT_EQ(sc.full_by_kind, bc_.full_by_kind);
  if (bc.level_gate) {
    EXPECT_GT(sc.full_flops, 0u) << "the native group issued no ops";
  }
  for (const char* label : {"hydro", "hydro/recon", "hydro/riemann", "hydro/update"}) {
    ASSERT_TRUE(sregions.count(label) != 0 && bregions.count(label) != 0) << label;
    const auto& s = sregions.at(label);
    const auto& b = bregions.at(label);
    // First-order reconstruction copies cell states: no ops to count.
    const bool copies_only =
        bc.recon == ReconKind::FirstOrder && std::string(label) == "hydro/recon";
    EXPECT_EQ(s.trunc_flops == 0, copies_only) << label;
    EXPECT_EQ(s.trunc_flops, b.trunc_flops) << label;
    EXPECT_EQ(s.full_flops, b.full_flops) << label;
    EXPECT_EQ(s.trunc_bytes, b.trunc_bytes) << label;
    EXPECT_EQ(s.full_bytes, b.full_bytes) << label;
    EXPECT_EQ(s.trunc_by_kind, b.trunc_by_kind) << label;
    EXPECT_EQ(s.full_by_kind, b.full_by_kind) << label;
  }
}

// Format{8,12} and Format{11,12} run on the double-rounding fast kernels,
// Format{11,30} on the tie-breaking ones (man_bits > 24); the scalar path
// they are compared against stays on BigFloat.
INSTANTIATE_TEST_SUITE_P(
    SolverByFormat, HydroBatch,
    ::testing::Values(
        BatchCase{RiemannKind::Rusanov, {8, 12}, false},
        BatchCase{RiemannKind::HLL, {8, 12}, false},
        BatchCase{RiemannKind::HLLC, {8, 12}, false},
        BatchCase{RiemannKind::Rusanov, {11, 12}, false},
        BatchCase{RiemannKind::HLL, {11, 12}, false},
        BatchCase{RiemannKind::HLLC, {11, 12}, false},
        BatchCase{RiemannKind::Rusanov, {11, 30}, false},
        BatchCase{RiemannKind::HLL, {11, 30}, false},
        BatchCase{RiemannKind::HLLC, {11, 30}, false},
        BatchCase{RiemannKind::HLLC, {11, 12}, true},
        BatchCase{RiemannKind::HLLC, {11, 12}, false, ReconKind::FirstOrder},
        BatchCase{RiemannKind::HLLC, {11, 12}, false, ReconKind::PLM, BatchSetup::Sedov},
        BatchCase{RiemannKind::HLLC, {8, 12}, false, ReconKind::PLM, BatchSetup::Sedov, true},
        BatchCase{RiemannKind::HLLC, {11, 12}, false, ReconKind::PLM, BatchSetup::Streams, false,
                  3}),
    batch_case_name);

TEST(HydroTruncation, TruncatedRunDegradesGracefully) {
  rt::Runtime::instance().reset_all();
  const SodParams sp;

  const auto run_with = [&sp](std::optional<rt::TruncationSpec> spec) {
    auto cfg = sod_grid_config(2);
    amr::AmrGrid<Real> grid(cfg);
    grid.build_with_ic(
        [&sp](double x, double y, std::span<Real> v) { sod_init(sp, x, y, v); });
    HydroConfig hc;
    hc.trunc = spec;
    HydroSolver<Real> solver(hc);
    run_to_time(grid, solver, 0.1, /*regrid_interval=*/4);
    return io::to_uniform(grid, DENS);
  };

  const auto reference = run_with(std::nullopt);
  const auto trunc40 = run_with(rt::TruncationSpec::trunc64(11, 40));
  const auto trunc8 = run_with(rt::TruncationSpec::trunc64(8, 8));

  const double e40 = io::compare_fields(trunc40, reference).l1;
  const double e8 = io::compare_fields(trunc8, reference).l1;
  EXPECT_GT(e8, e40);       // coarser mantissa -> larger error
  EXPECT_GT(e8, 1e-5);      // 8 bits visibly wrong
  EXPECT_LT(e40, 1e-6);     // 40 bits close to reference
  EXPECT_GT(e40, 0.0);      // but not identical
  rt::Runtime::instance().reset_all();
}

TEST(HydroTruncation, LevelGateRestrictsTruncatedOps) {
  rt::Runtime::instance().reset_all();
  auto& R = rt::Runtime::instance();
  const SedovParams sp;
  auto cfg = sedov_grid_config(3);
  amr::AmrGrid<Real> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<Real> v) { sedov_init(sp, x, y, v); });

  const auto fraction_with_gate = [&](std::function<bool(int)> gate) {
    R.reset_counters();
    HydroConfig hc;
    hc.trunc = rt::TruncationSpec::trunc64(8, 12);
    hc.trunc_enabled = std::move(gate);
    HydroSolver<Real> solver(hc);
    auto g2 = grid;  // copy the initial hierarchy for a fair comparison
    const double dt = solver.compute_dt(g2);
    solver.step(g2, dt);
    return R.counters().trunc_fraction();
  };

  const int M = grid.max_level_present();
  const double f_all = fraction_with_gate([](int) { return true; });
  const double f_m1 = fraction_with_gate([M](int level) { return level <= M - 1; });
  const double f_m2 = fraction_with_gate([M](int level) { return level <= M - 2; });
  EXPECT_GT(f_all, 0.9);
  EXPECT_LT(f_m1, f_all);
  EXPECT_LT(f_m2, f_m1);
  rt::Runtime::instance().reset_all();
}

TEST(HydroTruncation, RegionExclusionKeepsStageNative) {
  rt::Runtime::instance().reset_all();
  auto& R = rt::Runtime::instance();
  const SodParams sp;
  auto cfg = sod_grid_config(2);
  amr::AmrGrid<Real> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<Real> v) { sod_init(sp, x, y, v); });

  HydroConfig hc;
  hc.trunc = rt::TruncationSpec::trunc64(8, 12);
  HydroSolver<Real> solver(hc);

  R.reset_counters();
  solver.step(grid, 1e-4);
  const double f_baseline = R.counters().trunc_fraction();

  R.exclude_region("hydro/riemann");
  R.reset_counters();
  solver.step(grid, 1e-4);
  const double f_excluded = R.counters().trunc_fraction();

  EXPECT_LT(f_excluded, f_baseline - 0.05);
  rt::Runtime::instance().reset_all();
}

}  // namespace
}  // namespace raptor::hydro
