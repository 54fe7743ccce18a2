// Incompressible multiphase solver tests: WENO5 kernel accuracy, level-set
// utilities, Poisson solver, projection divergence control, bubble physics
// (buoyant rise), virtual-level truncation masks, and the precision
// sensitivity of the interface (the Fig. 1 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "incomp/bubble.hpp"
#include "io/sfocu.hpp"
#include "runtime/runtime.hpp"
#include "tests/team_size.hpp"

namespace raptor::incomp {
namespace {

class IncompTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
};

// ---------------------------------------------------------------------------
// WENO5
// ---------------------------------------------------------------------------

TEST(Weno5, ExactOnSmoothPolynomialsUpToDegree4) {
  // WENO5 weights reduce to the linear (optimal) ones on smooth data, where
  // the scheme is 5th-order: exact derivative for polynomials up to x^4 at
  // fine enough h is within the eps-regularization error.
  const double h = 0.01;
  const auto poly = [](double x) { return 1.0 + x + 0.5 * x * x - 0.2 * x * x * x; };
  const double x0 = 0.3;
  const auto get = [&](int k) { return poly(x0 + k * h); };
  const double d = weno5_derivative<double>(get, +1.0, h);
  const double exact = 1.0 + x0 - 0.6 * x0 * x0;
  EXPECT_NEAR(d, exact, 1e-7);
  const double dm = weno5_derivative<double>(get, -1.0, h);
  EXPECT_NEAR(dm, exact, 1e-7);
}

TEST(Weno5, FifthOrderConvergenceOnSine) {
  const auto err_at = [](double h) {
    const double x0 = 0.7;
    const auto get = [&](int k) { return std::sin(x0 + k * h); };
    return std::fabs(weno5_derivative<double>(get, 1.0, h) - std::cos(x0));
  };
  const double e1 = err_at(0.02);
  const double e2 = err_at(0.01);
  // Order >= 4 observed (eps regularization nibbles at the asymptotics).
  EXPECT_GT(std::log2(e1 / e2), 3.5);
}

TEST(Weno5, NonOscillatoryAtDiscontinuity) {
  // Derivative estimate near a step must stay bounded by the one-sided
  // difference magnitude (no Gibbs-like blowup).
  const double h = 0.1;
  const auto get = [&](int k) { return k <= 0 ? 0.0 : 1.0; };
  const double d = weno5_derivative<double>(get, 1.0, h);
  EXPECT_GE(d, -1e-12);
  EXPECT_LE(d, 1.0 / h * 1.2);
}

TEST(Weno5, MatchesAcrossScalarTypes) {
  rt::Runtime::instance().reset_all();
  const double h = 0.05;
  const auto getd = [&](int k) { return std::cos(0.2 + 0.3 * k * h); };
  const auto getr = [&](int k) -> Real { return Real(getd(k)); };
  const double dd = weno5_derivative<double>(getd, 1.0, h);
  const Real dr = weno5_derivative<Real>(getr, 1.0, h);
  EXPECT_DOUBLE_EQ(dr.value(), dd);
}

// ---------------------------------------------------------------------------
// Level-set utilities
// ---------------------------------------------------------------------------

ScalarField circle_field(int n, double r0, double cx = 0.5, double cy = 0.5,
                         bool distorted = false) {
  ScalarField f;
  f.nx = f.ny = n;
  f.hx = f.hy = 1.0 / n;
  f.v.resize(static_cast<std::size_t>(n) * n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const double x = (i + 0.5) * f.hx, y = (j + 0.5) * f.hy;
      const double r = std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy));
      double phi = r0 - r;
      if (distorted) phi *= (2.0 + std::sin(9 * x) * std::cos(7 * y));
      f.at(i, j) = phi;
    }
  }
  return f;
}

TEST(LevelSet, HeavisideAndDeltaProperties) {
  const double eps = 0.1;
  EXPECT_DOUBLE_EQ(heaviside(-1.0, eps), 0.0);
  EXPECT_DOUBLE_EQ(heaviside(1.0, eps), 1.0);
  EXPECT_DOUBLE_EQ(heaviside(0.0, eps), 0.5);
  EXPECT_DOUBLE_EQ(delta_fn(1.0, eps), 0.0);
  EXPECT_GT(delta_fn(0.0, eps), 0.0);
  // Delta integrates to ~1 across the interface.
  double integral = 0.0;
  const double dh = 1e-4;
  for (double x = -0.2; x < 0.2; x += dh) integral += delta_fn(x, eps) * dh;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(LevelSet, ReinitializationRestoresUnitGradient) {
  ScalarField f = circle_field(64, 0.25, 0.5, 0.5, /*distorted=*/true);
  reinitialize(f, 60);
  // Check |grad phi| ~ 1 in a band near the interface.
  double worst = 0.0;
  for (int j = 2; j < 62; ++j) {
    for (int i = 2; i < 62; ++i) {
      if (std::fabs(f.at(i, j)) > 0.08) continue;
      const double gx = (f.at(i + 1, j) - f.at(i - 1, j)) / (2 * f.hx);
      const double gy = (f.at(i, j + 1) - f.at(i, j - 1)) / (2 * f.hy);
      worst = std::max(worst, std::fabs(std::sqrt(gx * gx + gy * gy) - 1.0));
    }
  }
  EXPECT_LT(worst, 0.2);
}

TEST(LevelSet, ReinitializationPreservesZeroContour) {
  ScalarField f = circle_field(64, 0.25);
  const auto before = interface_metrics(f, 1.5 / 64);
  reinitialize(f, 20);
  const auto after = interface_metrics(f, 1.5 / 64);
  EXPECT_NEAR(after.total_area, before.total_area, 0.02 * before.total_area);
}

TEST(LevelSet, CurvatureOfCircleIsInverseRadius) {
  const ScalarField f = circle_field(128, 0.25);
  // kappa of phi = r0 - r is -1/r (sign from our inside-positive choice).
  const int i = 64 + 32, j = 64;  // on the interface, +x side
  EXPECT_NEAR(curvature(f, i, j), -1.0 / 0.25, 0.6);
}

TEST(LevelSet, MetricsCountSingleCircle) {
  const ScalarField f = circle_field(96, 0.2);
  const auto m = interface_metrics(f, 1.5 / 96);
  EXPECT_EQ(m.bubble_count, 1);
  EXPECT_NEAR(m.total_area, M_PI * 0.2 * 0.2, 0.01);
  EXPECT_NEAR(m.perimeter, 2 * M_PI * 0.2, 0.1);
  ASSERT_EQ(m.bubbles.size(), 1u);
  EXPECT_NEAR(m.bubbles[0].centroid_x, 0.5, 0.01);
  EXPECT_NEAR(m.bubbles[0].centroid_y, 0.5, 0.01);
}

TEST(LevelSet, MetricsCountTwoBubbles) {
  ScalarField f;
  f.nx = f.ny = 96;
  f.hx = f.hy = 1.0 / 96;
  f.v.resize(96u * 96u);
  for (int j = 0; j < 96; ++j) {
    for (int i = 0; i < 96; ++i) {
      const double x = (i + 0.5) * f.hx, y = (j + 0.5) * f.hy;
      const double r1 = std::sqrt((x - 0.3) * (x - 0.3) + (y - 0.5) * (y - 0.5));
      const double r2 = std::sqrt((x - 0.7) * (x - 0.7) + (y - 0.5) * (y - 0.5));
      f.at(i, j) = std::max(0.12 - r1, 0.08 - r2);
    }
  }
  const auto m = interface_metrics(f, 1.5 / 96);
  EXPECT_EQ(m.bubble_count, 2);
  ASSERT_EQ(m.bubbles.size(), 2u);
  EXPECT_GT(m.bubbles[0].area, m.bubbles[1].area);  // sorted by area
  EXPECT_NEAR(m.bubbles[0].centroid_x, 0.3, 0.02);
  EXPECT_NEAR(m.bubbles[1].centroid_x, 0.7, 0.02);
}

// ---------------------------------------------------------------------------
// Poisson solver
// ---------------------------------------------------------------------------

TEST(Poisson, SolvesManufacturedConstantCoefficientProblem) {
  const int nx = 48, ny = 48;
  const double h = 1.0 / nx;
  PoissonSolver solver(nx, ny, h, h);
  std::vector<double> beta_x(static_cast<std::size_t>(nx + 1) * ny, 1.0);
  std::vector<double> beta_y(static_cast<std::size_t>(nx) * (ny + 1), 1.0);
  // Zero out boundary faces (Neumann walls).
  for (int j = 0; j < ny; ++j) {
    beta_x[static_cast<std::size_t>(j) * (nx + 1)] = 0.0;
    beta_x[static_cast<std::size_t>(j) * (nx + 1) + nx] = 0.0;
  }
  for (int i = 0; i < nx; ++i) {
    beta_y[i] = 0.0;
    beta_y[static_cast<std::size_t>(ny) * nx + i] = 0.0;
  }
  // p* = cos(pi x) cos(pi y) satisfies Neumann BCs; rhs = -2 pi^2 p*.
  std::vector<double> rhs(static_cast<std::size_t>(nx) * ny);
  std::vector<double> exact(rhs.size());
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double x = (i + 0.5) * h, y = (j + 0.5) * h;
      exact[static_cast<std::size_t>(j) * nx + i] = std::cos(M_PI * x) * std::cos(M_PI * y);
      rhs[static_cast<std::size_t>(j) * nx + i] =
          -2.0 * M_PI * M_PI * exact[static_cast<std::size_t>(j) * nx + i];
    }
  }
  std::vector<double> p(rhs.size(), 0.0);
  const auto res = solver.solve(p, rhs, beta_x, beta_y, 1e-9, 20000);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) err = std::max(err, std::fabs(p[k] - exact[k]));
  EXPECT_LT(err, 5e-3);  // second-order discretization error at h = 1/48
}

TEST(Poisson, HandlesVariableCoefficients) {
  const int n = 32;
  const double h = 1.0 / n;
  PoissonSolver solver(n, n, h, h);
  std::vector<double> beta_x(static_cast<std::size_t>(n + 1) * n, 0.0);
  std::vector<double> beta_y(static_cast<std::size_t>(n) * (n + 1), 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 1; i < n; ++i) {
      beta_x[static_cast<std::size_t>(j) * (n + 1) + i] = 1.0 + 50.0 * ((i + j) % 2);
    }
  }
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      beta_y[static_cast<std::size_t>(j) * n + i] = 1.0 + 50.0 * ((i * j) % 3 == 0);
    }
  }
  std::vector<double> rhs(static_cast<std::size_t>(n) * n, 0.0);
  rhs[5 * n + 5] = 1.0;
  rhs[20 * n + 20] = -1.0;
  std::vector<double> p(rhs.size(), 0.0);
  const auto res = solver.solve(p, rhs, beta_x, beta_y, 1e-8, 40000);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(solver.residual_norm(p, rhs, beta_x, beta_y), 1e-7);
}

namespace {

/// Shared manufactured variable-coefficient setup for the instrumented
/// Poisson tests.
struct PoissonCase {
  int n = 24;
  double h = 1.0 / 24;
  std::vector<double> beta_x, beta_y, rhs;

  PoissonCase() {
    beta_x.assign(static_cast<std::size_t>(n + 1) * n, 0.0);
    beta_y.assign(static_cast<std::size_t>(n) * (n + 1), 0.0);
    for (int j = 0; j < n; ++j) {
      for (int i = 1; i < n; ++i) {
        beta_x[static_cast<std::size_t>(j) * (n + 1) + i] = 1.0 + 0.5 * ((i + j) % 3);
      }
    }
    for (int j = 1; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        beta_y[static_cast<std::size_t>(j) * n + i] = 1.0 + 0.5 * ((i * j) % 2);
      }
    }
    rhs.assign(static_cast<std::size_t>(n) * n, 0.0);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const double x = (i + 0.5) * h, y = (j + 0.5) * h;
        rhs[static_cast<std::size_t>(j) * n + i] = std::cos(M_PI * x) * std::cos(M_PI * y);
      }
    }
  }
};

}  // namespace

TEST_F(IncompTest, PoissonRealMatchesDoubleAtFullPrecision) {
  const PoissonCase c;
  PoissonSolver<double> sd(c.n, c.n, c.h, c.h);
  std::vector<double> pd(c.rhs.size(), 0.0);
  const auto rd = sd.solve(pd, c.rhs, c.beta_x, c.beta_y, 1e-8, 2000);

  PoissonSolver<Real> sr(c.n, c.n, c.h, c.h);
  sr.set_batch(false);
  std::vector<Real> pr(c.rhs.size(), Real(0.0));
  const auto rr = sr.solve(pr, c.rhs, c.beta_x, c.beta_y, 1e-8, 2000);

  EXPECT_TRUE(rd.converged);
  EXPECT_TRUE(rr.converged);
  EXPECT_EQ(rd.iterations, rr.iterations);
  for (std::size_t k = 0; k < pd.size(); ++k) {
    EXPECT_EQ(std::bit_cast<u64>(pd[k]), std::bit_cast<u64>(to_double(pr[k]))) << k;
  }
}

TEST_F(IncompTest, PoissonBatchMatchesScalarBitwiseUnderTruncation) {
  auto& R = rt::Runtime::instance();
  const PoissonCase c;
  // Truncate via a region override, the way the search driver does.
  R.set_region_format("poisson", rt::TruncationSpec::trunc64(11, 16));

  const auto run = [&](bool batch, rt::CounterSnapshot& counters) {
    R.reset_counters();
    PoissonSolver<Real> s(c.n, c.n, c.h, c.h);
    s.set_batch(batch);
    std::vector<Real> p(c.rhs.size(), Real(0.0));
    const auto res = s.solve(p, c.rhs, c.beta_x, c.beta_y, 1e-6, 400);
    counters = R.counters();
    std::vector<double> out(p.size());
    for (std::size_t k = 0; k < p.size(); ++k) out[k] = to_double(p[k]);
    out.push_back(static_cast<double>(res.iterations));
    out.push_back(res.residual);
    return out;
  };
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    rt::CounterSnapshot cs, cb;
    const auto scalar = run(false, cs);
    const auto batch = run(true, cb);
    ASSERT_EQ(scalar.size(), batch.size());
    for (std::size_t k = 0; k < scalar.size(); ++k) {
      EXPECT_EQ(std::bit_cast<u64>(scalar[k]), std::bit_cast<u64>(batch[k]))
          << k << ", " << threads << " threads";
    }
    EXPECT_EQ(cs.trunc_flops, cb.trunc_flops) << threads;
    EXPECT_EQ(cs.full_flops, cb.full_flops) << threads;
    for (int i = 0; i < rt::kNumOpKinds; ++i) {
      EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i << ", " << threads << " threads";
      EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i << ", " << threads << " threads";
    }
    EXPECT_GT(cs.trunc_flops, 0u);
  }
}

/// The pins' problem: a 16x16 grid with Neumann walls, face coefficients
/// that vary per face and a polynomial right-hand side.
struct PinProblem {
  int n = 16;
  double h = 1.0 / 16;
  std::vector<double> beta_x, beta_y, rhs;

  PinProblem() {
    beta_x.assign(static_cast<std::size_t>(n + 1) * n, 0.0);
    beta_y.assign(static_cast<std::size_t>(n) * (n + 1), 0.0);
    for (int j = 0; j < n; ++j) {
      for (int i = 1; i < n; ++i) {
        beta_x[static_cast<std::size_t>(j) * (n + 1) + i] = 1.0 + 0.5 * ((i + j) % 3);
      }
    }
    for (int j = 1; j < n; ++j) {
      for (int i = 0; i < n; ++i) beta_y[static_cast<std::size_t>(j) * n + i] = 1.0 + 0.5 * (i % 2);
    }
    rhs.resize(static_cast<std::size_t>(n) * n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const double x = (i + 0.5) * h, y = (j + 0.5) * h;
        rhs[static_cast<std::size_t>(j) * n + i] = (2.0 * x - 1.0) * (y * y - y + 0.1);
      }
    }
  }
};

/// FNV-1a over the bits of p.
template <class S>
u64 hash_bits(const std::vector<S>& p) {
  u64 hash = 14695981039346656037ull;
  for (const S& v : p) hash = (hash ^ std::bit_cast<u64>(to_double(v))) * 1099511628211ull;
  return hash;
}

/// Formatted pin of one PoissonSolver<Real> solve (per-cell path) under
/// set_truncate_all: iterations, convergence, the residual, a hash and two
/// cells of p, and the per-OpKind truncated counts. The right-hand side is
/// a polynomial, and every op runs in the fast kernels or BigFloat, so the
/// pinned bits hold on any host (see RealPathPin in test_burn).
std::vector<std::string> poisson_pin(int exp_bits, int man_bits) {
  const PinProblem pb;
  auto& R = rt::Runtime::instance();
  R.reset_counters();
  R.set_truncate_all(rt::TruncationSpec::trunc64(exp_bits, man_bits));
  PoissonSolver<Real> solver(pb.n, pb.n, pb.h, pb.h);
  solver.set_batch(false);
  std::vector<Real> p(pb.rhs.size(), Real(0.0));
  const auto res = solver.solve(p, pb.rhs, pb.beta_x, pb.beta_y, 1e-7, 300);
  R.clear_truncate_all();
  const auto cs = R.counters();
  const u64 hash = hash_bits(p);
  char line[200];
  std::snprintf(line, sizeof line, "it %d conv %d res %016llx p %016llx p0 %016llx pn %016llx",
                res.iterations, res.converged ? 1 : 0,
                static_cast<unsigned long long>(std::bit_cast<u64>(res.residual)),
                static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(std::bit_cast<u64>(to_double(p.front()))),
                static_cast<unsigned long long>(std::bit_cast<u64>(to_double(p.back()))));
  std::string kinds = "ops";
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    kinds += ' ';
    kinds += std::to_string(cs.trunc_by_kind[i]);
  }
  EXPECT_EQ(cs.full_flops, 0u);
  return {line, kinds};
}

TEST(RealPathPin, PoissonSolveAtE11M44) {
  rt::Runtime::instance().reset_all();
  const std::vector<std::string> expect = {
      "it 115 conv 1 res 3e3c707b33000000 p bff52e6c8040fec6 p0 bf634eb98f5b6374 pn "
      "3f645be30c26978c",
      "ops 117760 58880 147200 29440 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"};
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    EXPECT_EQ(poisson_pin(11, 44), expect) << threads << " threads";
  }
  rt::Runtime::instance().reset_all();
}

TEST(RealPathPin, PoissonSolveAtE8M20) {
  rt::Runtime::instance().reset_all();
  const std::vector<std::string> expect = {
      "it 300 conv 0 res 3ee499999999a000 p ba2cb873f193b725 p0 bf634ec033100000 pn "
      "3f645bedccf00000",
      "ops 307200 153600 384000 76800 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"};
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    EXPECT_EQ(poisson_pin(8, 20), expect) << threads << " threads";
  }
  rt::Runtime::instance().reset_all();
}

/// Formatted pin of one PoissonSolver<double> solve of the pins' problem
/// (the bubble projection's path): iterations, convergence, the residual's
/// bits and a hash of p. Only +, -, *, / and fabs run, so the pinned bits
/// hold on any host.
std::string native_poisson_pin(double tol, int max_iter) {
  const PinProblem pb;
  const PoissonSolver<double> solver(pb.n, pb.n, pb.h, pb.h);
  std::vector<double> p(pb.rhs.size(), 0.0);
  const auto res = solver.solve(p, pb.rhs, pb.beta_x, pb.beta_y, tol, max_iter);
  char line[120];
  std::snprintf(line, sizeof line, "it %d conv %d res %016llx p %016llx", res.iterations,
                res.converged ? 1 : 0,
                static_cast<unsigned long long>(std::bit_cast<u64>(res.residual)),
                static_cast<unsigned long long>(hash_bits(p)));
  return line;
}

TEST(NativePathPin, PoissonSolve) {
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    // The bubble's budget: 300 sweeps, stopped short of the tolerance.
    EXPECT_EQ(native_poisson_pin(1e-16, 300),
              "it 300 conv 0 res 3ce5600000000000 p e95bb2e84cae3921")
        << threads << " threads";
    EXPECT_EQ(native_poisson_pin(1e-7, 2000),
              "it 115 conv 1 res 3e3c705043000000 p d3bc61771510fe4d")
        << threads << " threads";
  }
}

/// The solve as a cell loop, written out: each sweep visits one colour's
/// cells in row-major order, computes each cell's face coefficients and
/// diagonal from beta, skips cells whose diagonal is not positive, and
/// reads the neighbours clamped to the grid (a wall's zero face coefficient
/// cancels the clamped read). Convergence control and the null-space
/// pinning are PoissonSolver::solve's; instrumented ops run in the
/// "poisson" region. The stencil plan must reproduce it bit for bit.
template <class S>
PoissonResult cell_loop_solve(int nx, int ny, double hx, double hy, std::vector<S>& p,
                              const std::vector<double>& rhs, const std::vector<double>& beta_x,
                              const std::vector<double>& beta_y, double tol, int max_iter,
                              double omega = 1.7) {
  Region region("poisson");
  const double hx2 = 1.0 / (hx * hx), hy2 = 1.0 / (hy * hy);
  const auto idx = [&](int i, int j) { return static_cast<std::size_t>(j) * nx + i; };
  const auto faces = [&](int i, int j) {
    const auto bx = [&](int fi) { return beta_x[static_cast<std::size_t>(j) * (nx + 1) + fi]; };
    const auto by = [&](int fj) { return beta_y[static_cast<std::size_t>(fj) * nx + i]; };
    return std::array<double, 4>{i > 0 ? bx(i) * hx2 : 0.0, i < nx - 1 ? bx(i + 1) * hx2 : 0.0,
                                 j > 0 ? by(j) * hy2 : 0.0, j < ny - 1 ? by(j + 1) * hy2 : 0.0};
  };
  const auto at = [&](int i, int j) -> const S& {
    return p[idx(std::clamp(i, 0, nx - 1), std::clamp(j, 0, ny - 1))];
  };
  const auto residual = [&] {
    double worst = 0.0;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const auto [ble, bri, bbo, bto] = faces(i, j);
        const double pc = to_double(p[idx(i, j)]);
        const double lap = (i > 0 ? ble * (to_double(p[idx(i - 1, j)]) - pc) : 0.0) +
                           (i < nx - 1 ? bri * (to_double(p[idx(i + 1, j)]) - pc) : 0.0) +
                           (j > 0 ? bbo * (to_double(p[idx(i, j - 1)]) - pc) : 0.0) +
                           (j < ny - 1 ? bto * (to_double(p[idx(i, j + 1)]) - pc) : 0.0);
        worst = std::max(worst, std::fabs(lap - rhs[idx(i, j)]));
      }
    }
    return worst;
  };
  double rhs_norm = 0.0;
  for (const double r : rhs) rhs_norm = std::max(rhs_norm, std::fabs(r));
  if (rhs_norm < 1e-300) rhs_norm = 1.0;
  double diag_max = 0.0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto f = faces(i, j);
      diag_max = std::max(diag_max, f[0] + f[1] + f[2] + f[3]);
    }
  }
  if (diag_max <= 0.0) diag_max = 1.0;

  PoissonResult out;
  bool early_check_armed = true;
  for (int it = 1; it <= max_iter; ++it) {
    out.iterations = it;
    double max_update = 0.0;
    for (int color = 0; color < 2; ++color) {
      for (int j = 0; j < ny; ++j) {
        for (int i = (j + color) & 1; i < nx; i += 2) {
          const auto [ble, bri, bbo, bto] = faces(i, j);
          const double diag = ble + bri + bbo + bto;
          if (diag <= 0.0) continue;
          const SorUpdate<S> u = sor_update(S(ble), at(i - 1, j), S(bri), at(i + 1, j), S(bbo),
                                            at(i, j - 1), S(bto), at(i, j + 1), S(rhs[idx(i, j)]),
                                            S(diag), S(omega), p[idx(i, j)]);
          p[idx(i, j)] = u.p;
          max_update = std::max(max_update, std::fabs(to_double(u.upd)));
        }
      }
    }
    const bool cadence = it % 10 == 0 || it == max_iter;
    const bool plausibly_converged = early_check_armed && max_update * diag_max < tol * rhs_norm;
    if (cadence) early_check_armed = true;
    if (cadence || plausibly_converged) {
      out.residual = residual();
      if (out.residual < tol * rhs_norm) {
        out.converged = true;
        break;
      }
      if (plausibly_converged && !cadence) early_check_armed = false;
    }
  }
  double mean = 0.0;
  for (const S& v : p) mean += to_double(v);
  mean /= static_cast<double>(p.size());
  for (S& v : p) v = S(to_double(v) - mean);
  return out;
}

/// A grid for the plan-against-cell-loop tests. Its problem has Neumann
/// walls, face coefficients that vary per face and a right-hand side of
/// both signs; `isolated` zeroes all four faces of two cells, so their
/// diagonal is 0 and no sweep updates them.
struct PlanGrid {
  const char* name = "";
  int nx = 1, ny = 1;
  bool isolated = false;
};

class PoissonPlan : public ::testing::TestWithParam<PlanGrid> {};

TEST_P(PoissonPlan, SolveMatchesCellLoopBitwise) {
  const PlanGrid g = GetParam();
  const double hx = 1.0 / g.nx, hy = 2.0 / (g.ny + 1);
  std::vector<double> beta_x(static_cast<std::size_t>(g.nx + 1) * g.ny, 0.0);
  std::vector<double> beta_y(static_cast<std::size_t>(g.nx) * (g.ny + 1), 0.0);
  for (int j = 0; j < g.ny; ++j) {
    for (int i = 1; i < g.nx; ++i) {
      beta_x[static_cast<std::size_t>(j) * (g.nx + 1) + i] = 1.0 + 0.25 * ((3 * i + j) % 5);
    }
  }
  for (int j = 1; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      beta_y[static_cast<std::size_t>(j) * g.nx + i] = 0.5 + 0.75 * ((i + 2 * j) % 3);
    }
  }
  if (g.isolated) {
    for (const auto& [i, j] : {std::pair{2, 2}, std::pair{5, 3}}) {
      beta_x[static_cast<std::size_t>(j) * (g.nx + 1) + i] = 0.0;
      beta_x[static_cast<std::size_t>(j) * (g.nx + 1) + i + 1] = 0.0;
      beta_y[static_cast<std::size_t>(j) * g.nx + i] = 0.0;
      beta_y[static_cast<std::size_t>(j + 1) * g.nx + i] = 0.0;
    }
  }
  std::vector<double> rhs(static_cast<std::size_t>(g.nx) * g.ny);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    rhs[k] = std::sin(0.7 * static_cast<double>(k) + 0.3) - 0.1;
  }

  auto& R = rt::Runtime::instance();
  struct Record {
    std::vector<u64> p;
    PoissonResult res;
    rt::CounterSnapshot counters;
  };
  const auto record = [&](auto& p, const PoissonResult& res) {
    Record r{{}, res, R.counters()};
    for (const auto& v : p) r.p.push_back(std::bit_cast<u64>(to_double(v)));
    return r;
  };
  const auto expect_same = [&](const Record& got, const Record& want, const std::string& what) {
    EXPECT_EQ(got.p, want.p) << what;
    EXPECT_EQ(got.res.iterations, want.res.iterations) << what;
    EXPECT_EQ(got.res.converged, want.res.converged) << what;
    EXPECT_EQ(std::bit_cast<u64>(got.res.residual), std::bit_cast<u64>(want.res.residual)) << what;
    EXPECT_EQ(got.counters.trunc_by_kind, want.counters.trunc_by_kind) << what;
    EXPECT_EQ(got.counters.full_by_kind, want.counters.full_by_kind) << what;
  };
  // A tolerance the truncated solves never reach and the native ones reach
  // on some grids, so both exits run.
  const double tol = 1e-9;
  const int max_iter = 150;
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    const std::string at = std::string(g.name) + ", " + std::to_string(threads) + " threads";
    R.reset_all();
    {
      std::vector<double> p(rhs.size(), 0.0);
      const auto want =
          record(p, cell_loop_solve(g.nx, g.ny, hx, hy, p, rhs, beta_x, beta_y, tol, max_iter));
      const PoissonSolver<double> solver(g.nx, g.ny, hx, hy);
      std::vector<double> q(rhs.size(), 0.0);
      expect_same(record(q, solver.solve(q, rhs, beta_x, beta_y, tol, max_iter)), want,
                  "double, " + at);
    }
    // Real under a region override, the way the search truncates the solve.
    R.set_region_format("poisson", rt::TruncationSpec::trunc64(11, 20));
    R.reset_counters();
    std::vector<Real> p(rhs.size(), Real(0.0));
    const auto want =
        record(p, cell_loop_solve(g.nx, g.ny, hx, hy, p, rhs, beta_x, beta_y, tol, max_iter));
    if (g.nx * g.ny > 2) {
      EXPECT_GT(want.counters.trunc_flops, 0u) << at;
    }
    for (const bool batch : {false, true}) {
      R.reset_counters();
      PoissonSolver<Real> solver(g.nx, g.ny, hx, hy);
      solver.set_batch(batch);
      std::vector<Real> q(rhs.size(), Real(0.0));
      expect_same(record(q, solver.solve(q, rhs, beta_x, beta_y, tol, max_iter)), want,
                  std::string(batch ? "Real batched, " : "Real per cell, ") + at);
    }
    R.reset_all();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PoissonPlan,
    ::testing::Values(PlanGrid{.name = "walls_8x6", .nx = 8, .ny = 6},
                      PlanGrid{.name = "odd_7x5", .nx = 7, .ny = 5},
                      PlanGrid{.name = "odd_9x11", .nx = 9, .ny = 11},
                      PlanGrid{.name = "row_1x9", .nx = 1, .ny = 9},
                      PlanGrid{.name = "column_9x1", .nx = 9, .ny = 1},
                      PlanGrid{.name = "single_1x1", .nx = 1, .ny = 1},
                      PlanGrid{.name = "isolated_8x6", .nx = 8, .ny = 6, .isolated = true}),
    [](const ::testing::TestParamInfo<PlanGrid>& info) { return std::string(info.param.name); });

TEST(PoissonDeath, RejectsMismatchedCoefficientSizes) {
  // The solve reads rhs, beta_x and beta_y at indices computed from the
  // grid, so an input of the wrong size would be read out of bounds.
  // The statement runs in a fresh process: a forked copy of this one may
  // hold an OpenMP pool it cannot use.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const int nx = 6, ny = 4;
  const PoissonSolver<double> solver(nx, ny, 0.25, 0.25);
  const std::vector<double> beta_x((nx + 1) * ny, 1.0), beta_y(nx * (ny + 1), 1.0);
  const std::vector<double> rhs(nx * ny, 0.0), short_rhs(nx * ny - 1, 0.0);
  const std::vector<double> cell_sized(nx * ny, 1.0);
  std::vector<double> p(nx * ny, 0.0);
  EXPECT_DEATH(solver.solve(p, short_rhs, beta_x, beta_y), "bad rhs size");
  EXPECT_DEATH(solver.solve(p, rhs, cell_sized, beta_y), "bad beta_x size");
  EXPECT_DEATH(solver.solve(p, rhs, beta_x, cell_sized), "bad beta_y size");
}

TEST_F(IncompTest, PoissonConvergesPromptlyOffTheResidualCadence) {
  // Regression for the stale-residual bug: convergence used to be checked
  // only every 10 sweeps, so a solve converging in between was detected up
  // to 9 sweeps late and PoissonResult.residual could describe an older
  // iterate. The cheap update-norm trigger must detect convergence on a
  // non-multiple-of-10 sweep and report the residual of the returned p.
  const PoissonCase c;
  PoissonSolver<double> s(c.n, c.n, c.h, c.h);

  // Warm-start from a converged solution of a slightly looser tolerance so
  // convergence lands within a few sweeps, away from the cadence.
  std::vector<double> p(c.rhs.size(), 0.0);
  s.solve(p, c.rhs, c.beta_x, c.beta_y, 1e-5, 2000);
  const auto res = s.solve(p, c.rhs, c.beta_x, c.beta_y, 1e-4, 2000);
  EXPECT_TRUE(res.converged);
  EXPECT_NE(res.iterations % 10, 0) << "warm start converged on the cadence; "
                                       "the regression is not exercised";
  EXPECT_LT(res.iterations, 10);
  // The reported residual corresponds to the returned p: recomputing it on
  // the (mean-pinned) solution reproduces it up to the rounding of the
  // constant shift, far below the residual's own scale.
  EXPECT_NEAR(s.residual_norm(p, c.rhs, c.beta_x, c.beta_y), res.residual, 1e-9);
}

// ---------------------------------------------------------------------------
// Bubble simulation
// ---------------------------------------------------------------------------

BubbleConfig small_bubble_cfg() {
  BubbleConfig cfg;
  cfg.nx = 32;
  cfg.ny = 64;
  return cfg;
}

TEST_F(IncompTest, ProjectionKeepsDivergenceSmall) {
  BubbleSim<double> sim(small_bubble_cfg());
  for (int s = 0; s < 10; ++s) sim.step();
  EXPECT_LT(sim.last_divergence(), 1e-3);
}

TEST_F(IncompTest, BubbleRisesUnderBuoyancy) {
  BubbleSim<double> sim(small_bubble_cfg());
  const double y0 = sim.metrics().bubbles.at(0).centroid_y;
  for (int s = 0; s < 60; ++s) sim.step();
  const auto m = sim.metrics();
  ASSERT_GE(m.bubble_count, 1);
  EXPECT_GT(m.bubbles[0].centroid_y, y0 + 0.01);
  // Upward velocity inside the bubble (center sits at y = 0.5 -> j ~ 16 on
  // the ly = 2 domain).
  EXPECT_GT(sim.velocity_v(16, 18), 0.0);
}

TEST_F(IncompTest, AreaApproximatelyConserved) {
  // Plain level-set methods lose some mass on coarse grids (the bubble
  // radius here is ~5 cells); bound the drift rather than demand exactness.
  BubbleSim<double> sim(small_bubble_cfg());
  const double a0 = sim.metrics().total_area;
  for (int s = 0; s < 60; ++s) sim.step();
  EXPECT_NEAR(sim.metrics().total_area, a0, 0.2 * a0);
}

TEST_F(IncompTest, DensityFieldTracksPhases) {
  BubbleSim<double> sim(small_bubble_cfg());
  EXPECT_NEAR(sim.density_at(16, 16), 1.0 / 100.0, 1e-6);  // bubble center: air
  EXPECT_NEAR(sim.density_at(2, 2), 1.0, 1e-9);            // far corner: water
}

TEST_F(IncompTest, VirtualLevelsFollowInterfaceDistance) {
  BubbleSim<double> sim(small_bubble_cfg());
  // Interface cells at max level; far cells at level 1.
  int cnt_fine = 0, cnt_coarse = 0;
  for (int j = 0; j < 64; ++j) {
    for (int i = 0; i < 32; ++i) {
      if (sim.vlevel_at(i, j) == 3) ++cnt_fine;
      if (sim.vlevel_at(i, j) == 1) ++cnt_coarse;
    }
  }
  EXPECT_GT(cnt_fine, 20);
  EXPECT_GT(cnt_coarse, 500);
  EXPECT_EQ(sim.vlevel_at(0, 0), 1);
}

TEST_F(IncompTest, BatchedAdvectionBitwiseMatchesScalarAdvection) {
  // The batched stages (per-thread spans grouped by gate + batch::Vec,
  // DESIGN.md §8) must reproduce the scalar per-point path bit for bit,
  // including with a cutoff so a thread's points split by gate.
  const auto run_phi = [](bool batch, int cutoff) {
    rt::Runtime::instance().reset_all();
    auto cfg = small_bubble_cfg();
    cfg.trunc = rt::TruncationSpec::trunc64(8, 12);
    cfg.cutoff_l = cutoff;
    cfg.batch = batch;
    BubbleSim<Real> sim(cfg);
    for (int s = 0; s < 3; ++s) sim.step();
    const auto c = rt::Runtime::instance().counters();
    return std::pair{sim.phi_field().v, c};
  };
  for (const int cutoff : {0, 1}) {
    const auto [scalar, sc] = run_phi(false, cutoff);
    const auto [batched, bc] = run_phi(true, cutoff);
    ASSERT_EQ(scalar.size(), batched.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batched[i]))
          << "cutoff " << cutoff << " cell " << i;
    }
    EXPECT_EQ(sc.trunc_flops, bc.trunc_flops) << cutoff;
    EXPECT_EQ(sc.full_flops, bc.full_flops) << cutoff;
    EXPECT_EQ(sc.trunc_by_kind, bc.trunc_by_kind) << cutoff;
    EXPECT_EQ(sc.full_by_kind, bc.full_by_kind) << cutoff;
  }
  rt::Runtime::instance().reset_all();
}

// The batch path (DESIGN.md §8) runs every truncated stage of a step —
// level-set and momentum advection, the viscous terms — through the
// batch::Vec instantiation of its kernel over spans of each thread's
// points. Whole steps must match the per-point loop bit for bit: u, v and
// phi, the per-OpKind counters, and the op counts and bytes of both
// regions. The cases aim at the span layout and at the kernels behind it:
//  * cfg.trunc with cutoffs 0/1/2, so a thread's share splits into a
//    truncated and a native group (1/2) or stays whole (0);
//  * region formats at m = 9, 28 and 44, installed the way the precision
//    search installs them, so every op runs truncated on the fast kernels
//    (m = 9) or the tie-breaking ones (m = 28, 44) while the scalar path
//    stays on BigFloat;
//  * hw_fastpath on, which moves the scalar path onto the fast kernels too;
//  * a 3-thread team, whose static share of the points is uneven.
struct BubbleCase {
  const char* name = "";
  std::optional<sf::Format> trunc = std::nullopt;   ///< cfg.trunc, with cutoff_l below
  int cutoff = 0;
  std::optional<sf::Format> region = std::nullopt;  ///< region format of both regions
  bool hw_fastpath = false;
  int threads = 0;                   ///< OpenMP team size; 0 keeps the default
};

class BubbleBatch : public ::testing::TestWithParam<BubbleCase> {};

TEST_P(BubbleBatch, WholeStepBitwiseMatchesScalarStep) {
  const BubbleCase bc = GetParam();
  auto& R = rt::Runtime::instance();
  const testing_support::TeamSize team(bc.threads);
  const auto run_with = [&](bool batch) {
    R.reset_all();
    R.set_hw_fastpath(bc.hw_fastpath);
    R.set_region_profiling(true);
    if (bc.region) {
      rt::TruncationSpec spec;
      spec.for64 = *bc.region;
      R.set_region_format("incomp/advect", spec);
      R.set_region_format("incomp/diffuse", spec);
    }
    auto cfg = small_bubble_cfg();
    if (bc.trunc) cfg.trunc = rt::TruncationSpec::trunc64(bc.trunc->exp_bits, bc.trunc->man_bits);
    cfg.cutoff_l = bc.cutoff;
    cfg.batch = batch;
    BubbleSim<Real> sim(cfg);
    for (int s = 0; s < 3; ++s) sim.step();
    std::vector<double> fields;
    for (int j = 0; j < cfg.ny; ++j) {
      for (int i = 0; i <= cfg.nx; ++i) fields.push_back(sim.velocity_u(i, j));
    }
    for (int j = 0; j <= cfg.ny; ++j) {
      for (int i = 0; i < cfg.nx; ++i) fields.push_back(sim.velocity_v(i, j));
    }
    const auto phi = sim.phi_field().v;
    fields.insert(fields.end(), phi.begin(), phi.end());
    std::map<std::string, rt::CounterSnapshot> regions;
    for (const auto& e : R.region_profiles()) regions[e.label] = e.profile.counters;
    const auto counters = R.counters();
    R.reset_all();
    return std::tuple{fields, counters, regions};
  };
  const auto [scalar, sc, sregions] = run_with(false);
  const auto [batched, bcnt, bregions] = run_with(true);
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batched[i])) << "value " << i;
  }
  EXPECT_EQ(sc.trunc_flops, bcnt.trunc_flops);
  EXPECT_EQ(sc.full_flops, bcnt.full_flops);
  EXPECT_EQ(sc.trunc_bytes, bcnt.trunc_bytes);
  EXPECT_EQ(sc.full_bytes, bcnt.full_bytes);
  EXPECT_EQ(sc.trunc_by_kind, bcnt.trunc_by_kind);
  EXPECT_EQ(sc.full_by_kind, bcnt.full_by_kind);
  for (const char* label : {"incomp/advect", "incomp/diffuse"}) {
    ASSERT_TRUE(sregions.count(label) != 0 && bregions.count(label) != 0) << label;
    const auto& s = sregions.at(label);
    const auto& b = bregions.at(label);
    EXPECT_GT(s.trunc_flops, 0u) << label;
    EXPECT_EQ(s.trunc_flops, b.trunc_flops) << label;
    EXPECT_EQ(s.full_flops, b.full_flops) << label;
    EXPECT_EQ(s.trunc_bytes, b.trunc_bytes) << label;
    EXPECT_EQ(s.full_bytes, b.full_bytes) << label;
    EXPECT_EQ(s.trunc_by_kind, b.trunc_by_kind) << label;
    EXPECT_EQ(s.full_by_kind, b.full_by_kind) << label;
  }
  // The layout cases must exercise what they are named for.
  if (bc.cutoff != 0) {
    EXPECT_GT(sregions.at("incomp/advect").full_flops, 0u) << "no native group";
  }
  if (bc.threads != 0) {
    const auto& cfg = small_bubble_cfg();
    EXPECT_NE(cfg.nx * cfg.ny % bc.threads, 0) << "cells split evenly";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BubbleByFormat, BubbleBatch,
    ::testing::Values(
        BubbleCase{.name = "trunc_e8m12_cutoff0", .trunc = sf::Format{8, 12}},
        BubbleCase{.name = "trunc_e8m12_cutoff1", .trunc = sf::Format{8, 12}, .cutoff = 1},
        BubbleCase{.name = "trunc_e11m28_cutoff2", .trunc = sf::Format{11, 28}, .cutoff = 2},
        BubbleCase{.name = "region_e11m9", .region = sf::Format{11, 9}},
        BubbleCase{.name = "region_e11m28", .region = sf::Format{11, 28}},
        BubbleCase{.name = "region_e11m44", .region = sf::Format{11, 44}},
        BubbleCase{.name = "region_e11m28_hw", .region = sf::Format{11, 28}, .hw_fastpath = true},
        BubbleCase{.name = "trunc_e11m44_cutoff1_threads3",
                   .trunc = sf::Format{11, 44},
                   .cutoff = 1,
                   .threads = 3}),
    [](const ::testing::TestParamInfo<BubbleCase>& info) { return std::string(info.param.name); });

TEST_F(IncompTest, CutoffGateControlsTruncatedFraction) {
  auto run_fraction = [](int cutoff) {
    rt::Runtime::instance().reset_all();
    auto cfg = small_bubble_cfg();
    cfg.trunc = rt::TruncationSpec::trunc64(11, 30);
    cfg.cutoff_l = cutoff;
    BubbleSim<Real> sim(cfg);
    for (int s = 0; s < 2; ++s) sim.step();
    return rt::Runtime::instance().counters().trunc_fraction();
  };
  const double f0 = run_fraction(0);
  const double f1 = run_fraction(1);
  const double f2 = run_fraction(2);
  EXPECT_GT(f0, 0.5);   // "Trunc. Everywhere": most advect/diffuse ops truncated
  EXPECT_LT(f1, f0);
  EXPECT_LT(f2, f1);
  rt::Runtime::instance().reset_all();
}

TEST_F(IncompTest, InterfacePrecisionSensitivity) {
  // The Fig. 1 mechanism quantified: a 4-bit mantissa visibly perturbs the
  // interface; 30 bits tracks the double reference far more closely.
  const auto run_phi = [](std::optional<rt::TruncationSpec> spec) {
    rt::Runtime::instance().reset_all();
    auto cfg = small_bubble_cfg();
    cfg.trunc = spec;
    BubbleSim<Real> sim(cfg);
    for (int s = 0; s < 25; ++s) sim.step();
    return sim.phi_field();
  };
  const auto ref = run_phi(std::nullopt);
  const auto coarse = run_phi(rt::TruncationSpec::trunc64(8, 4));
  const auto fine = run_phi(rt::TruncationSpec::trunc64(11, 30));
  const double e_coarse = io::compare_fields(coarse.v, ref.v).l1;
  const double e_fine = io::compare_fields(fine.v, ref.v).l1;
  EXPECT_GT(e_coarse, 10.0 * e_fine);
  EXPECT_GT(e_coarse, 1e-4);
  rt::Runtime::instance().reset_all();
}

}  // namespace
}  // namespace raptor::incomp
