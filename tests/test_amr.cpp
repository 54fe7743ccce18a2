// AMR substrate tests: geometry, guard fill in all adjacency cases,
// refinement/derefinement, 2:1 balance, prolongation/restriction
// conservation, estimator behaviour, truncation interplay, and the
// guard-fill plan across team sizes, grid copies and regrids.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "amr/grid.hpp"
#include "runtime/runtime.hpp"
#include "tests/team_size.hpp"
#include "trunc/scope.hpp"

namespace raptor::amr {
namespace {

GridConfig small_cfg(int max_level = 3) {
  GridConfig c;
  c.nxb = c.nyb = 8;
  c.ng = 2;
  c.nbx = c.nby = 2;
  c.max_level = max_level;
  c.nvar = 2;
  c.refine_vars = {0};
  return c;
}

/// A smooth field plus a sharp circular feature that forces refinement.
void ring_ic(double x, double y, std::span<double> v) {
  const double r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5));
  v[0] = 1.0 + 5.0 * std::exp(-std::pow((r - 0.25) / 0.01, 2));
  v[1] = x + y;
}

TEST(AmrGeometry, CellCentersAndSpacing) {
  AmrGrid<double> g(small_cfg(1));
  EXPECT_EQ(g.num_leaves(), 4);
  EXPECT_DOUBLE_EQ(g.dx(1), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(g.dx(2), 1.0 / 32.0);
  const auto& b = g.leaf(0);
  EXPECT_DOUBLE_EQ(g.cell_x(b, 0), 0.5 / 16.0);
  EXPECT_DOUBLE_EQ(g.cell_y(b, 7), 7.5 / 16.0);
}

TEST(AmrGeometry, TotalCellsMatchesLeafCount) {
  AmrGrid<double> g(small_cfg(1));
  EXPECT_EQ(g.total_cells(), 4u * 64u);
}

TEST(AmrInit, InitSetsAllInteriorCells) {
  AmrGrid<double> g(small_cfg(1));
  g.init([](double x, double y, std::span<double> v) {
    v[0] = x;
    v[1] = y;
  });
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(g.at(b, 0, i, j), g.cell_x(b, i));
        EXPECT_DOUBLE_EQ(g.at(b, 1, i, j), g.cell_y(b, j));
      }
    }
  }
}

TEST(AmrGuards, SameLevelExchangeIsExact) {
  AmrGrid<double> g(small_cfg(1));
  g.init([](double x, double y, std::span<double> v) {
    v[0] = 3.0 * x + 7.0 * y;
    v[1] = x * y;
  });
  g.fill_guards();
  // Leaf 0 is the lower-left root block; its XHi guards must equal the
  // interior of leaf 1 (same level).
  const auto& b0 = g.leaf(0);
  for (int j = 0; j < 8; ++j) {
    for (int i = 8; i < 10; ++i) {
      const double x = g.cell_x(b0, i);  // extends beyond the block
      const double y = g.cell_y(b0, j);
      EXPECT_NEAR(g.at(b0, 0, i, j), 3.0 * x + 7.0 * y, 1e-14);
    }
  }
}

TEST(AmrGuards, OutflowCopiesEdgeCells) {
  AmrGrid<double> g(small_cfg(1));
  g.init([](double x, double y, std::span<double> v) {
    v[0] = x + 2.0 * y;
    v[1] = 0.0;
  });
  g.fill_guards();
  const auto& b0 = g.leaf(0);  // touches XLo and YLo physical boundaries
  for (int j = 0; j < 8; ++j) {
    for (int i = -2; i < 0; ++i) {
      EXPECT_DOUBLE_EQ(g.at(b0, 0, i, j), g.at(b0, 0, 0, j));
    }
  }
}

TEST(AmrGuards, ReflectMirrorsAndFlipsOddVars) {
  auto cfg = small_cfg(1);
  cfg.bc = {BC::Reflect, BC::Reflect, BC::Reflect, BC::Reflect};
  cfg.x_odd_vars = {1};
  AmrGrid<double> g(cfg);
  g.init([](double x, double /*y*/, std::span<double> v) {
    v[0] = x;
    v[1] = x;  // odd under x-reflection
  });
  g.fill_guards();
  const auto& b0 = g.leaf(0);
  EXPECT_DOUBLE_EQ(g.at(b0, 0, -1, 3), g.at(b0, 0, 0, 3));   // even: mirror
  EXPECT_DOUBLE_EQ(g.at(b0, 1, -1, 3), -g.at(b0, 1, 0, 3));  // odd: negated
  EXPECT_DOUBLE_EQ(g.at(b0, 0, -2, 3), g.at(b0, 0, 1, 3));
}

TEST(AmrGuards, PeriodicWrapsAcrossDomain) {
  auto cfg = small_cfg(1);
  cfg.bc = {BC::Periodic, BC::Periodic, BC::Periodic, BC::Periodic};
  AmrGrid<double> g(cfg);
  g.init([](double x, double y, std::span<double> v) {
    v[0] = std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    v[1] = 0.0;
  });
  g.fill_guards();
  const auto& b0 = g.leaf(0);
  // XLo guard of the leftmost block equals the rightmost interior column.
  const double x_wrap = 1.0 + g.cell_x(b0, -1);  // x of the wrapped cell
  const double y = g.cell_y(b0, 3);
  EXPECT_NEAR(g.at(b0, 0, -1, 3), std::sin(2 * M_PI * x_wrap) * std::cos(2 * M_PI * y), 1e-12);
}

TEST(AmrRefine, SharpFeatureRefinesToMaxLevel) {
  AmrGrid<double> g(small_cfg(3));
  g.build_with_ic(ring_ic);
  EXPECT_EQ(g.max_level_present(), 3);
  EXPECT_GT(g.num_leaves(), 4);
  EXPECT_TRUE(g.balanced());
}

TEST(AmrRefine, SmoothFieldStaysCoarse) {
  AmrGrid<double> g(small_cfg(3));
  g.build_with_ic([](double x, double y, std::span<double> v) {
    v[0] = 1.0 + 0.01 * x + 0.02 * y;
    v[1] = 0.0;
  });
  EXPECT_EQ(g.max_level_present(), 1);
  EXPECT_EQ(g.num_leaves(), 4);
}

TEST(AmrRefine, BalanceHoldsThroughRepeatedRegrids) {
  AmrGrid<double> g(small_cfg(4));
  g.build_with_ic(ring_ic);
  EXPECT_TRUE(g.balanced());
  // Move the feature and regrid repeatedly: hierarchy must follow and stay
  // balanced.
  for (int pass = 1; pass <= 4; ++pass) {
    const double shift = 0.04 * pass;
    g.init([shift](double x, double y, std::span<double> v) {
      const double r =
          std::sqrt((x - 0.5 - shift) * (x - 0.5 - shift) + (y - 0.5) * (y - 0.5));
      v[0] = 1.0 + 5.0 * std::exp(-std::pow((r - 0.25) / 0.01, 2));
      v[1] = 0.0;
    });
    g.regrid();
    EXPECT_TRUE(g.balanced()) << "pass " << pass;
  }
}

TEST(AmrRefine, DerefinementCoarsensWhenFeatureVanishes) {
  AmrGrid<double> g(small_cfg(3));
  g.build_with_ic(ring_ic);
  const int refined_leaves = g.num_leaves();
  ASSERT_GT(refined_leaves, 4);
  // Replace with a smooth field; repeated regrids should coarsen.
  for (int pass = 0; pass < 6; ++pass) {
    g.init([](double, double, std::span<double> v) {
      v[0] = 1.0;
      v[1] = 0.0;
    });
    if (g.regrid() == 0) break;
  }
  EXPECT_LT(g.num_leaves(), refined_leaves);
  EXPECT_EQ(g.max_level_present(), 1);
  EXPECT_TRUE(g.balanced());
}

TEST(AmrRefine, ProlongationPreservesLinearFields) {
  // minmod-limited linear prolongation reproduces linear data exactly in
  // the block interior.
  AmrGrid<double> g(small_cfg(2));
  g.init([](double x, double y, std::span<double> v) {
    v[0] = 100.0;  // flat: no refinement from the estimator
    v[1] = 2.0 * x + 3.0 * y;
  });
  // Force refinement by spiking var 0 in one corner cell region.
  auto cfg = small_cfg(2);
  cfg.refine_thresh = -1.0;  // refine everything
  AmrGrid<double> g2(cfg);
  g2.init([](double x, double y, std::span<double> v) {
    v[0] = 2.0 * x + 3.0 * y;
    v[1] = 0.0;
  });
  g2.fill_guards();
  g2.regrid();
  EXPECT_EQ(g2.max_level_present(), 2);
  // Cells whose coarse source cell touches a physical boundary are
  // first-order (outflow guards have zero slope); check the rest only:
  // fine cells [2, 6) map to coarse cells [1, 7) within each half-block.
  for (int n = 0; n < g2.num_leaves(); ++n) {
    const auto& b = g2.leaf(n);
    if (b.level != 2) continue;
    for (int j = 2; j < 6; ++j) {
      for (int i = 2; i < 6; ++i) {
        EXPECT_NEAR(g2.at(b, 0, i, j), 2.0 * g2.cell_x(b, i) + 3.0 * g2.cell_y(b, j), 1e-12);
      }
    }
  }
}

TEST(AmrRefine, RestrictionConservesIntegral) {
  auto cfg = small_cfg(2);
  cfg.refine_thresh = -1.0;  // refine everything on first regrid
  AmrGrid<double> g(cfg);
  g.init([](double x, double y, std::span<double> v) {
    v[0] = 1.0 + x * x + std::sin(6 * y);
    v[1] = 0.0;
  });
  g.fill_guards();
  g.regrid();
  ASSERT_EQ(g.max_level_present(), 2);
  const double fine_integral = g.integral(0);
  // Flip thresholds so every block wants to coarsen; restriction (2x2
  // averaging) preserves the volume integral exactly.
  g.set_thresholds(1e9, 1e9);
  for (int pass = 0; pass < 4; ++pass) {
    if (g.regrid() == 0) break;
  }
  EXPECT_EQ(g.max_level_present(), 1);
  EXPECT_NEAR(g.integral(0), fine_integral, 1e-12 * std::fabs(fine_integral));
}

TEST(AmrRefine, ProlongationConservesIntegral) {
  auto cfg = small_cfg(2);
  cfg.refine_thresh = -1.0;
  AmrGrid<double> g(cfg);
  g.init([](double x, double y, std::span<double> v) {
    v[0] = 1.0 + 0.5 * x - 0.25 * y + 0.1 * std::sin(9 * x * y);
    v[1] = 0.0;
  });
  g.fill_guards();
  const double before = g.integral(0);
  g.regrid();
  // Linear-slope prolongation with cell-centered offsets +-1/4 preserves
  // each coarse cell's mean, hence the global integral.
  EXPECT_NEAR(g.integral(0), before, 1e-12 * std::fabs(before));
}

TEST(AmrSample, FindsCoveringLeafAcrossLevels) {
  AmrGrid<double> g(small_cfg(3));
  g.build_with_ic(ring_ic);
  ASSERT_GT(g.max_level_present(), 1);
  // Sampling returns the covering leaf's cell value. Var 1 is the smooth
  // field x + y: the sampled value differs from the point value by at most
  // one (coarse) cell width in each coordinate.
  const double tol = g.dx(1) + g.dy(1);
  for (double x : {0.03, 0.1, 0.26, 0.3, 0.5, 0.75, 0.97}) {
    for (double y : {0.02, 0.12, 0.52, 0.74, 0.98}) {
      EXPECT_NEAR(g.sample(1, x, y), x + y, tol) << x << "," << y;
    }
  }
}

TEST(AmrEstimator, LoehnerDetectsCurvatureNotSlope) {
  AmrGrid<double> g(small_cfg(1));
  // Pure linear field: zero second derivative -> near-zero estimator.
  g.init([](double x, double y, std::span<double> v) {
    v[0] = 5.0 * x - 2.0 * y;
    v[1] = 0.0;
  });
  g.fill_guards();
  double emax = 0.0;
  for (int n = 0; n < g.num_leaves(); ++n) emax = std::max(emax, g.loehner_error(g.leaf(n)));
  EXPECT_LT(emax, 1e-8);
  // Sharp jump: estimator near 1.
  g.init([](double x, double, std::span<double> v) {
    v[0] = x < 0.5 ? 1.0 : 2.0;
    v[1] = 0.0;
  });
  g.fill_guards();
  emax = 0.0;
  for (int n = 0; n < g.num_leaves(); ++n) emax = std::max(emax, g.loehner_error(g.leaf(n)));
  EXPECT_GT(emax, 0.5);
}

TEST(AmrEstimator, TruncationNoiseRaisesEstimate) {
  // The paper's Fig. 7 anomaly mechanism: quantizing a smooth field to a
  // tiny mantissa introduces curvature noise the estimator picks up.
  // Default loehner_eps: without the noise filter the estimator returns ~1
  // at smooth extrema (num ~ den there), masking the comparison.
  auto cfg = small_cfg(1);
  AmrGrid<double> smooth(cfg), noisy(cfg);
  // Gentle modulation on a large offset: smooth curvature is small, while
  // 4-bit quantization steps (~ 2^-4 * 2.0) dominate the second difference.
  const auto ic = [](double x, double y, std::span<double> v) {
    v[0] = 2.0 + 0.05 * std::sin(3.0 * x + 1.0) * std::cos(2.0 * y);
    v[1] = 0.0;
  };
  smooth.init(ic);
  noisy.init([&](double x, double y, std::span<double> v) {
    ic(x, y, v);
    v[0] = sf::quantize(v[0], sf::Format{8, 4});  // 4-bit mantissa
  });
  smooth.fill_guards();
  noisy.fill_guards();
  double e_smooth = 0.0, e_noisy = 0.0;
  for (int n = 0; n < smooth.num_leaves(); ++n) {
    e_smooth = std::max(e_smooth, smooth.loehner_error(smooth.leaf(n)));
    e_noisy = std::max(e_noisy, noisy.loehner_error(noisy.leaf(n)));
  }
  EXPECT_GT(e_noisy, 2.0 * e_smooth);
}

// ---------------------------------------------------------------------------
// Per-level mesh regions and the batched instrumented path (DESIGN.md §15)
// ---------------------------------------------------------------------------

void real_ring_ic(double x, double y, std::span<Real> v) {
  const double r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5));
  v[0] = Real(1.0 + 5.0 * std::exp(-std::pow((r - 0.25) / 0.01, 2)));
  v[1] = Real(std::sin(3.0 * x + 1.0) * std::cos(5.0 * y));
}

const rt::RegionProfileEntry* find_profile(const std::vector<rt::RegionProfileEntry>& v,
                                           const std::string& label) {
  for (const auto& e : v) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// AmrMeshPin: the op-mode mesh held to recorded constants
// ---------------------------------------------------------------------------
//
// Each mesh formula is one template, so there is no second dispatch shape
// to compare the op-mode mesh against. These cases pin it instead, as
// RealPathPin does for burn_cell and the Poisson solve: with every
// amr/L<k>/... region at one format, a build, shift, regrid and guard fill
// must reproduce a hash of every cell's bits (guards included), the
// per-OpKind counts, the byte counts and each amr/L<k>/... region-profile
// row. The constants were recorded while the per-op scalar dispatch was
// still in the tree, and it produced them too. Every op runs in the fast
// kernels, so they hold on any host and SIMD path. Format{11, 30} runs the
// kernels that break ties by the sign of the exact error (m > 24). Each
// case runs at OpenMP team sizes 1, 2 and 3: a thread's share of a level's
// guard lists (uneven on a team of 3) must not change a value or a count.

/// "<name> <kind>=<count>... | <kind>=<count>... | <trunc bytes> <full bytes>":
/// the truncated, then the full-precision op counts of every kind that ran.
std::string count_line(const std::string& name, const rt::CounterSnapshot& c) {
  std::string s = name;
  for (const auto* by_kind : {&c.trunc_by_kind, &c.full_by_kind}) {
    if (by_kind == &c.full_by_kind) s += " |";
    for (int k = 0; k < rt::kNumOpKinds; ++k) {
      if ((*by_kind)[k] == 0) continue;
      s += ' ';
      s += rt::op_name(static_cast<rt::OpKind>(k));
      s += '=' + std::to_string((*by_kind)[k]);
    }
  }
  return s + " | " + std::to_string(c.trunc_bytes) + ' ' + std::to_string(c.full_bytes);
}

/// Build, shift and regrid an instrumented grid with every mesh region at
/// `fmt`, then fill its guards; returns the pin lines: the leaf count and a
/// hash of every cell, the run's counts, then each amr/L<k>/... region row.
std::vector<std::string> mesh_pin(const sf::Format& fmt) {
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_region_profiling(true);
  auto cfg = small_cfg(3);
  const auto spec = rt::TruncationSpec::trunc64(fmt.exp_bits, fmt.man_bits);
  for (int l = 1; l <= cfg.max_level; ++l) {
    for (const char* phase : {"guard", "prolong", "restrict"}) {
      R.set_region_format("amr/L" + std::to_string(l) + "/" + phase, spec);
    }
  }
  std::vector<std::string> out;
  {
    AmrGrid<Real> g(cfg);
    g.build_with_ic(real_ring_ic);
    // Shift the feature and regrid: exercises split prolongation and merge
    // restriction on truncated data, then a fresh guard fill.
    g.init([](double x, double y, std::span<Real> v) { real_ring_ic(x - 0.07, y, v); });
    g.fill_guards();
    g.regrid();
    g.fill_guards();
    u64 h = 0xcbf29ce484222325ull;  // FNV-1a over each leaf's level and cell bits
    const auto mix = [&h](u64 w) {
      for (int s = 0; s < 64; s += 8) h = (h ^ ((w >> s) & 0xff)) * 0x100000001b3ull;
    };
    for (int n = 0; n < g.num_leaves(); ++n) {
      const auto& b = g.leaf(n);
      mix(static_cast<u64>(b.level));
      for (const Real& x : b.data) mix(std::bit_cast<u64>(x.raw()));
    }
    char line[64];
    std::snprintf(line, sizeof line, "leaves %d cells %016llx", g.num_leaves(),
                  static_cast<unsigned long long>(h));
    out.emplace_back(line);
  }
  out.push_back(count_line("all", R.counters()));
  std::vector<std::string> rows;
  for (const auto& e : R.region_profiles()) {
    if (e.label.rfind("amr/L", 0) == 0) rows.push_back(count_line(e.label, e.profile.counters));
  }
  std::sort(rows.begin(), rows.end());
  out.insert(out.end(), rows.begin(), rows.end());
  R.reset_all();
  return out;
}

TEST(AmrMeshPin, OpModeMeshAtE8M14) {
  const std::vector<std::string> expect = {
      "leaves 46 cells 6256fe0fd0ed7478",
      "all fadd=27904 fsub=45056 fmul=24320 | | 708608 0",
      "amr/L1/guard | | 16384 0",
      "amr/L2/guard fadd=4608 fmul=1536 | | 118784 0",
      "amr/L2/prolong fadd=4096 fsub=8192 fmul=4096 | | 0 0",
      "amr/L2/restrict fadd=768 fmul=256 | | 0 0",
      "amr/L3/guard fadd=6144 fsub=12288 fmul=6144 | | 573440 0",
      "amr/L3/prolong fadd=12288 fsub=24576 fmul=12288 | | 0 0"};
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    EXPECT_EQ(mesh_pin(sf::Format{8, 14}), expect) << threads << " threads";
  }
}

TEST(AmrMeshPin, OpModeMeshAtE11M30) {
  const std::vector<std::string> expect = {
      "leaves 46 cells 0c35cd99e984ae72",
      "all fadd=27904 fsub=45056 fmul=24320 | | 708608 0",
      "amr/L1/guard | | 16384 0",
      "amr/L2/guard fadd=4608 fmul=1536 | | 118784 0",
      "amr/L2/prolong fadd=4096 fsub=8192 fmul=4096 | | 0 0",
      "amr/L2/restrict fadd=768 fmul=256 | | 0 0",
      "amr/L3/guard fadd=6144 fsub=12288 fmul=6144 | | 573440 0",
      "amr/L3/prolong fadd=12288 fsub=24576 fmul=12288 | | 0 0"};
  for (const int threads : {1, 2, 3}) {
    const testing_support::TeamSize team(threads);
    EXPECT_EQ(mesh_pin(sf::Format{11, 30}), expect) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// AmrPlan: the guard-fill plan is built when the leaf set changes
// ---------------------------------------------------------------------------

/// Every cell's bits, guards included, leaf after leaf.
template <class T>
std::vector<u64> cell_bits(const AmrGrid<T>& g) {
  std::vector<u64> out;
  for (int n = 0; n < g.num_leaves(); ++n) {
    for (const T& x : g.leaf(n).data) out.push_back(std::bit_cast<u64>(to_double(x)));
  }
  return out;
}

/// (level, ix, iy) of every leaf, in leaf order.
template <class T>
std::vector<std::array<int, 3>> layout(const AmrGrid<T>& g) {
  std::vector<std::array<int, 3>> out;
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    out.push_back({b.level, b.ix, b.iy});
  }
  return out;
}

void shifted_ring_ic(double x, double y, std::span<double> v) { ring_ic(x - 0.07, y + 0.03, v); }

TEST(AmrPlan, CopiedGridFillsItsOwnGuards) {
  // A plan that kept pointers into the grid it was built for would fill the
  // source's guards from the source's interior when the copy fills.
  auto cfg = small_cfg(3);
  cfg.bc = {BC::Reflect, BC::Reflect, BC::Periodic, BC::Periodic};
  cfg.x_odd_vars = {1};
  AmrGrid<double> src(cfg);
  src.build_with_ic(ring_ic);
  ASSERT_EQ(src.max_level_present(), 3);
  const std::vector<u64> src_bits = cell_bits(src);

  AmrGrid<double> copy = src;
  copy.init(shifted_ring_ic);
  copy.fill_guards();
  EXPECT_EQ(cell_bits(src), src_bits);

  // The same leaves and interior, built directly.
  AmrGrid<double> direct(cfg);
  direct.build_with_ic(ring_ic);
  ASSERT_EQ(layout(direct), layout(copy));
  direct.init(shifted_ring_ic);
  direct.fill_guards();
  EXPECT_EQ(cell_bits(copy), cell_bits(direct));

  // A moved grid fills its own blocks too.
  AmrGrid<double> moved = std::move(copy);
  moved.init(ring_ic);
  moved.fill_guards();
  EXPECT_EQ(cell_bits(moved), src_bits);
}

TEST(AmrPlan, NoChangeRegridKeepsAPlanEqualToAFreshOne) {
  // After a regrid that changes nothing the grid keeps its plan. Its fill
  // must match, bit for bit, the fill of a grid whose last regrid changed
  // the mesh, so that its plan was built for exactly these leaves.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  for (int l = 1; l <= 3; ++l) {
    R.set_region_format("amr/L" + std::to_string(l) + "/guard",
                        rt::TruncationSpec::trunc64(8, 14));
  }
  const auto shifted = [](double x, double y, std::span<Real> v) {
    real_ring_ic(x - 0.07, y + 0.03, v);
  };
  AmrGrid<Real> kept(small_cfg(3));
  kept.build_with_ic(real_ring_ic);
  ASSERT_EQ(kept.max_level_present(), 3);
  for (int k = 0; k < 3; ++k) ASSERT_EQ(kept.regrid(), 0);

  AmrGrid<Real> fresh(small_cfg(3));
  while (layout(fresh) != layout(kept)) {
    fresh.init(real_ring_ic);
    fresh.fill_guards();
    ASSERT_GT(fresh.regrid(), 0);
  }
  for (AmrGrid<Real>* g : {&kept, &fresh}) {
    g->init(shifted);
    g->fill_guards();
  }
  EXPECT_EQ(cell_bits(kept), cell_bits(fresh));
  R.reset_all();
}

// ---------------------------------------------------------------------------
// Mem-mode mesh transfers
// ---------------------------------------------------------------------------

/// The leaf at (level, ix, iy), or -1.
int find_leaf(const AmrGrid<Real>& g, int level, int ix, int iy) {
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    if (b.level == level && b.ix == ix && b.iy == iy) return n;
  }
  return -1;
}

TEST(AmrMemMode, MeshTransfersKeepHandleSemantics) {
  // Mem-mode runs every mesh transfer natively: nothing is counted, a
  // same-level or unflipped boundary copy shares its source's shadow entry,
  // and computed or sign-flipped guard values are plain doubles.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_mode(rt::Mode::Mem);
  R.set_region_profiling(true);
  for (int l = 1; l <= 3; ++l) {
    for (const char* phase : {"guard", "prolong", "restrict"}) {
      R.set_region_format("amr/L" + std::to_string(l) + "/" + phase,
                          rt::TruncationSpec::trunc64(8, 14));
    }
  }
  const std::size_t live_before = R.mem_live();
  {
    auto cfg = small_cfg(3);
    cfg.bc = {BC::Reflect, BC::Reflect, BC::Outflow, BC::Outflow};
    cfg.x_odd_vars = {1};
    AmrGrid<Real> g(cfg);
    const auto boxed_ic = [&R](double x, double y, std::span<Real> v) {
      double tmp[2];
      ring_ic(x, y, std::span<double>(tmp));
      for (int k = 0; k < 2; ++k) v[k] = Real::adopt_raw(R.mem_make(tmp[k]));
    };
    g.build_with_ic(boxed_ic);
    ASSERT_EQ(g.max_level_present(), 3);
    const int nxb = cfg.nxb, nyb = cfg.nyb, ng = cfg.ng;
    int same = 0, prolonged = 0, restricted = 0, reflected = 0;
    for (int n = 0; n < g.num_leaves(); ++n) {
      const auto& b = g.leaf(n);
      for (int side = 0; side < 4; ++side) {
        const bool xdir = side < 2;
        const int nix = b.ix + (side == 0 ? -1 : side == 1 ? 1 : 0);
        const int niy = b.iy + (side == 2 ? -1 : side == 3 ? 1 : 0);
        const bool physical =
            nix < 0 || niy < 0 || nix >= g.blocks_x(b.level) || niy >= g.blocks_y(b.level);
        const int nb = physical ? -1 : find_leaf(g, b.level, nix, niy);
        const bool coarser = !physical && nb < 0 && find_leaf(g, b.level - 1, nix >> 1, niy >> 1) >= 0;
        const int i0 = side == 0 ? -ng : side == 1 ? nxb : 0;
        const int i1 = side == 0 ? 0 : side == 1 ? nxb + ng : nxb;
        const int j0 = side == 2 ? -ng : side == 3 ? nyb : 0;
        const int j1 = side == 2 ? 0 : side == 3 ? nyb + ng : nyb;
        for (int v = 0; v < cfg.nvar; ++v) {
          for (int j = j0; j < j1; ++j) {
            for (int i = i0; i < i1; ++i) {
              const double guard = g.at(b, v, i, j).raw();
              if (physical) {
                // Reflect mirrors about the x walls, Outflow clamps in y.
                const int si = !xdir ? i : i < 0 ? -i - 1 : 2 * nxb - i - 1;
                const int sj = xdir ? j : std::clamp(j, 0, nyb - 1);
                const Real& src = g.at(b, v, si, sj);
                if (xdir && v == 1) {
                  EXPECT_FALSE(rt::Runtime::is_boxed(guard));
                  EXPECT_EQ(guard, -src.value());
                  ++reflected;
                } else {
                  EXPECT_EQ(std::bit_cast<u64>(guard), std::bit_cast<u64>(src.raw()));
                }
              } else if (nb >= 0) {
                const Real& src = g.at(g.leaf(nb), v, i - (side == 0 ? -nxb : side == 1 ? nxb : 0),
                                       j - (side == 2 ? -nyb : side == 3 ? nyb : 0));
                EXPECT_TRUE(rt::Runtime::is_boxed(guard));
                EXPECT_EQ(std::bit_cast<u64>(guard), std::bit_cast<u64>(src.raw()));
                ++same;
              } else {
                EXPECT_FALSE(rt::Runtime::is_boxed(guard)) << n << " side " << side;
                ++(coarser ? prolonged : restricted);
              }
            }
          }
        }
      }
    }
    EXPECT_GT(same, 0);
    EXPECT_GT(prolonged, 0);
    EXPECT_GT(restricted, 0);
    EXPECT_GT(reflected, 0);
    // Derefine everything: the merges run under amr/L<k>/restrict.
    g.set_thresholds(1e9, 1e9);
    for (int pass = 0; pass < 6 && g.regrid() > 0; ++pass) {
    }
    ASSERT_EQ(g.max_level_present(), 1);
  }
  EXPECT_EQ(R.mem_live(), live_before);
  int mesh_rows = 0;
  for (const auto& e : R.region_profiles()) {
    if (e.label.rfind("amr/L", 0) != 0) continue;
    ++mesh_rows;
    EXPECT_EQ(e.profile.counters.total_flops(), 0u) << e.label;
  }
  // Guard fills on three levels, splits to L2 and L3, merges to L1 and L2.
  EXPECT_EQ(mesh_rows, 7);
  EXPECT_EQ(R.counters().total_flops(), 0u);
  R.reset_all();
}

TEST(AmrGridDeath, RejectsOddBlockSizes) {
  // Restriction and the regrid merge pair fine cells 2:1, so an odd block
  // would read guard cells as interior ones.
  auto cfg = small_cfg(2);
  cfg.nxb = 5;
  EXPECT_DEATH(AmrGrid<double>{cfg}, "even");
  cfg.nxb = 8;
  cfg.nyb = 7;
  EXPECT_DEATH(AmrGrid<double>{cfg}, "even");
}

TEST(AmrBatchParity, UntruncatedRealMeshMatchesDoubleBitwise) {
  rt::Runtime::instance().reset_all();
  AmrGrid<double> gd(small_cfg(3));
  AmrGrid<Real> gr(small_cfg(3));
  gd.build_with_ic(ring_ic);
  gr.build_with_ic([](double x, double y, std::span<Real> v) {
    double tmp[2];
    ring_ic(x, y, std::span<double>(tmp));
    v[0] = Real(tmp[0]);
    v[1] = Real(tmp[1]);
  });
  ASSERT_EQ(gd.num_leaves(), gr.num_leaves());
  const auto& c = gd.config();
  for (int n = 0; n < gd.num_leaves(); ++n) {
    const auto& bd = gd.leaf(n);
    const auto& br = gr.leaf(n);
    ASSERT_EQ(bd.level, br.level) << n;
    for (int v = 0; v < c.nvar; ++v) {
      for (int j = -c.ng; j < c.nyb + c.ng; ++j) {
        for (int i = -c.ng; i < c.nxb + c.ng; ++i) {
          ASSERT_EQ(std::bit_cast<u64>(gd.at(bd, v, i, j)),
                    std::bit_cast<u64>(to_double(gr.at(br, v, i, j))))
              << n << " v" << v << " (" << i << "," << j << ")";
        }
      }
    }
  }
  rt::Runtime::instance().reset_all();
}

TEST(AmrRegions, GuardProfilesCoverEveryActiveLevel) {
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_region_profiling(true);
  AmrGrid<Real> g(small_cfg(3));
  g.build_with_ic(real_ring_ic);
  g.fill_guards();
  ASSERT_EQ(g.max_level_present(), 3);
  const auto profs = R.region_profiles();
  for (int l = 1; l <= 3; ++l) {
    const std::string label = "amr/L" + std::to_string(l) + "/guard";
    const auto* e = find_profile(profs, label);
    ASSERT_NE(e, nullptr) << label;
    // Same-level copies count no flops, but every guard fill accounts its
    // bytes, so copy-only levels still profile non-empty.
    EXPECT_GT(e->profile.counters.total_bytes(), 0u) << label;
  }
  // The IC build cascade refined through every level, so the split
  // prolongation labels carry the (counted) stencil flops.
  for (int l = 2; l <= 3; ++l) {
    const std::string label = "amr/L" + std::to_string(l) + "/prolong";
    const auto* e = find_profile(profs, label);
    ASSERT_NE(e, nullptr) << label;
    EXPECT_GT(e->profile.counters.total_flops(), 0u) << label;
  }
  // Derefine everything: merges restrict into the parent level's label.
  g.set_thresholds(1e9, 1e9);
  for (int pass = 0; pass < 6 && g.regrid() > 0; ++pass) {
  }
  ASSERT_EQ(g.max_level_present(), 1);
  const auto profs2 = R.region_profiles();
  for (int l = 1; l <= 2; ++l) {
    const std::string label = "amr/L" + std::to_string(l) + "/restrict";
    const auto* e = find_profile(profs2, label);
    ASSERT_NE(e, nullptr) << label;
    EXPECT_GT(e->profile.counters.total_flops(), 0u) << label;
  }
  R.reset_all();
}

TEST(AmrRegions, PerLevelOverridesFollowBlocksAcrossRegrid) {
  auto& R = rt::Runtime::instance();
  R.reset_all();
  const sf::Format fmt{8, 10};
  R.set_region_format("amr/L2/guard", rt::TruncationSpec::trunc64(8, 10));
  auto cfg = small_cfg(2);
  cfg.refine_thresh = -1.0;  // refine everything on the first regrid
  AmrGrid<Real> g(cfg);
  const auto ic = [](double x, double y, std::span<Real> v) {
    v[0] = Real(1.0 + std::sin(3.0 * x + 1.0) * std::cos(5.0 * y));
    v[1] = Real(0.0);
  };
  g.init(ic);
  g.fill_guards();
  // All leaves still at L1: the L2 override must not engage, and the
  // same-level exchange is an exact copy.
  EXPECT_EQ(R.counters().trunc_bytes, 0u);
  EXPECT_EQ(std::bit_cast<u64>(to_double(g.at(g.leaf(0), 0, 8, 3))),
            std::bit_cast<u64>(to_double(g.at(g.leaf(1), 0, 0, 3))));
  g.regrid();
  ASSERT_EQ(g.max_level_present(), 2);
  g.fill_guards();
  // Now every leaf is L2: guard traffic runs truncated under amr/L2/guard.
  EXPECT_GT(R.counters().trunc_bytes, 0u);
  // Every same-level exchange passed through Format{8, 10}: guard values are
  // representable in it, and at least one differs from its exact source.
  int quantized_diffs = 0;
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    if (b.ix == 0) continue;  // physical boundary on the XLo side
    int src = -1;
    for (int m = 0; m < g.num_leaves(); ++m) {
      const auto& o = g.leaf(m);
      if (o.level == b.level && o.ix == b.ix - 1 && o.iy == b.iy) src = m;
    }
    if (src < 0) continue;
    for (int j = 0; j < g.config().nyb; ++j) {
      const double guard = to_double(g.at(b, 0, -1, j));
      const double source = to_double(g.at(g.leaf(src), 0, g.config().nxb - 1, j));
      EXPECT_EQ(guard, sf::quantize(source, fmt));
      EXPECT_EQ(guard, sf::quantize(guard, fmt));
      if (guard != source) ++quantized_diffs;
    }
  }
  EXPECT_GT(quantized_diffs, 0);
  // Derefine: the restriction back onto L1 parents runs under
  // amr/L1/restrict, so an override there truncates the merge arithmetic.
  R.set_region_format("amr/L1/restrict", rt::TruncationSpec::trunc64(8, 10));
  const u64 tf_before = R.counters().trunc_flops;
  g.set_thresholds(1e9, 1e9);
  for (int pass = 0; pass < 6 && g.regrid() > 0; ++pass) {
  }
  ASSERT_EQ(g.max_level_present(), 1);
  EXPECT_GT(R.counters().trunc_flops, tf_before);
  R.reset_all();
}

TEST(AmrWithReal, GridWorksWithInstrumentedScalar) {
  rt::Runtime::instance().reset_all();
  AmrGrid<Real> g(small_cfg(2));
  g.build_with_ic([](double x, double y, std::span<Real> v) {
    const double r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5));
    v[0] = Real(1.0 + 5.0 * std::exp(-std::pow((r - 0.25) / 0.02, 2)));
    v[1] = Real(x * y);
  });
  EXPECT_TRUE(g.balanced());
  EXPECT_GT(g.num_leaves(), 4);
  EXPECT_GT(g.integral(0), 0.0);
  rt::Runtime::instance().reset_all();
}

}  // namespace
}  // namespace raptor::amr
