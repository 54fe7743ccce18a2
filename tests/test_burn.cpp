// Burn module and Cellular mini-app tests: rate physics, backward-Euler
// stability under stiffness, fuel conservation, detonation propagation, and
// the module-scoped truncation wiring.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "burn/burn.hpp"
#include "burn/cellular.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "trace/rtrace.hpp"

namespace raptor::burn {
namespace {

class BurnTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
  BurnParams bp;
};

TEST_F(BurnTest, RateIsZeroWhenCold) {
  EXPECT_DOUBLE_EQ(to_double(burn_rate(bp, 1.0, 1e7, 4e7)), 0.0);
}

TEST_F(BurnTest, RateIsNegativeAndTemperatureSensitive) {
  const double r1 = to_double(burn_rate(bp, 1.0, 1e7, 1.5e9));
  const double r2 = to_double(burn_rate(bp, 1.0, 1e7, 3.0e9));
  EXPECT_LT(r1, 0.0);
  EXPECT_LT(r2, r1);                      // hotter burns faster
  EXPECT_GT(std::fabs(r2 / r1), 5.0);     // strongly nonlinear in T
}

TEST_F(BurnTest, RateScalesWithFuelSquared) {
  const double r_full = to_double(burn_rate(bp, 1.0, 1e7, 2e9));
  const double r_half = to_double(burn_rate(bp, 0.5, 1e7, 2e9));
  EXPECT_NEAR(r_half / r_full, 0.25, 1e-12);
}

TEST_F(BurnTest, CellBurnConsumesFuelAndReleasesEnergy) {
  const auto res = burn_cell(bp, 1.0, 1e7, 3e9, 1e-9);
  EXPECT_LT(to_double(res.x_new), 1.0);
  EXPECT_GE(to_double(res.x_new), 0.0);
  const double consumed = 1.0 - to_double(res.x_new);
  EXPECT_NEAR(to_double(res.energy_released), bp.q_release * consumed,
              1e-6 * bp.q_release * std::max(consumed, 1e-12));
}

TEST_F(BurnTest, StiffStepStaysBounded) {
  // A huge dt must not produce negative fuel or energy overshoot.
  const auto res = burn_cell(bp, 1.0, 1e7, 4e9, 1.0);
  EXPECT_GE(to_double(res.x_new), 0.0);
  EXPECT_LE(to_double(res.x_new), 1.0);
  EXPECT_LE(to_double(res.energy_released), bp.q_release * 1.0000001);
  EXPECT_GT(res.substeps, 1);  // sub-cycling engaged
}

TEST_F(BurnTest, NoBurnMeansNoEnergy) {
  const auto res = burn_cell(bp, 1.0, 1e7, 5e7, 1e-6);
  EXPECT_DOUBLE_EQ(to_double(res.x_new), 1.0);
  EXPECT_DOUBLE_EQ(to_double(res.energy_released), 0.0);
}

// ---------------------------------------------------------------------------
// Cellular mini-app
// ---------------------------------------------------------------------------

TEST_F(BurnTest, CellularDetonationPropagates) {
  CellularConfig cfg;
  cfg.n = 192;
  CellularSim<double> sim(cfg);
  const double front0 = sim.front_position();
  double t = 0.0;
  for (int s = 0; s < 120; ++s) t += sim.step();
  const double front1 = sim.front_position();
  EXPECT_GT(front1, front0);
  EXPECT_GT(sim.total_energy_released(), 0.0);
  // Burned region is hot, unburned fuel ahead remains cool-ish.
  EXPECT_GT(sim.temperature(2), 1e9);
  EXPECT_LT(sim.mass_fraction(2), 0.5);
  EXPECT_GT(sim.mass_fraction(cfg.n - 2), 0.95);
}

TEST_F(BurnTest, CellularEosConvergesAtFullPrecision) {
  CellularConfig cfg;
  cfg.n = 128;
  CellularSim<double> sim(cfg);
  for (int s = 0; s < 40; ++s) sim.step();
  const auto& stats = sim.eos_stats();
  EXPECT_GT(stats.calls, 1000u);
  EXPECT_LT(stats.failure_rate(), 0.01);
}

TEST_F(BurnTest, CellularEosTruncationCausesNewtonFailures) {
  // The §6.1 result end-to-end: truncating the EOS module to a small
  // mantissa makes Newton-Raphson fail persistently. Flash-X aborts on the
  // first failed call; our stats count per-call failures, and with O(cells)
  // calls per step any nonzero rate above a few percent means the real
  // application would never complete a step.
  CellularConfig cfg;
  cfg.n = 96;
  cfg.eos_trunc = rt::TruncationSpec::trunc64(11, 24);
  CellularSim<Real> sim(cfg);
  for (int s = 0; s < 12; ++s) sim.step();
  const double fail24 = sim.eos_stats().failure_rate();
  EXPECT_GT(fail24, 0.05);

  rt::Runtime::instance().reset_all();
  CellularConfig cfg52 = cfg;
  cfg52.eos_trunc = rt::TruncationSpec::trunc64(11, 52);
  CellularSim<Real> sim52(cfg52);
  for (int s = 0; s < 12; ++s) sim52.step();
  EXPECT_LT(sim52.eos_stats().failure_rate(), 0.005);
  EXPECT_GT(fail24, 20.0 * sim52.eos_stats().failure_rate() + 0.02);
}

TEST_F(BurnTest, CellularCountsEosOpsAsTruncated) {
  rt::Runtime::instance().reset_counters();
  CellularConfig cfg;
  cfg.n = 64;
  cfg.eos_trunc = rt::TruncationSpec::trunc64(11, 30);
  CellularSim<Real> sim(cfg);
  sim.step();
  const auto c = rt::Runtime::instance().counters();
  EXPECT_GT(c.trunc_flops, 0u);  // eos module truncated
  EXPECT_GT(c.full_flops, 0u);   // hydro + burn at full precision
}

// ---------------------------------------------------------------------------
// Batched dispatch parity (DESIGN.md §8)
// ---------------------------------------------------------------------------

TEST_F(BurnTest, BatchedBurnMatchesScalarBitwise) {
  auto& R = rt::Runtime::instance();
  // Lanes spanning frozen cells, gentle burns, and stiff near-detonation
  // conditions — exercising sub-cycling and Newton lane retirement.
  for (const int man : {52, 18}) {
    SCOPED_TRACE(man);
    std::optional<TruncScope> scope;
    if (man < 52) scope.emplace(11, man);

    Rng rng(man);
    const std::size_t n = 48;
    std::vector<double> x(n), rho(n), temp(n);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = rng.uniform(0.05, 1.0);
      rho[k] = std::pow(10.0, rng.uniform(5.0, 7.5));
      temp[k] = std::pow(10.0, rng.uniform(7.2, 9.7));  // spans frozen..fierce
    }
    const double dt = 1e-9;

    std::vector<double> x_s(n), en_s(n);
    std::vector<int> sub_s(n);
    R.reset_counters();
    for (std::size_t k = 0; k < n; ++k) {
      const auto res = burn_cell(bp, Real(x[k]), Real(rho[k]), Real(temp[k]), dt);
      x_s[k] = to_double(res.x_new);
      en_s[k] = to_double(res.energy_released);
      sub_s[k] = res.substeps;
    }
    const auto cs = R.counters();

    std::vector<double> x_b = x, en_b(n);
    std::vector<int> sub_b(n);
    const auto lanes = [n](const std::vector<double>& v) {
      return batch::Vec::gather(n, [&](std::size_t k) { return v[k]; });
    };
    R.reset_counters();
    const auto res_b = burn_cell(bp, lanes(x_b), lanes(rho), lanes(temp), dt);
    const auto cb = R.counters();
    for (std::size_t k = 0; k < n; ++k) {
      x_b[k] = res_b.x_new[k];
      en_b[k] = res_b.energy_released[k];
      sub_b[k] = static_cast<int>(res_b.substeps[k]);
    }

    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(std::bit_cast<u64>(x_s[k]), std::bit_cast<u64>(x_b[k])) << k;
      EXPECT_EQ(std::bit_cast<u64>(en_s[k]), std::bit_cast<u64>(en_b[k])) << k;
      EXPECT_EQ(sub_s[k], sub_b[k]) << k;
    }
    EXPECT_EQ(cs.trunc_flops, cb.trunc_flops);
    EXPECT_EQ(cs.full_flops, cb.full_flops);
    for (int i = 0; i < rt::kNumOpKinds; ++i) {
      EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i;
      EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i;
    }
  }
}

TEST_F(BurnTest, CellularBatchStepMatchesScalarBitwise) {
  auto& R = rt::Runtime::instance();
  // Truncate the EOS module (the §6.1 configuration) so the parity covers
  // truncated and full-precision regions at once.
  const auto run = [&](bool batch, rt::CounterSnapshot& counters) {
    R.reset_counters();
    CellularConfig cc;
    cc.n = 48;
    cc.batch = batch;
    cc.eos_trunc = rt::TruncationSpec::trunc64(11, 44);
    CellularSim<Real> sim(cc);
    std::vector<double> out;
    for (int s = 0; s < 6; ++s) out.push_back(sim.step());
    for (int i = 0; i < cc.n; ++i) {
      out.push_back(sim.temperature(i));
      out.push_back(sim.mass_fraction(i));
      out.push_back(sim.density(i));
    }
    out.push_back(sim.total_energy_released());
    out.push_back(static_cast<double>(sim.eos_stats().total_iterations));
    out.push_back(static_cast<double>(sim.eos_stats().failures));
    counters = R.counters();
    return out;
  };
  rt::CounterSnapshot cs, cb;
  const auto scalar = run(false, cs);
  const auto batch = run(true, cb);
  ASSERT_EQ(scalar.size(), batch.size());
  for (std::size_t k = 0; k < scalar.size(); ++k) {
    EXPECT_EQ(std::bit_cast<u64>(scalar[k]), std::bit_cast<u64>(batch[k])) << k;
  }
  EXPECT_EQ(cs.trunc_flops, cb.trunc_flops);
  EXPECT_EQ(cs.full_flops, cb.full_flops);
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i;
    EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i;
  }
  EXPECT_GT(cs.trunc_flops, 0u);
}

// ---------------------------------------------------------------------------
// RealPathPin: burn_cell<Real> held to recorded constants
// ---------------------------------------------------------------------------
//
// The batched parity test compares two instantiations of one template, so a
// change to the kernel itself moves both sides and still passes. These
// cases pin the Real instantiation: per-cell results, substep counts and
// per-OpKind counters under set_truncate_all, plus the shape of the work:
// a hash of the multiset of (op kind, result exponent) over every op, from
// a trace that samples each one. Every op runs in the fast kernels or
// BigFloat, never in libm, so the constants hold on any host; the multiset
// does not depend on the order in which a compiler evaluates operands. The
// shape line catches rewrites that are exact in value: computing df/dx as
// 2 (f / x) instead of (2 f) / x gives the same bits (doubling is exact)
// and the same counts, but the Div's result lands one binade lower.

/// Formatted pin of one burn_cell<Real> run per input cell, then the
/// per-OpKind truncated counts and the shape hash; full-precision counts
/// must be zero and the trace must drop nothing.
std::vector<std::string> burn_pin(const BurnParams& bp, int exp_bits, int man_bits) {
  struct Cell {
    double x, rho, temp, dt;
  };
  const Cell cells[] = {
      {1.0, 1e7, 4e7, 1e-6},     // frozen: T9 below 0.05
      {0.7, 2e6, 1.2e9, 1e-9},   // gentle: one substep
      {1.0, 1e7, 4e9, 2e-4},     // stiff: sub-cycled
      {0.9, 3e7, 3.5e9, 1.0},    // stiff over a long step: many substeps
      {0.7, 1e-18, 6e7, 1e38},   // an ember whose rate is subnormal at e8
  };
  auto& R = rt::Runtime::instance();
  R.reset_counters();
  R.set_truncate_all(rt::TruncationSpec::trunc64(exp_bits, man_bits));
  const std::string path = ::testing::TempDir() + "real_path_pin_burn.rtrace";
  trace::TraceOptions topts;
  topts.path = path;
  topts.sample_stride = 1;
  topts.ring_capacity = 1 << 16;  // more than a run's ops: nothing drops
  R.trace_start(topts);
  std::vector<std::string> out;
  char line[160];
  for (const Cell& c : cells) {
    const auto res = burn_cell(bp, Real(c.x), Real(c.rho), Real(c.temp), c.dt);
    std::snprintf(line, sizeof line, "x %016llx e %016llx sub %d",
                  static_cast<unsigned long long>(std::bit_cast<u64>(to_double(res.x_new))),
                  static_cast<unsigned long long>(
                      std::bit_cast<u64>(to_double(res.energy_released))),
                  res.substeps);
    out.emplace_back(line);
  }
  EXPECT_EQ(R.trace_stop().dropped, 0u);
  R.clear_truncate_all();
  const auto cs = R.counters();
  std::string kinds = "ops";
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    kinds += ' ';
    kinds += std::to_string(cs.trunc_by_kind[i]);
  }
  out.push_back(kinds);
  EXPECT_EQ(cs.full_flops, 0u);
  u64 shape = 0;  // sum of splitmix64(kind, exponent) over the ops
  for (const auto& e : trace::read_rtrace(path).events) {
    u64 z = (u64{e.kind} << 32 ^ static_cast<u32>(e.exp_min)) + 0x9e3779b97f4a7c15ull;
    z = (z ^ z >> 30) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ z >> 27) * 0x94d049bb133111ebull;
    shape += z ^ z >> 31;
  }
  std::remove(path.c_str());
  std::snprintf(line, sizeof line, "shape %016llx", static_cast<unsigned long long>(shape));
  out.emplace_back(line);
  return out;
}

TEST(RealPathPin, BurnCellAtE11M44) {
  rt::Runtime::instance().reset_all();
  const std::vector<std::string> expect = {
      "x 3ff0000000000000 e 0000000000000000 sub 1",
      "x 3fe66666664b5000 e 4192cb6dd51acc00 sub 1",
      "x 3fead0028ceebf00 e 436ccbd35913e700 sub 4",
      "x 3f5c8a92beafaa00 e 4393f20164cbb900 sub 27",
      "x 3fe3d95ed1300e00 e 435c5215cffdeb00 sub 2",
      "ops 35 619 1549 471 0 0 0 179 0 0 0 0 0 0 0 0 0 179 0",
      "shape a280fbf4ff2b8bff"};
  EXPECT_EQ(burn_pin(BurnParams{}, 11, 44), expect);
  rt::Runtime::instance().reset_all();
}

TEST(RealPathPin, BurnCellAtE8M20) {
  rt::Runtime::instance().reset_all();
  const std::vector<std::string> expect = {
      "x 3ff0000000000000 e 0000000000000000 sub 1",
      "x 3fe6666600000000 e 0000000000000000 sub 1",
      "x 3fead00100000000 e 436ccbdc00000000 sub 4",
      "x 3f5c8a7c00000000 e 4393f20200000000 sub 27",
      "x 3fe3d95c00000000 e 435c523200000000 sub 2",
      "ops 35 1043 2503 789 0 0 0 285 0 0 0 0 0 0 0 0 0 285 0",
      "shape ff06c64c97785ee5"};
  EXPECT_EQ(burn_pin(BurnParams{}, 8, 20), expect);
  rt::Runtime::instance().reset_all();
}

TEST_F(BurnTest, CellularBatchFallsBackOutsideOpMode) {
  // Mem-mode and the double instantiation must take the scalar path even
  // with cfg.batch set (batch::Vec-style raw payloads would leak handles).
  auto& R = rt::Runtime::instance();
  R.set_mode(rt::Mode::Mem);
  CellularConfig cc;
  cc.n = 16;
  cc.batch = true;
  CellularSim<Real> sim(cc);
  const double dt = sim.step();
  EXPECT_GT(dt, 0.0);
  R.set_mode(rt::Mode::Op);
  CellularSim<double> simd(cc);
  EXPECT_GT(simd.step(), 0.0);
}

}  // namespace
}  // namespace raptor::burn
