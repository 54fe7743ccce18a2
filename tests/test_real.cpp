// Tests for the raptor::Real operator front-end in op-mode: arithmetic
// equivalence with plain doubles when untruncated, truncation semantics when
// scoped, counting, and the C API op shims.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <type_traits>
#include <vector>

#include "runtime/runtime.hpp"
#include "trunc/capi.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor {
namespace {

class RealTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
  rt::Runtime& R = rt::Runtime::instance();
};

TEST_F(RealTest, UntruncatedArithmeticMatchesDouble) {
  const Real a = 1.7, b = -2.25;
  EXPECT_DOUBLE_EQ((a + b).value(), 1.7 + -2.25);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.7 - -2.25);
  EXPECT_DOUBLE_EQ((a * b).value(), 1.7 * -2.25);
  EXPECT_DOUBLE_EQ((a / b).value(), 1.7 / -2.25);
  EXPECT_DOUBLE_EQ((-a).value(), -1.7);
  EXPECT_DOUBLE_EQ(sqrt(Real(2.0)).value(), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(exp(Real(1.5)).value(), std::exp(1.5));
  EXPECT_DOUBLE_EQ(fma(a, b, Real(1.0)).value(), std::fma(1.7, -2.25, 1.0));
}

TEST_F(RealTest, CompoundAssignmentChains) {
  Real x = 1.0;
  x += 2.0;
  x *= 3.0;
  x -= 1.0;
  x /= 4.0;
  EXPECT_DOUBLE_EQ(x.value(), 2.0);
}

TEST_F(RealTest, ComparisonsFollowTruncatedValues) {
  TruncScope scope(5, 2);  // very coarse
  const Real a = Real(1.0) + Real(0.01);  // rounds back to 1.0 at 2-bit mantissa
  EXPECT_TRUE(a == Real(1.0));
  EXPECT_FALSE(a > Real(1.0));
}

TEST_F(RealTest, MinMaxAbsHelpers) {
  EXPECT_DOUBLE_EQ(fabs(Real(-2.5)).value(), 2.5);
  EXPECT_DOUBLE_EQ(fabs(Real(2.5)).value(), 2.5);
  EXPECT_DOUBLE_EQ(fmin(Real(1.0), Real(2.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(fmax(Real(1.0), Real(2.0)).value(), 2.0);
}

TEST_F(RealTest, BatchVecLaneSemanticsMatchReal) {
  // batch::Vec's fabs / fmin / fmax / sqrt / branch against Real lane by
  // lane — NaN (both signs), +-0, negative and infinite lanes — with
  // identical result bits and identical per-OpKind counts.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> av = {nan, -nan, 0.0, -0.0, -1.5, 2.25, -3.0, 1e-3, -inf, 5.0, -0.0};
  const std::vector<double> bv = {1.0, -2.0, -0.0, 0.0, -2.0, 2.25, 4.0, -1e-3, 0.0, nan, -0.0};
  const std::size_t n = av.size();
  TruncScope scope(8, 12);

  // The kernel under test, written once: an if whose arms issue different
  // ops (so a miscounted arm shows up per kind).
  const auto kernel = [](const auto& a, const auto& b) {
    using T = std::decay_t<decltype(a)>;
    using std::fabs;
    using std::fmax;
    using std::fmin;
    using std::sqrt;
    const T abs_a = fabs(a);
    const T lo = fmin(a, b);
    const T hi = fmax(a, b);
    const T picked = branch(
        a >= b, [&](auto pick) { return pick(a) * pick(b); },
        [&](auto pick) { return sqrt(pick(b)) - pick(a); });
    return std::vector<T>{abs_a, lo, hi, picked};
  };

  std::vector<std::vector<double>> scalar(4, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = kernel(Real(av[i]), Real(bv[i]));
    for (std::size_t k = 0; k < 4; ++k) scalar[k][i] = r[k].raw();
  }
  const rt::CounterSnapshot sc = R.counters();
  R.reset_counters();

  const batch::Vec a = batch::Vec::gather(n, [&](std::size_t i) { return av[i]; });
  const batch::Vec b = batch::Vec::gather(n, [&](std::size_t i) { return bv[i]; });
  const auto v = kernel(a, b);
  const rt::CounterSnapshot bc = R.counters();
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<u64>(v[k][i]), std::bit_cast<u64>(scalar[k][i]))
          << "result " << k << " lane " << i << " a=" << av[i] << " b=" << bv[i];
    }
  }
  EXPECT_EQ(sc.trunc_by_kind, bc.trunc_by_kind);
  EXPECT_EQ(sc.full_by_kind, bc.full_by_kind);
  // fabs negated exactly the three negative finite/infinite lanes.
  EXPECT_EQ(bc.trunc_by_kind[static_cast<int>(rt::OpKind::Neg)], 3u);

  // A mask with every lane on (or off) runs only that arm, densely.
  const batch::Vec a45 = batch::Vec::gather(2, [&](std::size_t i) { return av[4 + i]; });
  R.reset_counters();
  const batch::Vec all_on = branch(
      a45 <= batch::Vec(3.0), [&](auto pick) { return pick(a45) + 1.0; },
      [&](auto pick) { return pick(a45) * 2.0; });
  EXPECT_EQ(R.counters().trunc_by_kind[static_cast<int>(rt::OpKind::Add)], 2u);
  EXPECT_EQ(R.counters().trunc_by_kind[static_cast<int>(rt::OpKind::Mul)], 0u);
  EXPECT_EQ(all_on[0], -0.5);
  EXPECT_EQ(all_on[1], 3.25);
}

/// A repeat_while state: a value halved each round and a native round
/// count (members() lets branch and repeat_while narrow it to lanes).
template <class T>
struct Halving {
  T x, rounds;
};
template <class T>
auto members(Halving<T>& h) {
  return std::tie(h.x, h.rounds);
}
template <class T>
auto members(const Halving<T>& h) {
  return std::tie(h.x, h.rounds);
}

/// Halve x while it exceeds 1.5, for at most `cap` rounds: a lane holding
/// 2^k runs min(k, cap) rounds, and a NaN lane none.
template <class T>
Halving<T> halve(const T& x, int cap) {
  const T zero = native([](double) { return 0.0; }, x);
  return repeat_while(
      Halving<T>{x, zero},
      [cap](const Halving<T>& h) {
        return native([cap](double v, double r) { return r < cap && v > 1.5; }, h.x, h.rounds);
      },
      [](Halving<T> h) {
        h.x = h.x * T(0.5);
        h.rounds = native([](double r) { return r + 1.0; }, h.rounds);
        return h;
      });
}

TEST_F(RealTest, BatchVecTranscendentalsNativeAndLoopsMatchRealOnEveryPath) {
  // exp / cbrt / log10, < and >, native (value, predicate and visitor) and
  // repeat_while on batch::Vec against Real lane by lane, on every SIMD
  // path: identical result bits, visits and per-OpKind counts.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> av = {nan, -nan, 0.0, -0.0, -1.5, 2.25,
                                  -3.0, 1e-3, -inf, 5.0, -0.0, 8.0};
  const std::vector<double> bv = {1.0, -2.0, -0.0, 0.0, -2.0, 2.25,
                                  4.0, -1e-3, 0.0, nan, 0.0, 0.5};
  const auto lanes = [](const std::vector<double>& v) {
    return batch::Vec::gather(v.size(), [&](std::size_t i) { return v[i]; });
  };
  // The kernel under test, written once; `visited` collects the visitor's
  // lane values in call order.
  const auto kernel = [](const auto& a, const auto& b, std::vector<double>& visited) {
    using T = std::decay_t<decltype(a)>;
    using std::cbrt;
    using std::exp;
    using std::log10;
    // Value form, with a double argument broadcast to every lane.
    const T scaled = native([](double x, double k) { return x * k; }, a, 3.0) * b;
    // Predicate form, driving a branch whose arms issue different ops.
    const T flipped = branch(
        native([](double x) { return std::signbit(x); }, a), [&](auto pick) { return -pick(b); },
        [&](auto pick) { return pick(a) + pick(b); });
    native([&](double y) { visited.push_back(y); }, b);
    // < and > choose operands, so NaN and signed-zero lanes show in the bits;
    // the last two compare against broadcasts on either side.
    return std::vector<T>{exp(a),
                          cbrt(a),
                          log10(b),
                          select(a < b, a, b),
                          select(a > b, a, b),
                          select(a < 0.0, a, T(1.0)),
                          select(T(0.0) > b, b, a),
                          scaled,
                          flipped};
  };
  // repeat_while inputs: lanes stopping at every depth from 0 to past the
  // cap, every lane stopping before the first round, every lane stopping
  // after it, and no lane stopping before the cap.
  constexpr int kCap = 12;
  const std::vector<std::vector<double>> walks = {
      {8.0, 1.0, 4096.0, 2.0, 65536.0, 16.0, 0.5, 1024.0, 4.0, 32768.0, 64.0, 128.0, 256.0, 512.0,
       2048.0, 8192.0, nan},
      {1.0, 0.5, -4.0, 1.5},
      {2.0, 3.0, 2.5},
      {1e6, 1e9, 3e7}};

  for (const sf::simd::Path p :
       {sf::simd::Path::Portable, sf::simd::Path::Avx2, sf::simd::Path::Avx512}) {
    if (!sf::simd::path_supported(p)) continue;
    SCOPED_TRACE(sf::simd::path_name(p));
    R.force_simd_path(p);
    TruncScope scope(8, 12);

    std::vector<double> visited_r, visited_v;
    std::vector<std::vector<double>> scalar(9, std::vector<double>(av.size()));
    R.reset_counters();
    for (std::size_t i = 0; i < av.size(); ++i) {
      const auto r = kernel(Real(av[i]), Real(bv[i]), visited_r);
      for (std::size_t k = 0; k < r.size(); ++k) scalar[k][i] = r[k].raw();
    }
    const rt::CounterSnapshot sc = R.counters();
    R.reset_counters();
    const auto v = kernel(lanes(av), lanes(bv), visited_v);
    const rt::CounterSnapshot bc = R.counters();
    for (std::size_t k = 0; k < v.size(); ++k) {
      for (std::size_t i = 0; i < av.size(); ++i) {
        EXPECT_EQ(std::bit_cast<u64>(v[k][i]), std::bit_cast<u64>(scalar[k][i]))
            << "result " << k << " lane " << i << " a=" << av[i] << " b=" << bv[i];
      }
    }
    ASSERT_EQ(visited_v.size(), visited_r.size());
    for (std::size_t i = 0; i < visited_r.size(); ++i) {
      EXPECT_EQ(std::bit_cast<u64>(visited_v[i]), std::bit_cast<u64>(visited_r[i])) << i;
    }
    EXPECT_EQ(sc.trunc_by_kind, bc.trunc_by_kind);
    EXPECT_EQ(sc.full_by_kind, bc.full_by_kind);
    for (const auto kind : {rt::OpKind::Exp, rt::OpKind::Cbrt, rt::OpKind::Log10}) {
      EXPECT_EQ(bc.trunc_by_kind[static_cast<int>(kind)], av.size());
    }

    for (const auto& xs : walks) {
      std::vector<double> x_r, rounds_r;
      R.reset_counters();
      for (const double x : xs) {
        const Halving<Real> h = halve(Real(x), kCap);
        x_r.push_back(h.x.raw());
        rounds_r.push_back(h.rounds.raw());
      }
      const rt::CounterSnapshot wr = R.counters();
      R.reset_counters();
      const Halving<batch::Vec> h = halve(lanes(xs), kCap);
      const rt::CounterSnapshot wv = R.counters();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(std::bit_cast<u64>(h.x[i]), std::bit_cast<u64>(x_r[i])) << xs[i];
        EXPECT_EQ(h.rounds[i], rounds_r[i]) << xs[i];
      }
      EXPECT_EQ(wr.trunc_by_kind, wv.trunc_by_kind);
      EXPECT_EQ(wr.full_by_kind, wv.full_by_kind);
    }
  }
  R.force_simd_path(std::nullopt);
}

TEST_F(RealTest, EveryOperationIsCounted) {
  R.reset_counters();
  const Real a = 2.0, b = 3.0;
  const Real c = a * b + a / b - b;  // mul, div, add, sub = 4 ops
  (void)c;
  EXPECT_EQ(R.counters().total_flops(), 4u);
}

TEST_F(RealTest, TruncationAppliesInsideScope) {
  Real r;
  {
    TruncScope scope(8, 4);
    r = Real(1.0) / Real(3.0);
  }
  EXPECT_DOUBLE_EQ(r.value(), sf::quantize(r.value(), sf::Format{8, 4}));
  EXPECT_NE(r.value(), 1.0 / 3.0);
}

TEST_F(RealTest, KernelTemplatedOnScalarTypeAgreesAtFullPrecision) {
  // The substrate pattern: one kernel, two scalar instantiations.
  const auto kernel = [](auto x, auto y) {
    using T = decltype(x);
    T acc = 0.0;
    for (int i = 0; i < 16; ++i) {
      acc += x * y / T(i + 1);
      x = x * T(0.99);
    }
    return acc;
  };
  const double plain = kernel(1.3, 0.7);
  const Real instr = kernel(Real(1.3), Real(0.7));
  EXPECT_DOUBLE_EQ(instr.value(), plain);
}

TEST_F(RealTest, ToDoubleHelperWorksForBothScalars) {
  EXPECT_DOUBLE_EQ(to_double(2.5), 2.5);
  EXPECT_DOUBLE_EQ(to_double(Real(2.5)), 2.5);
}

TEST_F(RealTest, VectorOfRealsBehaves) {
  std::vector<Real> v(10, Real(1.0));
  TruncScope scope(8, 23);
  Real sum = 0.0;
  for (const auto& x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum.value(), 10.0);
}

// ---------------------------------------------------------------------------
// Paper-spelled C API (op shims)
// ---------------------------------------------------------------------------

TEST_F(RealTest, CApiOpShimsTruncate) {
  const double r64 = capi::_raptor_add_f64(1.0, 1e-5, 5, 10, "t.cpp:1:1");
  EXPECT_DOUBLE_EQ(r64, 1.0);  // fp16-ish: 1e-5 vanishes
  const float r32 = capi::_raptor_mul_f32(1.0f / 3.0f, 3.0f, 5, 4, "t.cpp:2:2");
  EXPECT_EQ(static_cast<double>(r32), sf::quantize(r32, sf::Format{5, 4}));
  EXPECT_DOUBLE_EQ(capi::_raptor_sqrt_f64(4.0, 8, 23, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(capi::_raptor_fma_f64(2.0, 3.0, 4.0, 11, 52, nullptr), 10.0);
}

TEST_F(RealTest, CApiCountsAsTruncated) {
  R.reset_counters();
  capi::_raptor_add_f64(1.0, 2.0, 5, 10, nullptr);
  const auto c = R.counters();
  EXPECT_EQ(c.trunc_flops, 1u);
  EXPECT_EQ(c.full_flops, 0u);
}

TEST_F(RealTest, CApiScratchProtocol) {
  void* s = capi::_raptor_alloc_scratch(5, 10);
  ASSERT_NE(s, nullptr);
  capi::_raptor_free_scratch(s);
}

}  // namespace
}  // namespace raptor
