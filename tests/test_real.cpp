// Tests for the raptor::Real operator front-end in op-mode: arithmetic
// equivalence with plain doubles when untruncated, truncation semantics when
// scoped, counting, and the C API op shims.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <tuple>
#include <type_traits>
#include <vector>

#include "runtime/runtime.hpp"
#include "softfloat/fast_round.hpp"
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

/// Every lane of a tagged Vec is a fixed point of rounding into its tag's
/// format (the promise the fast kernels act on).
::testing::AssertionResult TagHolds(const batch::Vec& v) {
  if (!v.exact()) return ::testing::AssertionSuccess();
  const sf::RoundSpec spec(*v.exact());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::bit_cast<u64>(sf::fast_round(v[i], spec)) != std::bit_cast<u64>(v[i])) {
      return ::testing::AssertionFailure() << "lane " << i << " = " << v[i]
                                           << " is not exact in " << v.exact()->to_string();
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(RealTest, BatchVecExactnessTags) {
  // The exactness-tag rules of batch::Vec (span_ops.hpp), each rule on its
  // own, every tag checked lane by lane; then tagged Vecs reused under
  // other formats (nested scope, region override, no truncation) against
  // Real: identical bits and per-OpKind counts.
  using batch::Mask;
  using batch::Vec;
  const sf::Format e11m12{11, 12}, e11m30{11, 30};
  const auto lanes = [](const std::vector<double>& v) {
    return Vec::gather(v.size(), [&](std::size_t i) { return v[i]; });
  };
  const std::vector<double> av = {1.7, -2.3, 0.1, -0.0, 5.5, -7.25, 1e-3, 3.0, -0.6};
  const std::vector<double> bv = {0.3, 1.9, -4.1, 2.0, -0.5, 0.7, 6.0, -1.0, 2.2};
  const std::size_t n = av.size();
  const Vec a = lanes(av), b = lanes(bv);
  const Mask none = Mask::of(n, [](std::size_t) { return false; });
  const Mask all = Mask::of(n, [](std::size_t) { return true; });

  // Sources that carry no tag, in scope or not.
  EXPECT_FALSE(a.exact());
  {
    TruncScope scope(11, 12);
    EXPECT_FALSE(lanes(av).exact());
    EXPECT_FALSE(Vec(0.5).exact());
    EXPECT_FALSE(Vec(n).exact());
    EXPECT_FALSE(native([](double x) { return x; }, a).exact());
  }

  {
    TruncScope scope(11, 12);
    // Operator and fast-kernel function results: the format op*_batch returned.
    const Vec x = a + b, y = a * b;
    const Vec results[] = {x, y, a - 0.1, 0.7 / b, -a, sqrt(y), x * y};
    for (const Vec& r : results) {
      EXPECT_EQ(r.exact(), e11m12);
      EXPECT_TRUE(TagHolds(r));
    }
    EXPECT_FALSE(exp(x).exact());  // BigFloat path: no tag

    // compress and Pick keep the source's tag.
    const Mask pos = x >= Vec(0.0);
    ASSERT_GT(pos.count(), 0u);
    ASSERT_LT(pos.count(), n);
    EXPECT_EQ(x.compress(pos, true, pos.count()).exact(), e11m12);
    EXPECT_EQ(batch::Pick(pos, false, n - pos.count())(x).exact(), e11m12);
    EXPECT_FALSE(batch::Pick(pos, true, pos.count())(a).exact());

    // merge: every contributing side must carry the tag.
    const Vec x_on = x.compress(pos, true, pos.count());
    const Vec y_off = y.compress(pos, false, n - pos.count());
    const Vec a_off = a.compress(pos, false, n - pos.count());
    EXPECT_EQ(Vec::merge(pos, x_on, y_off).exact(), e11m12);
    EXPECT_TRUE(TagHolds(Vec::merge(pos, x_on, y_off)));
    EXPECT_FALSE(Vec::merge(pos, x_on, a_off).exact());
    EXPECT_FALSE(Vec::merge(pos, x_on, Vec(0.1)).exact());
    EXPECT_EQ(Vec::merge(all, x, Vec(0.1)).exact(), e11m12);  // off side gives no lane
    EXPECT_EQ(Vec::merge(none, Vec(0.1), y).exact(), e11m12);

    // select / blend.
    EXPECT_EQ(select(pos, x, y).exact(), e11m12);
    EXPECT_FALSE(select(pos, x, Vec(0.1)).exact());
    EXPECT_FALSE(select(pos, Vec(0.1), y).exact());
    EXPECT_FALSE(select(pos, x, a).exact());
    EXPECT_EQ(select(all, x, Vec(0.1)).exact(), e11m12);
    EXPECT_EQ(select(none, Vec(0.1), y).exact(), e11m12);

    // fmin / fmax: a floor no lane hits keeps the tag, one that is hit drops it.
    EXPECT_EQ(fmax(x, Vec(-1e30)).exact(), e11m12);
    EXPECT_EQ(fmin(x, Vec(1e30)).exact(), e11m12);
    EXPECT_FALSE(fmax(x, Vec(0.1)).exact());
    EXPECT_FALSE(fmin(Vec(0.1), x).exact());
    EXPECT_EQ(fmin(x, y).exact(), e11m12);
    EXPECT_FALSE(fmax(x, a).exact());

    // fabs: the negated lanes are Neg results in the same format.
    EXPECT_EQ(fabs(x).exact(), e11m12);
    EXPECT_TRUE(TagHolds(fabs(x)));
    EXPECT_EQ(fabs(fabs(x)).exact(), e11m12);  // no negative lane: x itself
    EXPECT_FALSE(fabs(a).exact());
    EXPECT_FALSE(fabs(lanes({0.1, 0.2})).exact());

    // Writing lanes through non-const data() drops the tag.
    Vec z = x;
    z.data()[0] = 0.1;
    EXPECT_FALSE(z.exact());
  }

  // Paths other than the fast kernels report no tag.
  EXPECT_FALSE((a + b).exact());  // no truncation
  {
    TruncScope scope(12, 20);  // outside the fast-kernel envelope: BigFloat
    EXPECT_FALSE((a + b).exact());
    EXPECT_FALSE(sqrt(fabs(a)).exact());
  }
  {
    TruncScope scope(8, 23);
    EXPECT_EQ((a + b).exact(), (sf::Format{8, 23}));
    R.set_hw_fastpath(true);  // fp32 on float hardware
    EXPECT_FALSE((a + b).exact());
    R.set_hw_fastpath(false);
  }
  {
    R.set_mode(rt::Mode::Mem);
    TruncScope scope(11, 12);
    std::vector<double> out(n);
    EXPECT_FALSE(R.op2_batch(rt::OpKind::Add, av.data(), bv.data(), out.data(), n, 64, e11m12,
                             e11m12));
    for (const double h : out) R.mem_release(h);
    R.set_mode(rt::Mode::Op);
  }

  // Tagged Vecs reused under other formats sharing exp_bits, under a region
  // override and with no truncation, against Real lane by lane.
  R.set_region_format("tags/override", rt::TruncationSpec::trunc64(11, 30));
  const auto kernel = [](const auto& a, const auto& b) {
    using T = std::decay_t<decltype(a)>;
    std::vector<T> out;
    T x, y, z;
    {
      TruncScope outer(11, 12);
      x = a * b + T(0.1);
      {
        TruncScope inner(11, 30);
        y = x / T(3.0) + b;  // e11m12 lanes under e11m30
        out.push_back(y);
      }
      out.push_back(y * T(0.7) - x);  // e11m30 lanes under e11m12
      {
        Region r("tags/override");
        out.push_back(x * y + T(0.2));
        z = a / b;
      }
      out.push_back(z * T(0.3) + x);  // override lanes under e11m12
    }
    out.push_back(x * y - z);  // no truncation
    return out;
  };
  std::vector<std::vector<double>> scalar(5, std::vector<double>(n));
  R.reset_counters();
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = kernel(Real(av[i]), Real(bv[i]));
    for (std::size_t k = 0; k < r.size(); ++k) scalar[k][i] = r[k].raw();
  }
  const rt::CounterSnapshot sc = R.counters();
  R.reset_counters();
  const auto v = kernel(a, b);
  const rt::CounterSnapshot vc = R.counters();
  EXPECT_EQ(v[0].exact(), e11m30);
  EXPECT_EQ(v[1].exact(), e11m12);
  EXPECT_EQ(v[2].exact(), e11m30);
  EXPECT_FALSE(v[4].exact());
  for (std::size_t k = 0; k < v.size(); ++k) {
    EXPECT_TRUE(TagHolds(v[k])) << "result " << k;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<u64>(v[k][i]), std::bit_cast<u64>(scalar[k][i]))
          << "result " << k << " lane " << i;
    }
  }
  EXPECT_EQ(sc.trunc_by_kind, vc.trunc_by_kind);
  EXPECT_EQ(sc.full_by_kind, vc.full_by_kind);
}

/// One node of a random lane program: op `kind` on earlier values x and y
/// and a constant c, run under format `fmt` (0 or 1) of the program's pair.
struct LaneNode {
  int kind, x, y, fmt;
  double c;
};

/// Run `prog` on inputs in0, in1; returns every value it made. Written
/// once for Real (one lane) and batch::Vec.
template <class T>
std::vector<T> run_lane_program(const std::vector<LaneNode>& prog, const T& in0, const T& in1,
                                const sf::Format (&fmts)[2]) {
  using std::fabs;
  using std::fmax;
  using std::fmin;
  using std::sqrt;
  std::vector<T> v = {in0, in1};
  for (const LaneNode& nd : prog) {
    TruncScope scope(fmts[nd.fmt].exp_bits, fmts[nd.fmt].man_bits);
    const T x = v[static_cast<std::size_t>(nd.x)];
    const T y = v[static_cast<std::size_t>(nd.y)];
    const T c(nd.c);
    switch (nd.kind) {
      case 0: v.push_back(x + y); break;
      case 1: v.push_back(x - y); break;
      case 2: v.push_back(x * y); break;
      case 3: v.push_back(x / y); break;
      case 4: v.push_back(x * c); break;
      case 5: v.push_back(c - x); break;
      case 6: v.push_back(-x); break;
      case 7: v.push_back(sqrt(fabs(x))); break;
      case 8: v.push_back(fabs(x)); break;
      case 9: v.push_back(fmin(x, y)); break;
      case 10: v.push_back(fmax(x, c)); break;
      case 11: v.push_back(select(x < c, x, c)); break;
      case 12: v.push_back(select(y > x, c, y)); break;
      case 13:
        v.push_back(branch(
            x >= c, [&](auto pick) { return pick(x) * pick(y); },
            [&](auto pick) { return pick(y) - c; }));
        break;
      default:
        v.push_back(repeat_while(
            x,
            [](const T& s) {
              return native([](double u) { return std::fabs(u) > 4.0 && std::fabs(u) < 1e6; }, s);
            },
            [](T s) { return s * T(0.3); }));
        break;
    }
  }
  return v;
}

TEST_F(RealTest, RandomVecProgramsAcrossFormatsMatchRealOnEveryPath) {
  // Seeded random DAGs of Vec ops — fabs, fmin/fmax, selects against
  // constants the format cannot represent, branch, repeat_while — whose
  // nodes switch between two formats sharing exp_bits, so tags made under
  // one format meet ops under the other. Bits and per-OpKind counts
  // against Real on every SIMD path.
  const sf::Format pairs[][2] = {
      {{11, 12}, {11, 30}}, {{8, 7}, {8, 20}}, {{5, 10}, {5, 3}}, {{11, 24}, {11, 52}}};
  const double consts[] = {0.1, 1.0 / 3.0, 0.7, -1.9, 2.6, 1e-3, -0.0, 4.5};
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), 1e-300, -7e4};
  std::mt19937_64 rng(0x7A6D);
  for (int trial = 0; trial < 64; ++trial) {
    const auto& fmts = pairs[trial % 4];
    const std::size_t n = 1 + rng() % 40;
    std::vector<double> in[2];
    for (auto& lanes : in) {
      for (std::size_t i = 0; i < n; ++i) {
        lanes.push_back(rng() % 6 == 0 ? specials[rng() % 6]
                                       : std::ldexp(static_cast<double>(rng() % 20001) - 10000.0,
                                                    static_cast<int>(rng() % 12) - 14));
      }
    }
    std::vector<LaneNode> prog;
    for (int k = 0; k < 30; ++k) {
      const int have = 2 + k;
      prog.push_back({static_cast<int>(rng() % 15), static_cast<int>(rng() % have),
                      static_cast<int>(rng() % have), static_cast<int>(rng() % 2),
                      consts[rng() % 8]});
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n " << n << " formats "
                                    << fmts[0].to_string() << "/" << fmts[1].to_string());

    R.reset_counters();
    std::vector<std::vector<double>> scalar(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (const Real& r : run_lane_program(prog, Real(in[0][i]), Real(in[1][i]), fmts)) {
        scalar[i].push_back(r.raw());
      }
    }
    const rt::CounterSnapshot sc = R.counters();
    for (const sf::simd::Path p :
         {sf::simd::Path::Portable, sf::simd::Path::Avx2, sf::simd::Path::Avx512}) {
      if (!sf::simd::path_supported(p)) continue;
      R.force_simd_path(p);
      R.reset_counters();
      const auto v = run_lane_program(
          prog, batch::Vec::gather(n, [&](std::size_t i) { return in[0][i]; }),
          batch::Vec::gather(n, [&](std::size_t i) { return in[1][i]; }), fmts);
      const rt::CounterSnapshot vc = R.counters();
      for (std::size_t k = 0; k < v.size(); ++k) {
        ASSERT_TRUE(TagHolds(v[k])) << sf::simd::path_name(p) << " value " << k;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<u64>(v[k][i]), std::bit_cast<u64>(scalar[i][k]))
              << sf::simd::path_name(p) << " value " << k << " (node kind "
              << (k >= 2 ? prog[k - 2].kind : -1) << ") lane " << i;
        }
      }
      EXPECT_EQ(sc.trunc_by_kind, vc.trunc_by_kind) << sf::simd::path_name(p);
      EXPECT_EQ(sc.full_by_kind, vc.full_by_kind) << sf::simd::path_name(p);
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
