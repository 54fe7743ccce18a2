// BigFloat core arithmetic tests.
//
// The strongest oracle available: when the target Format is exactly fp32
// (8,23) or fp64 (11,52), BigFloat's correctly-rounded arithmetic must agree
// BIT-FOR-BIT with the host's IEEE-754 hardware (both are RTNE), including
// subnormals, overflow-to-inf and signed zeros. We drive that equivalence
// with large randomized sweeps plus directed edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "softfloat/bigfloat.hpp"
#include "support/rng.hpp"

namespace raptor::sf {
namespace {

u64 bits_of(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

u32 bits_of(float f) {
  u32 b;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

bool same_double(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return bits_of(a) == bits_of(b);
}

bool same_float(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return bits_of(a) == bits_of(b);
}

/// Random double whose exponent is drawn uniformly from a wide range, so
/// subnormal/overflow paths are exercised, not just "nice" magnitudes.
double random_double(Rng& rng, int min_exp = -320, int max_exp = 320) {
  const double mant = rng.uniform(1.0, 2.0);
  const int e = static_cast<int>(rng.next_below(static_cast<u64>(max_exp - min_exp))) + min_exp;
  const double sign = rng.next_below(2) == 0 ? 1.0 : -1.0;
  return sign * std::ldexp(mant, e);
}

float random_float(Rng& rng, int min_exp = -140, int max_exp = 120) {
  return static_cast<float>(random_double(rng, min_exp, max_exp));
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

TEST(BigFloatConvert, DoubleRoundTripExact) {
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double d = random_double(rng, -1070, 1020);
    EXPECT_TRUE(same_double(BigFloat::from_double(d).to_double(), d)) << d;
  }
}

TEST(BigFloatConvert, SpecialValuesRoundTrip) {
  EXPECT_TRUE(same_double(BigFloat::from_double(0.0).to_double(), 0.0));
  EXPECT_TRUE(same_double(BigFloat::from_double(-0.0).to_double(), -0.0));
  EXPECT_TRUE(same_double(BigFloat::from_double(INFINITY).to_double(), INFINITY));
  EXPECT_TRUE(same_double(BigFloat::from_double(-INFINITY).to_double(), -INFINITY));
  EXPECT_TRUE(std::isnan(BigFloat::from_double(std::nan("")).to_double()));
}

TEST(BigFloatConvert, SubnormalDoublesRoundTrip) {
  const double min_sub = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(same_double(BigFloat::from_double(min_sub).to_double(), min_sub));
  EXPECT_TRUE(same_double(BigFloat::from_double(-min_sub).to_double(), -min_sub));
  const double mid_sub = std::ldexp(0x123456789ABCDp0, -1074 + 0);
  EXPECT_TRUE(same_double(BigFloat::from_double(mid_sub).to_double(), mid_sub));
}

TEST(BigFloatConvert, FromIntExact) {
  EXPECT_DOUBLE_EQ(BigFloat::from_int(0).to_double(), 0.0);
  EXPECT_DOUBLE_EQ(BigFloat::from_int(1).to_double(), 1.0);
  EXPECT_DOUBLE_EQ(BigFloat::from_int(-7).to_double(), -7.0);
  EXPECT_DOUBLE_EQ(BigFloat::from_int(1234567891234567LL).to_double(), 1234567891234567.0);
  EXPECT_DOUBLE_EQ(BigFloat::from_int(std::numeric_limits<i64>::min()).to_double(), -0x1p63);
}

// ---------------------------------------------------------------------------
// Quantization (the truncation primitive)
// ---------------------------------------------------------------------------

TEST(Quantize, Fp32MatchesHardwareCast) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const double d = random_double(rng, -160, 140);
    const float hw = static_cast<float>(d);
    EXPECT_TRUE(same_float(static_cast<float>(quantize(d, Format::fp32())), hw)) << d;
  }
}

TEST(Quantize, Fp64IsIdentityOnDoubles) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = random_double(rng, -1070, 1020);
    EXPECT_TRUE(same_double(quantize(d, Format::fp64()), d));
  }
}

#ifdef __STDCPP_FLOAT16_T__
#define RAPTOR_HAS_F16 1
#endif
#if defined(__FLT16_MANT_DIG__)
TEST(Quantize, Fp16MatchesHardwareCast) {
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    const double d = random_double(rng, -30, 18);
    const _Float16 hw = static_cast<_Float16>(d);
    const _Float16 sw = static_cast<_Float16>(quantize(d, Format::fp16()));
    const bool both_nan = std::isnan(static_cast<double>(hw)) && std::isnan(static_cast<double>(sw));
    EXPECT_TRUE(both_nan || hw == sw ||
                (hw == 0 && sw == 0))  // signed zero compares equal anyway
        << d;
  }
}
#endif

TEST(Quantize, MantissaMonotonicity) {
  // Quantization error must be non-increasing as mantissa widens.
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double d = rng.uniform(0.5, 2.0);
    double prev_err = HUGE_VAL;
    for (int m = 2; m <= 52; m += 5) {
      const double err = std::fabs(quantize(d, Format{11, m}) - d);
      EXPECT_LE(err, prev_err) << "m=" << m << " d=" << d;
      prev_err = err;
    }
  }
}

TEST(Quantize, ErrorBoundedByHalfUlp) {
  Rng rng(6);
  for (int m = 1; m <= 52; ++m) {
    for (int i = 0; i < 200; ++i) {
      const double d = rng.uniform(1.0, 2.0);
      const double err = std::fabs(quantize(d, Format{11, m}) - d);
      EXPECT_LE(err, std::ldexp(1.0, -m - 1) * (1 + 1e-15)) << "m=" << m;
    }
  }
}

TEST(Quantize, OverflowToInfinity) {
  // fp16 max finite = 65504; above the rounding threshold -> inf.
  EXPECT_DOUBLE_EQ(quantize(65504.0, Format::fp16()), 65504.0);
  EXPECT_TRUE(std::isinf(quantize(65536.0, Format::fp16())));
  EXPECT_TRUE(std::isinf(quantize(-65536.0, Format::fp16())));
  EXPECT_DOUBLE_EQ(quantize(65519.0, Format::fp16()), 65504.0);  // rounds down
  EXPECT_TRUE(std::isinf(quantize(65520.0, Format::fp16())));    // ties up -> inf
}

TEST(Quantize, GradualUnderflow) {
  // fp16 smallest subnormal = 2^-24.
  EXPECT_DOUBLE_EQ(quantize(0x1p-24, Format::fp16()), 0x1p-24);
  EXPECT_DOUBLE_EQ(quantize(0x1p-25, Format::fp16()), 0.0);        // tie -> even (0)
  EXPECT_DOUBLE_EQ(quantize(0x1.8p-25, Format::fp16()), 0x1p-24);  // above half -> min sub
  EXPECT_DOUBLE_EQ(quantize(0x1p-26, Format::fp16()), 0.0);
  // 3 * 2^-24 is a 2-bit subnormal: exactly representable.
  EXPECT_DOUBLE_EQ(quantize(3 * 0x1p-24, Format::fp16()), 3 * 0x1p-24);
  // Subnormal rounding: 1.25 * 2^-24 rounds to even (1 * 2^-24).
  EXPECT_DOUBLE_EQ(quantize(1.25 * 0x1p-24, Format::fp16()), 0x1p-24);
  EXPECT_DOUBLE_EQ(quantize(1.5 * 0x1p-24, Format::fp16()), 2 * 0x1p-24);  // tie -> even (2)
}

// ---------------------------------------------------------------------------
// Hardware-equivalence property sweeps for +,-,*,/,sqrt,fma
// ---------------------------------------------------------------------------

struct BinOpCase {
  const char* name;
  float (*hw)(float, float);
  double (*sw)(double, double, const Format&);
};

class Fp32HardwareEquiv : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(Fp32HardwareEquiv, RandomSweepMatchesBitForBit) {
  const auto& op = GetParam();
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    const float a = random_float(rng);
    const float b = random_float(rng);
    const float hw = op.hw(a, b);
    const float sw = static_cast<float>(op.sw(a, b, Format::fp32()));
    EXPECT_TRUE(same_float(hw, sw)) << op.name << "(" << a << ", " << b << ") hw=" << hw
                                    << " sw=" << sw;
  }
}

TEST_P(Fp32HardwareEquiv, SubnormalRegionMatches) {
  const auto& op = GetParam();
  Rng rng(100);
  for (int i = 0; i < 20000; ++i) {
    const float a = random_float(rng, -148, -120);
    const float b = random_float(rng, -148, -120);
    const float hw = op.hw(a, b);
    const float sw = static_cast<float>(op.sw(a, b, Format::fp32()));
    EXPECT_TRUE(same_float(hw, sw)) << op.name << "(" << a << ", " << b << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, Fp32HardwareEquiv,
    ::testing::Values(
        BinOpCase{"add", [](float a, float b) { return a + b; }, &trunc_add},
        BinOpCase{"sub", [](float a, float b) { return a - b; }, &trunc_sub},
        BinOpCase{"mul", [](float a, float b) { return a * b; }, &trunc_mul},
        BinOpCase{"div", [](float a, float b) { return a / b; }, &trunc_div}),
    [](const auto& info) { return info.param.name; });

TEST(Fp64HardwareEquiv, AddSubMulDivRandomSweep) {
  Rng rng(7);
  const Format f64 = Format::fp64();
  for (int i = 0; i < 50000; ++i) {
    const double a = random_double(rng, -500, 500);
    const double b = random_double(rng, -500, 500);
    EXPECT_TRUE(same_double(trunc_add(a, b, f64), a + b));
    EXPECT_TRUE(same_double(trunc_sub(a, b, f64), a - b));
    EXPECT_TRUE(same_double(trunc_mul(a, b, f64), a * b));
    EXPECT_TRUE(same_double(trunc_div(a, b, f64), a / b));
  }
}

TEST(Fp64HardwareEquiv, NearCancellationExact) {
  Rng rng(8);
  const Format f64 = Format::fp64();
  for (int i = 0; i < 20000; ++i) {
    const double a = random_double(rng, -10, 10);
    const double b = std::nextafter(a, 2 * a);  // very close magnitude
    EXPECT_TRUE(same_double(trunc_sub(a, b, f64), a - b)) << a;
    EXPECT_TRUE(same_double(trunc_add(a, -b, f64), a - b)) << a;
  }
}

TEST(Fp64HardwareEquiv, SqrtRandomSweep) {
  Rng rng(9);
  for (int i = 0; i < 30000; ++i) {
    const double a = std::fabs(random_double(rng, -600, 600));
    EXPECT_TRUE(same_double(trunc_sqrt(a, Format::fp64()), std::sqrt(a))) << a;
  }
}

TEST(Fp64HardwareEquiv, SqrtOfAllOnesSignificands) {
  // An all-ones 53-bit significand at an odd exponent has a root just below
  // 2^64 in the integer kernel, where the hardware seed of the Newton
  // iteration made x / g overflow 64 bits (and the final correction walk
  // never end).
  for (int e = -1021; e <= 1023; e += 2) {
    const double a = std::ldexp(0x1.fffffffffffffp0, e);
    ASSERT_TRUE(same_double(trunc_sqrt(a, Format::fp64()), std::sqrt(a))) << e;
  }
  EXPECT_TRUE(same_double(trunc_sqrt(0x1.fffffffffffffp+15, Format{5, 52}), 0x1.fffffffffffffp+7));
}

TEST(Fp32HardwareEquivSqrt, RandomSweep) {
  Rng rng(10);
  for (int i = 0; i < 30000; ++i) {
    const float a = std::fabs(random_float(rng));
    const float hw = std::sqrt(a);
    EXPECT_TRUE(same_float(static_cast<float>(trunc_sqrt(a, Format::fp32())), hw)) << a;
  }
}

TEST(Fp64HardwareEquiv, FmaRandomSweep) {
  Rng rng(11);
  for (int i = 0; i < 30000; ++i) {
    const double a = random_double(rng, -200, 200);
    const double b = random_double(rng, -200, 200);
    const double c = random_double(rng, -200, 200);
    EXPECT_TRUE(same_double(trunc_fma(a, b, c, Format::fp64()), std::fma(a, b, c)))
        << a << " " << b << " " << c;
  }
}

TEST(Fp32HardwareEquivFma, RandomSweepIncludingCancellation) {
  Rng rng(12);
  for (int i = 0; i < 30000; ++i) {
    const float a = random_float(rng, -60, 60);
    const float b = random_float(rng, -60, 60);
    // Bias c towards -a*b to hit the cancellation path.
    const float c = (i % 3 == 0) ? -a * b : random_float(rng, -60, 60);
    const float hw = std::fmaf(a, b, c);
    const float sw = static_cast<float>(
        trunc_fma(a, b, c, Format::fp32()));
    EXPECT_TRUE(same_float(hw, sw)) << a << " " << b << " " << c;
  }
}

// ---------------------------------------------------------------------------
// Directed IEEE special-value semantics
// ---------------------------------------------------------------------------

TEST(BigFloatSpecials, InfinityArithmetic) {
  const Format f = Format::fp64();
  EXPECT_TRUE(std::isnan(trunc_add(INFINITY, -INFINITY, f)));
  EXPECT_TRUE(std::isinf(trunc_add(INFINITY, 1.0, f)));
  EXPECT_TRUE(std::isnan(trunc_mul(INFINITY, 0.0, f)));
  EXPECT_TRUE(std::isnan(trunc_div(0.0, 0.0, f)));
  EXPECT_TRUE(std::isnan(trunc_div(INFINITY, INFINITY, f)));
  EXPECT_TRUE(std::isinf(trunc_div(1.0, 0.0, f)));
  EXPECT_LT(trunc_div(-1.0, 0.0, f), 0.0);
  EXPECT_DOUBLE_EQ(trunc_div(1.0, INFINITY, f), 0.0);
  EXPECT_TRUE(std::isnan(trunc_sqrt(-1.0, f)));
}

TEST(BigFloatSpecials, SignedZeroRules) {
  const Format f = Format::fp64();
  EXPECT_TRUE(same_double(trunc_add(-0.0, -0.0, f), -0.0));
  EXPECT_TRUE(same_double(trunc_add(-0.0, 0.0, f), 0.0));
  EXPECT_TRUE(same_double(trunc_sub(1.0, 1.0, f), 0.0));
  EXPECT_TRUE(same_double(trunc_mul(-1.0, 0.0, f), -0.0));
  EXPECT_TRUE(same_double(trunc_sqrt(-0.0, f), -0.0));
}

TEST(BigFloatSpecials, NanPropagation) {
  const Format f = Format::fp32();
  const double q = std::nan("");
  EXPECT_TRUE(std::isnan(trunc_add(q, 1.0, f)));
  EXPECT_TRUE(std::isnan(trunc_mul(1.0, q, f)));
  EXPECT_TRUE(std::isnan(trunc_fma(q, 1.0, 1.0, f)));
  EXPECT_TRUE(std::isnan(trunc_fma(1.0, 1.0, q, f)));
}

// ---------------------------------------------------------------------------
// Algebraic properties at arbitrary formats (parameterized sweep)
// ---------------------------------------------------------------------------

class ArbitraryFormat : public ::testing::TestWithParam<Format> {};

TEST_P(ArbitraryFormat, AddCommutes) {
  const Format f = GetParam();
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    const double a = random_double(rng, -8, 8);
    const double b = random_double(rng, -8, 8);
    EXPECT_TRUE(same_double(trunc_add(a, b, f), trunc_add(b, a, f)));
  }
}

TEST_P(ArbitraryFormat, MulCommutes) {
  const Format f = GetParam();
  Rng rng(14);
  for (int i = 0; i < 4000; ++i) {
    const double a = random_double(rng, -8, 8);
    const double b = random_double(rng, -8, 8);
    EXPECT_TRUE(same_double(trunc_mul(a, b, f), trunc_mul(b, a, f)));
  }
}

TEST_P(ArbitraryFormat, ResultsAreRepresentable) {
  // Closure: any op result must be exactly representable in the format.
  const Format f = GetParam();
  Rng rng(15);
  for (int i = 0; i < 4000; ++i) {
    const double a = random_double(rng, -8, 8);
    const double b = random_double(rng, -8, 8);
    for (const double r : {trunc_add(a, b, f), trunc_mul(a, b, f), trunc_div(a, b, f)}) {
      EXPECT_TRUE(same_double(quantize(r, f), r)) << r;
    }
  }
}

TEST_P(ArbitraryFormat, QuantizeIsIdempotent) {
  const Format f = GetParam();
  Rng rng(16);
  for (int i = 0; i < 4000; ++i) {
    const double a = random_double(rng, -40, 40);
    const double q1 = quantize(a, f);
    EXPECT_TRUE(same_double(quantize(q1, f), q1));
  }
}

TEST_P(ArbitraryFormat, ExactOperationsStayExact) {
  // Small-integer arithmetic representable in the format must be exact.
  const Format f = GetParam();
  if (f.man_bits < 4) GTEST_SKIP() << "needs >= 4 mantissa bits for 2-digit ints";
  for (int a = 1; a <= 12; ++a) {
    for (int b = 1; b <= 12; ++b) {
      // u64 shift: man_bits reaches 61, which overflows an int shift (UBSan).
      if (static_cast<u64>(a + b) <= (u64{1} << (f.man_bits + 1))) {
        EXPECT_DOUBLE_EQ(trunc_add(a, b, f), a + b);
      }
    }
  }
}

TEST_P(ArbitraryFormat, SqrtOfSquareWithinOneUlp) {
  const Format f = GetParam();
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double a = quantize(rng.uniform(1.0, 2.0), f);
    const double s = trunc_sqrt(trunc_mul(a, a, f), f);
    EXPECT_NEAR(s, a, std::ldexp(a, -f.man_bits)) << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormatSweep, ArbitraryFormat,
    ::testing::Values(Format{5, 2}, Format{4, 3}, Format{5, 4}, Format{8, 7}, Format{5, 10},
                      Format{5, 14}, Format{8, 23}, Format{11, 33}, Format{11, 42},
                      Format{11, 52}, Format{15, 58}, Format{18, 61}),
    [](const auto& info) { return info.param.tag(); });

// ---------------------------------------------------------------------------
// Compare / representability
// ---------------------------------------------------------------------------

TEST(BigFloatCompare, TotalOrderOnFinite) {
  const auto lt = [](double a, double b) {
    return BigFloat::from_double(a).compare(BigFloat::from_double(b)) < 0;
  };
  EXPECT_TRUE(lt(1.0, 2.0));
  EXPECT_TRUE(lt(-2.0, -1.0));
  EXPECT_TRUE(lt(-1.0, 1.0));
  EXPECT_TRUE(lt(-1.0, 0.0));
  EXPECT_TRUE(lt(0.0, 0x1p-1074));
  EXPECT_FALSE(lt(3.0, 3.0));
  EXPECT_EQ(BigFloat::from_double(0.0).compare(BigFloat::from_double(-0.0)), 0);
  EXPECT_EQ(BigFloat::from_double(1.0).compare(BigFloat::nan()), 2);
}

TEST(BigFloatCompare, InfinitiesOrdered) {
  EXPECT_LT(BigFloat::from_double(1e308).compare(BigFloat::inf()), 0);
  EXPECT_GT(BigFloat::from_double(-1e308).compare(BigFloat::inf(true)), 0);
  EXPECT_EQ(BigFloat::inf().compare(BigFloat::inf()), 0);
}

TEST(Representable, DetectsExactAndInexact) {
  EXPECT_TRUE(BigFloat::from_double(1.5).representable_in(Format::fp16()));
  EXPECT_TRUE(BigFloat::from_double(65504.0).representable_in(Format::fp16()));
  EXPECT_FALSE(BigFloat::from_double(65505.0).representable_in(Format::fp16()));
  EXPECT_FALSE(BigFloat::from_double(1.0 + 0x1p-20).representable_in(Format::fp16()));
  EXPECT_TRUE(BigFloat::from_double(1.0 + 0x1p-10).representable_in(Format::fp16()));
}

TEST(BigFloatScaled, PowersOfTwoExact) {
  const BigFloat x = BigFloat::from_double(1.25);
  EXPECT_DOUBLE_EQ(x.scaled(3).to_double(), 10.0);
  EXPECT_DOUBLE_EQ(x.scaled(-2).to_double(), 0.3125);
  EXPECT_DOUBLE_EQ(BigFloat::zero().scaled(5).to_double(), 0.0);
}

}  // namespace
}  // namespace raptor::sf
