// Coverage extras: paths not exercised elsewhere — runtime math-op dispatch
// against the softfloat oracles, the Real math functions under truncation,
// the f32 C shims, BigFloat printing/compare corners, support utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "io/ppm.hpp"
#include "runtime/runtime.hpp"
#include "support/timer.hpp"
#include "trunc/capi.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace raptor {
namespace {

class CoverageTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
  rt::Runtime& R = rt::Runtime::instance();
};

// ---------------------------------------------------------------------------
// Runtime unary math dispatch == softfloat oracle, per op kind
// ---------------------------------------------------------------------------

TEST_F(CoverageTest, UnaryMathOpsMatchSoftfloatOracles) {
  const sf::Format f{8, 14};
  TruncScope scope(8, 14);
  const double x = 0.73;
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Exp, x, 64), sf::trunc_exp(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Log, x, 64), sf::trunc_log(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Log2, x, 64), sf::trunc_log2(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Log10, x, 64), sf::trunc_log10(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Sin, x, 64), sf::trunc_sin(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Cos, x, 64), sf::trunc_cos(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Tan, x, 64), sf::trunc_tan(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Atan, x, 64), sf::trunc_atan(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Tanh, x, 64), sf::trunc_tanh(x, f));
  EXPECT_DOUBLE_EQ(R.op1(rt::OpKind::Cbrt, x, 64), sf::trunc_cbrt(x, f));
  EXPECT_DOUBLE_EQ(R.op2(rt::OpKind::Pow, x, 1.7, 64), sf::trunc_pow(x, 1.7, f));
  EXPECT_DOUBLE_EQ(R.op2(rt::OpKind::Atan2, x, 0.4, 64), sf::trunc_atan2(x, 0.4, f));
}

TEST_F(CoverageTest, RealMathFunctionsRouteThroughRuntime) {
  TruncScope scope(8, 10);
  const Real x = 0.45;
  const sf::Format f{8, 10};
  EXPECT_DOUBLE_EQ(log2(x).value(), sf::trunc_log2(0.45, f));
  EXPECT_DOUBLE_EQ(log10(x).value(), sf::trunc_log10(0.45, f));
  EXPECT_DOUBLE_EQ(tan(x).value(), sf::trunc_tan(0.45, f));
  EXPECT_DOUBLE_EQ(atan(x).value(), sf::trunc_atan(0.45, f));
  EXPECT_DOUBLE_EQ(tanh(x).value(), sf::trunc_tanh(0.45, f));
  EXPECT_DOUBLE_EQ(cbrt(x).value(), sf::trunc_cbrt(0.45, f));
  EXPECT_DOUBLE_EQ(atan2(x, Real(0.2)).value(), sf::trunc_atan2(0.45, 0.2, f));
  EXPECT_DOUBLE_EQ(pow(x, Real(2.0)).value(), sf::trunc_pow(0.45, 2.0, f));
  // Counters saw every call above.
  EXPECT_GE(R.counters().trunc_flops, 8u);
}

TEST_F(CoverageTest, F32CApiShims) {
  EXPECT_EQ(capi::_raptor_sub_f32(2.0f, 0.75f, 8, 23, nullptr), 1.25f);
  const float d = capi::_raptor_div_f32(1.0f, 3.0f, 5, 4, nullptr);
  EXPECT_DOUBLE_EQ(d, sf::quantize(d, sf::Format{5, 4}));
  EXPECT_EQ(capi::_raptor_sqrt_f32(9.0f, 8, 23, nullptr), 3.0f);
  EXPECT_DOUBLE_EQ(capi::_raptor_pow_f64(3.0, 2.0, 11, 52, nullptr), 9.0);
}

// ---------------------------------------------------------------------------
// BigFloat odds and ends
// ---------------------------------------------------------------------------

TEST(BigFloatExtras, ToStringCoversKinds) {
  EXPECT_EQ(sf::BigFloat::zero().to_string(), "0");
  EXPECT_EQ(sf::BigFloat::zero(true).to_string(), "-0");
  EXPECT_EQ(sf::BigFloat::inf().to_string(), "inf");
  EXPECT_EQ(sf::BigFloat::inf(true).to_string(), "-inf");
  EXPECT_EQ(sf::BigFloat::nan().to_string(), "nan");
  EXPECT_EQ(sf::BigFloat::from_int(42).to_string(), "42");
}

TEST(BigFloatExtras, FormatHelpers) {
  const sf::Format f = sf::Format::bf16();
  EXPECT_EQ(f.exp_bits, 8);
  EXPECT_EQ(f.man_bits, 7);
  EXPECT_EQ(f.storage_bits(), 16);
  EXPECT_EQ(sf::Format::fp8_e4m3().storage_bits(), 8);
  EXPECT_EQ(sf::Format::fp16().to_string(), "(5,10)");
  EXPECT_FALSE((sf::Format{1, 10}).valid());
  EXPECT_FALSE((sf::Format{8, 0}).valid());
}

TEST(BigFloatExtras, CompareZeroAgainstSubnormals) {
  const auto tiny = sf::BigFloat::from_double(5e-324);
  EXPECT_GT(tiny.compare(sf::BigFloat::zero()), 0);
  EXPECT_LT(tiny.negated().compare(sf::BigFloat::zero()), 0);
  EXPECT_LT(sf::BigFloat::inf(true).compare(tiny.negated()), 0);
}

// ---------------------------------------------------------------------------
// Support utilities
// ---------------------------------------------------------------------------

TEST(SupportExtras, TimerAdvances) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// ---------------------------------------------------------------------------
// Counter kind attribution
// ---------------------------------------------------------------------------

TEST_F(CoverageTest, CountsPerOpKind) {
  TruncScope scope(11, 20);
  const Real a = 2.0, b = 3.0;
  (void)(a + b);
  (void)(a - b);
  (void)(a * b);
  (void)(a / b);
  (void)sqrt(a);
  (void)fma(a, b, a);
  const auto c = R.counters();
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Add)], 1u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Sub)], 1u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Mul)], 1u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Div)], 1u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Sqrt)], 1u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Fma)], 1u);
  EXPECT_EQ(c.trunc_flops, 6u);
}

TEST_F(CoverageTest, OpNamesAreStable) {
  EXPECT_STREQ(rt::op_name(rt::OpKind::Add), "fadd");
  EXPECT_STREQ(rt::op_name(rt::OpKind::Fma), "fma");
  EXPECT_STREQ(rt::op_name(rt::OpKind::Pow), "pow");
}

}  // namespace
}  // namespace raptor
