// Differential tests pinning the fast_round kernel (and the fast_* op-mode
// operations built on it) bit-for-bit against the BigFloat reference.
//
//  * Exhaustive small-format sweeps: every one of the 65536 fp16 bit
//    patterns, decoded to double, rounded into a family of formats with
//    e <= 5, m <= 10, plus a full walk of each format's own value grid with
//    its exact rounding midpoints and their double-ulp neighbors (the RNE
//    tie positions).
//  * Randomized large-format sweeps: >= 1M seeded inputs per supported
//    larger format, mixing uniform bit patterns with exponent-targeted
//    values so subnormals, the overflow boundary, +-inf and NaN are all hit.
//  * Operation differentials: fast_add/sub/mul/div/sqrt/fma against the
//    trunc_* BigFloat reference over random and special operands for every
//    format inside the innocuous-double-rounding envelope, including
//    exp_bits 10/11 formats with operands aimed at double-subnormal products
//    and quotients and at quotients next to a rounding midpoint, and the
//    pinned exp_bits == 11 product witness.
//  * The man_bits > 24 kernels, which break target ties by the sign of
//    each op's exact error: e5..e11 x m25..52 on operands aimed at target
//    midpoints, the subnormal range, the exp_bits == 11 fallback bound and
//    the overflow threshold (tests/midpoint_products.hpp).
//
// Any mismatch prints the offending input bit pattern(s) and both outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round.hpp"
#include "tests/midpoint_products.hpp"

namespace raptor::sf {
namespace {

u64 bits_of(double d) { return std::bit_cast<u64>(d); }
double from_bits(u64 b) { return std::bit_cast<double>(b); }

::testing::AssertionResult RoundMatches(double x, const Format& fmt) {
  const double fast = fast_round(x, fmt);
  const double ref = quantize(x, fmt);
  if (bits_of(fast) == bits_of(ref)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "fast_round mismatch for fmt " << fmt.to_string()
                                       << " input 0x" << std::hex << bits_of(x) << " (" << x
                                       << "): fast 0x" << bits_of(fast) << " (" << fast
                                       << ") vs BigFloat 0x" << bits_of(ref) << " (" << ref
                                       << ")";
}

/// Decode an IEEE binary16 bit pattern to double (exact).
double fp16_to_double(std::uint16_t h) {
  const int sign = (h >> 15) & 1;
  const int expf = (h >> 10) & 0x1F;
  const int frac = h & 0x3FF;
  double mag;
  if (expf == 0x1F) {
    mag = frac != 0 ? std::numeric_limits<double>::quiet_NaN()
                    : std::numeric_limits<double>::infinity();
  } else if (expf == 0) {
    mag = std::ldexp(frac, -24);
  } else {
    mag = std::ldexp(1024 + frac, expf - 25);
  }
  return sign != 0 ? -mag : mag;
}

const std::vector<Format> kSmallFormats = {
    {2, 1}, {3, 2}, {4, 3}, {4, 7}, {5, 2}, {5, 7}, {5, 10}, {3, 10},
};

const std::vector<Format> kLargeFormats = {
    {8, 23}, {11, 52}, {8, 12}, {5, 10}, {9, 24}, {11, 4}, {10, 30}, {11, 51}, {6, 13},
};

TEST(FastRoundSupports, EnvelopePredicates) {
  EXPECT_TRUE(fast_round_supports(Format::fp64()));
  EXPECT_TRUE(fast_round_supports(Format::fp32()));
  EXPECT_TRUE(fast_round_supports(Format::fp16()));
  EXPECT_TRUE(fast_round_supports(Format{11, 4}));
  EXPECT_FALSE(fast_round_supports(Format{12, 30}));  // exponent beyond double
  EXPECT_FALSE(fast_round_supports(Format{8, 53}));   // invalid anyway
  EXPECT_FALSE(fast_round_supports(Format{18, 61}));

  // One envelope for the rounding kernel and every non-fma op.
  EXPECT_TRUE(fast_round_supports(Format{8, 12}));
  EXPECT_TRUE(fast_round_supports(Format{9, 24}));
  EXPECT_TRUE(fast_round_supports(Format{10, 12}));  // e10 subnormal results round to +-0
  EXPECT_TRUE(fast_round_supports(Format{11, 12}));  // e11 products are guarded
  EXPECT_TRUE(fast_round_supports(Format{11, 24}));
  EXPECT_TRUE(fast_round_supports(Format{8, 25}));   // ties broken by the op's exact error
  EXPECT_TRUE(fast_round_supports(Format{11, 25}));
  EXPECT_FALSE(fast_round_supports(Format{12, 4}));  // exponent beyond double
  EXPECT_FALSE(fast_round_supports(Format{12, 24}));
  EXPECT_FALSE(fast_round_supports(Format{12, 52}));

  EXPECT_TRUE(fast_fma_supports(Format::fp16()));
  EXPECT_TRUE(fast_fma_supports(Format::bf16()));
  EXPECT_TRUE(fast_fma_supports(Format{8, 12}));
  EXPECT_TRUE(fast_fma_supports(Format::fp32()));
  EXPECT_FALSE(fast_fma_supports(Format{8, 25}));  // product no longer exact
  EXPECT_FALSE(fast_fma_supports(Format{10, 10}));
  EXPECT_FALSE(fast_fma_supports(Format{11, 12}));
}

TEST(FastRoundExhaustive, AllFp16PatternsIntoSmallFormats) {
  for (const Format& fmt : kSmallFormats) {
    for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
      const double x = fp16_to_double(static_cast<std::uint16_t>(h));
      ASSERT_TRUE(RoundMatches(x, fmt)) << "fp16 pattern 0x" << std::hex << h;
    }
  }
}

TEST(FastRoundExhaustive, MidpointsAndNeighborsOfEveryRepresentable) {
  // Walk every positive representable value of each small format, and probe
  // the exact midpoint to its successor plus the two adjacent doubles — the
  // positions where RNE ties and their resolution live. Midpoints are exact
  // in double for every format here (precision + 1 <= 12 bits).
  for (const Format& fmt : kSmallFormats) {
    std::vector<double> grid;
    grid.push_back(0.0);
    for (int m = 1; m < (1 << fmt.man_bits); ++m) {
      grid.push_back(std::ldexp(m, fmt.emin_subnormal()));  // subnormals
    }
    for (int e = fmt.emin(); e <= fmt.emax(); ++e) {
      for (int m = 0; m < (1 << fmt.man_bits); ++m) {
        grid.push_back(std::ldexp((1 << fmt.man_bits) + m, e - fmt.man_bits));
      }
    }
    grid.push_back(std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
      const double lo = grid[i];
      const double hi = grid[i + 1];
      const double mid = std::isinf(hi) ? 2.0 * lo - std::ldexp(lo, -fmt.man_bits - 1)
                                        : 0.5 * (lo + hi);
      for (const double m : {mid, std::nextafter(mid, -HUGE_VAL),
                             std::nextafter(mid, HUGE_VAL), lo, hi}) {
        ASSERT_TRUE(RoundMatches(m, fmt));
        ASSERT_TRUE(RoundMatches(-m, fmt));
      }
    }
  }
}

TEST(FastRoundExhaustive, OverflowBoundaryAndSpecials) {
  for (const Format& fmt : kSmallFormats) {
    // Largest finite value (2 - 2^-m) * 2^emax and the rounding threshold to
    // infinity (midpoint to the next power of two), and beyond.
    const double maxfin = std::ldexp((2 << fmt.man_bits) - 1, fmt.emax() - fmt.man_bits);
    const double thresh = std::ldexp(2.0 - std::ldexp(1.0, -fmt.man_bits - 1), fmt.emax());
    for (const double v :
         {maxfin, thresh, std::nextafter(thresh, -HUGE_VAL), std::nextafter(thresh, HUGE_VAL),
          std::ldexp(1.0, fmt.emax() + 1), 1e300, HUGE_VAL}) {
      ASSERT_TRUE(RoundMatches(v, fmt));
      ASSERT_TRUE(RoundMatches(-v, fmt));
    }
  }
  // Zeros keep their sign; every NaN payload canonicalizes identically.
  for (const Format& fmt : kSmallFormats) {
    EXPECT_EQ(bits_of(fast_round(0.0, fmt)), bits_of(0.0));
    EXPECT_EQ(bits_of(fast_round(-0.0, fmt)), bits_of(-0.0));
    for (const u64 nan_bits :
         {u64{0x7FF8000000000000}, u64{0xFFF8000000000000}, u64{0x7FF0000000000001},
          u64{0xFFFFFFFFFFFFFFFF}, u64{0x7FFDEADBEEFCAFE1}}) {
      ASSERT_TRUE(RoundMatches(from_bits(nan_bits), fmt)) << std::hex << nan_bits;
    }
  }
}

TEST(FastRoundRandom, MillionInputsPerLargeFormat) {
  for (std::size_t fi = 0; fi < kLargeFormats.size(); ++fi) {
    const Format& fmt = kLargeFormats[fi];
    std::mt19937_64 rng(0xF00D + fi);
    // Half the budget: uniform bit patterns (extreme exponents, NaNs, infs).
    for (int i = 0; i < 500000; ++i) {
      ASSERT_TRUE(RoundMatches(from_bits(rng()), fmt));
    }
    // Half: exponent targeted at the format's interesting ranges (normal
    // band, gradual underflow, overflow boundary).
    std::uniform_int_distribution<int> exp_dist(fmt.emin_subnormal() - 3, fmt.emax() + 3);
    for (int i = 0; i < 500000; ++i) {
      const int e = exp_dist(rng);
      const u64 frac = rng() & ((u64{1} << 52) - 1);
      const u64 sign = (rng() & 1) << 63;
      const int biased = std::clamp(e + 1023, 1, 2046);
      const double x = from_bits(sign | (static_cast<u64>(biased) << 52) | frac);
      ASSERT_TRUE(RoundMatches(x, fmt));
    }
  }
}

TEST(FastRoundRandom, DoubleSubnormalInputsAndOutputs) {
  // exp_bits == 11 formats reach double's subnormal range on both sides.
  std::mt19937_64 rng(99);
  for (const Format& fmt : {Format{11, 4}, Format{11, 20}, Format{11, 51}, Format{11, 52}}) {
    for (int i = 0; i < 200000; ++i) {
      const u64 frac = rng() & ((u64{1} << 52) - 1);
      const u64 sign = (rng() & 1) << 63;
      const u64 expf = rng() % 4;  // biased exponents 0..3: subnormal fringe
      ASSERT_TRUE(RoundMatches(from_bits(sign | (expf << 52) | frac), fmt));
    }
  }
}

// ---------------------------------------------------------------------------
// Fast operations vs the BigFloat op-mode reference
// ---------------------------------------------------------------------------

const std::vector<double> kSpecialOperands = {
    0.0,    -0.0,     1.0,   -1.0,  0.5,    1.5,     3.0,         1e-300, -1e-300, 1e300,
    -1e300, 65504.0,  2.5e5, 1e-8,  -1e-8,  M_PI,    -M_E,        HUGE_VAL, -HUGE_VAL,
    std::nan(""),     -std::nan(""), 0x1p-1074, -0x1p-1074, 0x1p-149, 0x1.fffffep127,
};

::testing::AssertionResult Op2Matches(int op, double a, double b, const Format& fmt) {
  double fast, ref;
  switch (op) {
    case 0: fast = fast_add(a, b, fmt); ref = trunc_add(a, b, fmt); break;
    case 1: fast = fast_sub(a, b, fmt); ref = trunc_sub(a, b, fmt); break;
    case 2: fast = fast_mul(a, b, fmt); ref = trunc_mul(a, b, fmt); break;
    default: fast = fast_div(a, b, fmt); ref = trunc_div(a, b, fmt); break;
  }
  if (bits_of(fast) == bits_of(ref)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "fast op " << op << " mismatch for fmt "
                                       << fmt.to_string() << " a=0x" << std::hex << bits_of(a)
                                       << " b=0x" << bits_of(b) << ": fast 0x" << bits_of(fast)
                                       << " vs BigFloat 0x" << bits_of(ref);
}

TEST(FastOps, SpecialOperandCrossProduct) {
  for (const Format& fmt : {Format{5, 10}, Format{8, 7}, Format{4, 3}, Format{8, 23},
                            Format{8, 12}, Format{9, 24}, Format{5, 2}}) {
    ASSERT_TRUE(fast_round_supports(fmt));
    for (const double a : kSpecialOperands) {
      for (const double b : kSpecialOperands) {
        for (int op = 0; op < 4; ++op) {
          ASSERT_TRUE(Op2Matches(op, a, b, fmt));
        }
      }
      const double s_fast = fast_sqrt(a, fmt);
      const double s_ref = trunc_sqrt(a, fmt);
      ASSERT_EQ(bits_of(s_fast), bits_of(s_ref)) << "sqrt a=0x" << std::hex << bits_of(a);
    }
  }
}

TEST(FastOps, RandomSweepPerEligibleFormat) {
  for (std::size_t fi = 0; fi < 7; ++fi) {
    const Format fmt = std::vector<Format>{{5, 10}, {8, 7}, {4, 3}, {8, 23},
                                           {8, 12}, {9, 24}, {2, 1}}[fi];
    std::mt19937_64 rng(0xBEEF + fi);
    std::uniform_int_distribution<int> exp_dist(fmt.emin_subnormal() - 2, fmt.emax() + 2);
    const auto draw = [&] {
      if ((rng() & 7) == 0) return from_bits(rng());  // arbitrary doubles too
      const int biased = std::clamp(exp_dist(rng) + 1023, 0, 2046);
      return from_bits(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                       (rng() & ((u64{1} << 52) - 1)));
    };
    for (int i = 0; i < 250000; ++i) {
      const double a = draw(), b = draw();
      ASSERT_TRUE(Op2Matches(static_cast<int>(rng() % 4), a, b, fmt));
    }
    for (int i = 0; i < 50000; ++i) {
      const double a = draw();
      ASSERT_EQ(bits_of(fast_sqrt(a, fmt)), bits_of(trunc_sqrt(a, fmt)))
          << "sqrt fmt " << fmt.to_string() << " a=0x" << std::hex << bits_of(a);
    }
  }
}

// ---------------------------------------------------------------------------
// exp_bits 10 and 11: results in double's subnormal range
// ---------------------------------------------------------------------------

const std::vector<Format> kWideExpFormats = {
    {10, 1}, {10, 12}, {10, 24}, {11, 1}, {11, 4}, {11, 12}, {11, 23}, {11, 24},
};

/// A random value of `fmt` (rounded with the BigFloat reference) whose
/// exponent lies in [lo, hi], with a random sign.
double format_value(std::mt19937_64& rng, const Format& fmt, int lo, int hi) {
  const int e = lo + static_cast<int>(rng() % static_cast<u64>(hi - lo + 1));
  const double sig = 1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
  return quantize(std::ldexp((rng() & 1) != 0 ? -sig : sig, e), fmt);
}

TEST(FastOps, MulSubnormalProductWitness) {
  // The hardware product is a double subnormal and rounds onto a target
  // midpoint: unguarded, the second rounding ties to even and loses the
  // last bit.
  const Format fmt{11, 24};
  const double a = std::ldexp(16777603.0, -524);
  const double b = std::ldexp(27268395.0, -552);
  const RoundSpec spec(fmt);
  const double unguarded = fast_round(fast_round(a, spec) * fast_round(b, spec), spec);
  EXPECT_EQ(bits_of(unguarded), bits_of(0x0.06805ep-1022));
  EXPECT_EQ(bits_of(trunc_mul(a, b, fmt)), bits_of(0x0.06805fp-1022));
  EXPECT_EQ(bits_of(fast_mul(a, b, fmt)), bits_of(0x0.06805fp-1022));
  EXPECT_EQ(bits_of(fast_mul(-a, b, fmt)), bits_of(-0x0.06805fp-1022));
}

TEST(FastOps, MulProductsNextToSubnormalMidpoints) {
  // Every pair double-rounds onto a target midpoint in hardware; the guard
  // must recompute each of them.
  for (const int m : {18, 20, 23, 24}) {
    const Format fmt{11, m};
    const RoundSpec spec(fmt);
    int unguarded_wrong = 0;
    for (const auto& [a, b] : testing_support::midpoint_products(fmt, 400, 0x3D + m)) {
      ASSERT_TRUE(Op2Matches(2, a, b, fmt));
      const double p = fast_round(a, spec) * fast_round(b, spec);
      if (bits_of(fast_round(p, spec)) != bits_of(trunc_mul(a, b, fmt))) ++unguarded_wrong;
    }
    EXPECT_GT(unguarded_wrong, 100) << "the operands no longer reach the hazard at m=" << m;
  }
}

TEST(FastOps, WideExponentFormatsMatchBigFloat) {
  for (std::size_t fi = 0; fi < kWideExpFormats.size(); ++fi) {
    const Format fmt = kWideExpFormats[fi];
    ASSERT_TRUE(fast_round_supports(fmt));
    std::mt19937_64 rng(0xE11 + fi);
    const int lo = fmt.emin_subnormal(), hi = fmt.emax();
    // Operand pairs aimed at double's subnormal range: products and
    // quotients whose exponent lands in [-1080, -1018].
    for (int i = 0; i < 100000; ++i) {
      const int ea = std::clamp(-1080 - lo + static_cast<int>(rng() % 62), lo, hi);
      const int pe = -1080 + static_cast<int>(rng() % 63);  // product exponent
      const double a = format_value(rng, fmt, ea, ea);
      const double b = format_value(rng, fmt, std::clamp(pe - ea, lo, hi),
                                    std::clamp(pe - ea, lo, hi));
      ASSERT_TRUE(Op2Matches(2, a, b, fmt));  // mul
      const double q = format_value(rng, fmt, std::clamp(ea - pe, lo, hi),
                                    std::clamp(ea - pe, lo, hi));
      ASSERT_TRUE(Op2Matches(3, a, q, fmt));  // div
      ASSERT_TRUE(Op2Matches(0, a, b, fmt));
      ASSERT_TRUE(Op2Matches(1, a, b, fmt));
    }
    // Quotients within a few hardware ulps of a target midpoint: b times a
    // midpoint M, rounded into the format, divided by b again.
    for (int i = 0; i < 100000; ++i) {
      const double b = format_value(rng, fmt, -40, 40);
      const int em = std::max(lo - 1, -1060 + static_cast<int>(rng() % 1100));
      const int t = std::max(em - fmt.man_bits, lo);  // target lsb at that magnitude
      const double mid = std::ldexp(2.0 * static_cast<double>(rng() % (u64{1} << 24)) + 1.0,
                                    t - 1);
      if (!std::isfinite(mid * b)) continue;
      const double a = quantize(mid * b, fmt);
      ASSERT_TRUE(Op2Matches(3, a, b, fmt));
      ASSERT_TRUE(Op2Matches(2, mid, b, fmt));
    }
    // Uniform and exponent-targeted operands across the whole range.
    std::uniform_int_distribution<int> exp_dist(lo - 2, hi + 2);
    const auto draw = [&] {
      if ((rng() & 7) == 0) return from_bits(rng());
      const int biased = std::clamp(exp_dist(rng) + 1023, 0, 2046);
      return from_bits(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                       (rng() & ((u64{1} << 52) - 1)));
    };
    for (int i = 0; i < 200000; ++i) {
      const double a = draw(), b = draw();
      ASSERT_TRUE(Op2Matches(static_cast<int>(rng() % 4), a, b, fmt));
      ASSERT_EQ(bits_of(fast_sqrt(a, fmt)), bits_of(trunc_sqrt(a, fmt)))
          << "sqrt fmt " << fmt.to_string() << " a=0x" << std::hex << bits_of(a);
    }
    for (const double a : kSpecialOperands) {
      for (const double b : kSpecialOperands) {
        for (int op = 0; op < 4; ++op) ASSERT_TRUE(Op2Matches(op, a, b, fmt));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// man_bits 25..52: ties broken by the sign of the op's exact error
// ---------------------------------------------------------------------------

/// The BigFloat op-mode reference of a tie_operands op ('n': negation).
double tie_ref(char op, double a, double b, const Format& fmt) {
  switch (op) {
    case '+': return trunc_add(a, b, fmt);
    case '-': return trunc_sub(a, b, fmt);
    case '*': return trunc_mul(a, b, fmt);
    case '/': return trunc_div(a, b, fmt);
    case 'n': return quantize(-quantize(a, fmt), fmt);
    default: return trunc_sqrt(a, fmt);
  }
}

double tie_fast(char op, double a, double b, const RoundSpec& spec) {
  switch (op) {
    case '+': return fast_add(a, b, spec);
    case '-': return fast_sub(a, b, spec);
    case '*': return fast_mul(a, b, spec);
    case '/': return fast_div(a, b, spec);
    case 'n': return fast_neg(a, spec);
    default: return fast_sqrt(a, spec);
  }
}

/// True if the hardware result of `op` lands on a target midpoint and its
/// exact error, not ties-to-even, decides the rounding.
bool tie_decided(char op, double a, double b, const RoundSpec& spec) {
  const double x = fast_round(a, spec), y = fast_round(b, spec);
  double s = 0.0, t = 0.0;
  switch (op) {
    case '+': s = x + y; t = two_sum_err(x, y, s); break;
    case '-': s = x - y; t = two_sum_err(x, -y, s); break;
    case '*': s = x * y; t = std::fma(x, y, -s); break;
    case '/': s = x / y; t = std::signbit(y) ? -std::fma(-s, y, x) : std::fma(-s, y, x); break;
    default: s = std::sqrt(x); t = std::fma(-s, s, x); break;
  }
  if (!std::isfinite(s) || !std::isfinite(t)) return false;
  return bits_of(fast_round(s, t, spec)) != bits_of(fast_round(s, spec));
}

TEST(FastOps, TieBreakingFormatsMatchBigFloat) {
  // Every man_bits > 24 format of exp_bits 5..11, every non-fma op, on
  // operands aimed at target midpoints (sums by construction, products,
  // quotients and roots by modular inversion), at the subnormal range, at
  // the 2^-968 fallback bound and at the overflow threshold, plus random
  // ones: each result bitwise equal to BigFloat.
  int decided[128] = {};
  for (int e = 5; e <= 11; ++e) {
    for (int m = 25; m <= 52; ++m) {
      const Format fmt{e, m};
      ASSERT_TRUE(fast_round_supports(fmt));
      const RoundSpec spec(fmt);
      for (const char op : {'+', '-', '*', '/', 'r', 'n'}) {
        const u64 seed = static_cast<u64>(e * 1000 + m * 10) + static_cast<u64>(op);
        for (const auto& [a, b] :
             testing_support::tie_operands(fmt, op == 'n' ? '+' : op, 1200, seed)) {
          const double fast = tie_fast(op, a, b, spec);
          const double ref = tie_ref(op, a, b, fmt);
          ASSERT_EQ(bits_of(fast), bits_of(ref))
              << "op " << op << " fmt " << fmt.to_string() << " a=0x" << std::hex << bits_of(a)
              << " b=0x" << bits_of(b);
          if (op != 'n' && m >= 27 && tie_decided(op, a, b, spec)) {
            ++decided[static_cast<unsigned char>(op)];
          }
        }
      }
    }
  }
  for (const char op : {'+', '-', '*', '/', 'r'}) {
    EXPECT_GT(decided[static_cast<unsigned char>(op)], 2000)
        << "op " << op << ": the operands no longer reach ties the error decides";
  }
}

TEST(FastOps, TieBreakingFallbackBoundAtExp11) {
  // exp_bits == 11: the error terms are exact down to 2^-968; below it
  // mul/div/sqrt go to BigFloat. Walk products, dividends and radicands
  // through every binade from 2^-990 to 2^-950 and one double ulp around
  // each power of two.
  std::mt19937_64 rng(0x968);
  for (const int m : {25, 30, 40, 51, 52}) {
    const Format fmt{11, m};
    const RoundSpec spec(fmt);
    for (int k = -990; k <= -950; ++k) {
      for (const double v : {std::ldexp(1.0, k), std::nextafter(std::ldexp(1.0, k), 0.0),
                             std::nextafter(std::ldexp(1.0, k), 1.0)}) {
        for (int i = 0; i < 40; ++i) {
          const double b = format_value(rng, fmt, -60, 60);
          const double a = quantize(v / b, fmt);
          const double q = quantize(v, fmt);
          for (const char op : {'*', '/', 'r'}) {
            const double x = op == '*' ? a : op == '/' ? q : std::fabs(q);
            ASSERT_EQ(bits_of(tie_fast(op, x, b, spec)), bits_of(tie_ref(op, x, b, fmt)))
                << "op " << op << " fmt " << fmt.to_string() << " a=0x" << std::hex
                << bits_of(x) << " b=0x" << bits_of(b);
          }
        }
      }
    }
  }
}

TEST(FastOps, FmaRandomSweep) {
  for (std::size_t fi = 0; fi < 7; ++fi) {
    const Format fmt =
        std::vector<Format>{{5, 10}, {8, 7}, {4, 3}, {9, 11}, {8, 12}, {8, 23}, {9, 24}}[fi];
    ASSERT_TRUE(fast_fma_supports(fmt));
    std::mt19937_64 rng(0xFAA0 + fi);
    std::uniform_int_distribution<int> exp_dist(fmt.emin_subnormal() - 2, fmt.emax() + 2);
    const auto draw = [&] {
      if ((rng() & 7) == 0) return from_bits(rng());
      const int biased = std::clamp(exp_dist(rng) + 1023, 0, 2046);
      return from_bits(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                       (rng() & ((u64{1} << 52) - 1)));
    };
    for (int i = 0; i < 300000; ++i) {
      const double a = draw(), b = draw(), c = draw();
      const double fast = fast_fma(a, b, c, fmt);
      const double ref = trunc_fma(a, b, c, fmt);
      ASSERT_EQ(bits_of(fast), bits_of(ref))
          << "fma fmt " << fmt.to_string() << " a=0x" << std::hex << bits_of(a) << " b=0x"
          << bits_of(b) << " c=0x" << bits_of(c);
    }
    for (const double a : kSpecialOperands) {
      for (const double b : kSpecialOperands) {
        const double c = 1.5;
        ASSERT_EQ(bits_of(fast_fma(a, b, c, fmt)), bits_of(trunc_fma(a, b, c, fmt)))
            << std::hex << bits_of(a) << " " << bits_of(b);
      }
    }
  }
}

}  // namespace
}  // namespace raptor::sf
