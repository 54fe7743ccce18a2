// fast_round: a branch-light correctly-rounded (RNE) conversion of an fp64
// value into any Format whose exponent/mantissa envelope fits inside double
// (exp_bits <= 11, man_bits <= 52), using pure integer bit manipulation on
// the IEEE-754 encoding — no BigFloat, no loops, no lookup tables.
//
// Every value of such a format is exactly representable as a double, so the
// rounded result is returned in the double carrying the program's data and
// is bit-identical to the BigFloat reference
//     BigFloat::from_double_rounded(x, fmt).to_double()
// including gradual underflow, signed zero, overflow-to-infinity at the
// format's emax, and NaN canonicalization (the engine collapses every NaN
// payload to the positive quiet std::nan("")). tests/test_fast_round.cpp
// pins this bit-for-bit with exhaustive small-format sweeps and randomized
// large-format sweeps.
//
// On top of the rounding kernel sit fast_add/sub/mul/div/neg/sqrt/fma: the
// op-mode operation (round operands into fmt, operate correctly rounded in
// fmt, widen back) executed as one double-precision hardware operation
// followed by fast_round. Every format fast_round accepts has a fast
// add/sub/mul/div/neg/sqrt (DESIGN.md §8 carries the per-op argument):
//
//   * man_bits <= 24: rounding twice — once to double's 53 bits, once to
//     the target precision p — is *innocuous*, bit-identical to a single
//     rounding (Figueroa 1995: p <= 25 through a 53-bit intermediate).
//   * man_bits > 24: each op keeps its double result s and recovers the
//     sign of the exact error t = r - s with an error-free transform —
//     TwoSum for add/sub, an fma TwoProd for mul, the remainders
//     fma(-q, b, a) and fma(-s, s, a) for div and sqrt. Every target
//     midpoint is a double (p <= 52) or the target grid is double's own
//     (p = 53), so s lands on a midpoint only where r sits within half a
//     hardware ulp of it, and the sign of t then says which way r lies:
//     fast_round(s, t, spec) breaks exactly those ties by t.
//
// Below 2^-1022 the hardware rounds at reduced precision, so results in
// double's subnormal range need their own argument:
//   * add/sub: a sum that lands there is exact (Hauser 1996), so t = 0;
//   * exp_bits <= 10: every result below 2^-1022 rounds to +-0 anyway
//     (the smallest e10 subnormal is at least 2^-562);
//   * man_bits <= 24, exp_bits == 11: sqrt never lands there (every
//     positive operand is at least 2^-1046); a quotient of p <= 25-bit
//     operands is either a target midpoint exactly or more than 2^-1073
//     away from every one, i.e. more than half a hardware ulp; a product
//     of two p-bit significands has up to 2p bits and can be
//     double-rounded onto a target midpoint, so fast_mul (and the SIMD
//     Mul lanes) send a product whose hardware value is a nonzero double
//     subnormal to BigFloat;
//   * man_bits > 24, exp_bits == 11: the fma error terms are exact only
//     while they do not underflow, which holds for a product or quotient
//     of magnitude >= 2^-968 and a square root of a radicand >= 2^-968.
//     fast_mul sends a nonzero product below 2^-968, fast_div and
//     fast_sqrt a nonzero dividend or radicand below 2^-968, to BigFloat.
// fma keeps the narrower exp_bits <= 9, man_bits <= 24 envelope. Anything
// outside these envelopes must take the BigFloat path; computing through
// fp32 hardware instead double-rounds for every format narrower than fp32
// with man_bits > 11 (DESIGN.md §8 shows a witness pair) and is never
// correct here.
#pragma once

#include <bit>
#include <cmath>

#include "softfloat/bigfloat.hpp"
#include "softfloat/format.hpp"

namespace raptor::sf {

/// True if fast_round and fast_add/sub/mul/div/neg/sqrt handle this format
/// bit-identically to the BigFloat reference: all its values, including
/// subnormals, are exactly representable in double (see the header comment
/// for the per-op argument).
[[nodiscard]] constexpr bool fast_round_supports(const Format& fmt) {
  return fmt.valid() && fmt.exp_bits <= 11 && fmt.man_bits <= 52;
}

/// True if fast_fma is bit-identical to the BigFloat reference. The product
/// of two format values is exact in double (2p <= 50 bits) and the final
/// addition recovers its exact error with TwoSum, rounding the 53-bit
/// intermediate to odd before the final RNE. (A single hardware fma is NOT
/// enough at any precision: when the addend sits more than 53 binades below
/// the product it is discarded entirely, yet it must still break the target
/// format's ties.)
[[nodiscard]] constexpr bool fast_fma_supports(const Format& fmt) {
  return fmt.valid() && fmt.exp_bits <= 9 && fmt.man_bits <= 24;
}

/// Magnitude below which the man_bits > 24 kernels cannot trust their fma
/// error terms at exp_bits == 11 (a product or quotient this small, or the
/// square root of a radicand this small, may have an error below 2^-1074).
inline constexpr double kTinyErrorBound = 0x1p-968;

/// Format constants pre-derived for the hot loops: batch dispatch hoists
/// this out of the per-element kernel so exponent arithmetic on Format
/// fields is not redone per call.
struct RoundSpec {
  int exp_bits;
  int man_bits;
  i64 emax;
  i64 emin_sub;
  /// man_bits > 24: double rounding is no longer innocuous, so the ops
  /// recover the sign of their exact error and break target ties with it.
  bool tie_break;
  /// The format's subnormals lie below 2^-1022 (exp_bits == 11), so a
  /// result near double's underflow may be misrounded; fast_mul/div/sqrt
  /// recompute those in BigFloat (man_bits <= 24: a nonzero double
  /// subnormal product; man_bits > 24: see tiny_operand).
  bool guard_tiny;
  constexpr explicit RoundSpec(const Format& f)
      : exp_bits(f.exp_bits),
        man_bits(f.man_bits),
        emax(f.emax()),
        emin_sub(f.emin_subnormal()),
        tie_break(f.man_bits > 24),
        guard_tiny(f.emin_subnormal() < -1022) {}
  [[nodiscard]] constexpr Format format() const { return {exp_bits, man_bits}; }
};

/// True if `p` is a nonzero double subnormal (the man_bits <= 24 fast_mul
/// hazard).
[[nodiscard]] inline bool double_subnormal(double p) {
  return std::fabs(p) < 0x1p-1022 && p != 0.0;
}

/// True if `v` is nonzero and below kTinyErrorBound in magnitude: the
/// man_bits > 24 product, dividend or radicand whose error term may not be
/// exact.
[[nodiscard]] inline bool tiny_operand(double v) {
  return std::fabs(v) < kTinyErrorBound && v != 0.0;
}

/// Round the exact value of an operation into the format described by
/// `spec` (RNE) and widen back to double, given its hardware result `x` and
/// the error `t` of that result (t = 0: x is exact; otherwise only t's sign
/// is read, and it breaks the ties x lands on: a target midpoint x rounds
/// away from zero when t has x's sign, toward zero when not). Bit-identical
/// to BigFloat for every format fast_round_supports() accepts.
[[nodiscard]] inline double fast_round(double x, double t, const RoundSpec& spec) {
  constexpr u64 kSign = u64{1} << 63;
  constexpr u64 kFrac = (u64{1} << 52) - 1;
  constexpr u64 kInf = u64{0x7FF} << 52;

  const u64 bits = std::bit_cast<u64>(x);
  const u64 sign = bits & kSign;
  const int ef = static_cast<int>((bits >> 52) & 0x7FF);
  const u64 frac = bits & kFrac;
  if (ef == 0x7FF) {
    // Infinity passes through; every NaN payload canonicalizes to the
    // engine's quiet NaN, exactly as BigFloat::nan().to_double() does.
    return frac != 0 ? std::nan("") : x;
  }
  if ((bits & ~kSign) == 0) return x;  // +-0 keeps its sign

  // Decompose into value = m * 2^q with m in [1, 2^53), and the unbiased
  // exponent e_msb of the leading significand bit.
  u64 m;
  i64 q;
  int e_msb;
  if (ef != 0) {
    m = (u64{1} << 52) | frac;
    q = ef - 1075;
    e_msb = ef - 1023;
  } else {
    m = frac;
    q = -1074;
    e_msb = -1011 - std::countl_zero(frac);
  }

  // Weight of the target format's least significand bit at this magnitude:
  // man_bits below the MSB for normals, pinned at emin_subnormal in the
  // gradual-underflow range.
  const i64 lsb = std::max<i64>(i64{e_msb} - spec.man_bits, spec.emin_sub);
  const i64 drop = lsb - q;
  if (drop <= 0) {
    // Already exact at this precision; only the exponent range can reject.
    if (e_msb > spec.emax) return std::bit_cast<double>(sign | kInf);
    return x;
  }
  if (drop > 63) {
    // m < 2^53 puts the value strictly below half the smallest subnormal.
    return std::bit_cast<double>(sign);
  }

  // Exact early-out: operands flowing through the op pipelines are usually
  // already format values, whose dropped bits are all zero.
  const u64 half = u64{1} << (drop - 1);
  const u64 dropped = m & ((half << 1) - 1);
  if (dropped == 0) {
    if (e_msb > spec.emax) return std::bit_cast<double>(sign | kInf);
    return x;
  }
  // Round to nearest on the integer significand; a tie goes to even when x
  // is exact, else to the side of x the exact value lies on.
  const u64 kept0 = m >> drop;
  const u64 below = m & (half - 1);
  const bool tie_up = t != 0.0 ? std::signbit(t) == (sign != 0) : (kept0 & 1) != 0;
  const u64 round_up = static_cast<u64>((m & half) != 0 && (below != 0 || tie_up));
  const u64 kept = kept0 + round_up;
  if (kept == 0) return std::bit_cast<double>(sign);  // underflow to zero

  const int nm = 63 - std::countl_zero(kept);  // MSB position of the result
  const i64 e2 = lsb + nm;
  if (e2 > spec.emax) return std::bit_cast<double>(sign | kInf);
  if (e2 >= -1022) {
    const u64 out =
        sign | (static_cast<u64>(e2 + 1023) << 52) | ((kept << (52 - nm)) & kFrac);
    return std::bit_cast<double>(out);
  }
  // Result is a double subnormal (only reachable when fmt.exp_bits == 11 and
  // man_bits < 52): the mantissa field is kept scaled to 2^-1074 units.
  return std::bit_cast<double>(sign | (kept << (lsb + 1074)));
}

/// Round `x` into the format described by `spec` (RNE) and widen back to
/// double. Bit-identical to sf::quantize for every format
/// fast_round_supports() accepts.
[[nodiscard]] inline double fast_round(double x, const RoundSpec& spec) {
  return fast_round(x, 0.0, spec);
}

[[nodiscard]] inline double fast_round(double x, const Format& fmt) {
  return fast_round(x, RoundSpec(fmt));
}

// ---------------------------------------------------------------------------
// Fast op-mode operations (round operands -> one hardware op -> fast_round).
// Callers must gate on fast_round_supports / fast_fma_supports; inside those
// envelopes each function is bit-identical to the trunc_* BigFloat reference.
// ---------------------------------------------------------------------------

/// The exact error of the hardware sum s = a + b (Knuth's TwoSum: no
/// magnitude ordering needed; exact also when s is a double subnormal).
[[nodiscard]] inline double two_sum_err(double a, double b, double s) {
  const double bv = s - a;
  const double av = s - bv;
  return (a - av) + (b - bv);
}

[[nodiscard]] inline double fast_add(double a, double b, const RoundSpec& fmt) {
  const double x = fast_round(a, fmt), y = fast_round(b, fmt);
  const double s = x + y;
  if (!fmt.tie_break) return fast_round(s, fmt);
  return fast_round(s, two_sum_err(x, y, s), fmt);
}
[[nodiscard]] inline double fast_sub(double a, double b, const RoundSpec& fmt) {
  const double x = fast_round(a, fmt), y = fast_round(b, fmt);
  const double s = x - y;
  if (!fmt.tie_break) return fast_round(s, fmt);
  return fast_round(s, two_sum_err(x, -y, s), fmt);
}
[[nodiscard]] inline double fast_mul(double a, double b, const RoundSpec& fmt) {
  const double x = fast_round(a, fmt), y = fast_round(b, fmt);
  const double p = x * y;
  if (!fmt.tie_break) {
    if (fmt.guard_tiny && double_subnormal(p)) [[unlikely]] {
      return trunc_mul(a, b, fmt.format());
    }
    return fast_round(p, fmt);
  }
  if (fmt.guard_tiny && tiny_operand(p)) [[unlikely]] {
    return trunc_mul(a, b, fmt.format());
  }
  return fast_round(p, std::fma(x, y, -p), fmt);  // TwoProd: x * y - p exactly
}
[[nodiscard]] inline double fast_div(double a, double b, const RoundSpec& fmt) {
  const double x = fast_round(a, fmt), y = fast_round(b, fmt);
  const double q = x / y;
  if (!fmt.tie_break) return fast_round(q, fmt);
  if (fmt.guard_tiny && tiny_operand(x)) [[unlikely]] {
    return trunc_div(a, b, fmt.format());
  }
  // x - q * y is exact; x / y - q has its sign times the sign of y.
  const double rem = std::fma(-q, y, x);
  return fast_round(q, std::signbit(y) ? -rem : rem, fmt);
}
[[nodiscard]] inline double fast_neg(double a, const RoundSpec& fmt) {
  // Negation is exact; the outer fast_round only canonicalizes -NaN.
  return fast_round(-fast_round(a, fmt), fmt);
}
[[nodiscard]] inline double fast_sqrt(double a, const RoundSpec& fmt) {
  const double x = fast_round(a, fmt);
  const double s = std::sqrt(x);
  if (!fmt.tie_break) return fast_round(s, fmt);
  if (fmt.guard_tiny && tiny_operand(x)) [[unlikely]] {
    return trunc_sqrt(a, fmt.format());
  }
  // x - s * s is exact and has the sign of sqrt(x) - s.
  return fast_round(s, std::fma(-s, s, x), fmt);
}
[[nodiscard]] inline double fast_add(double a, double b, const Format& f) {
  return fast_add(a, b, RoundSpec(f));
}
[[nodiscard]] inline double fast_sub(double a, double b, const Format& f) {
  return fast_sub(a, b, RoundSpec(f));
}
[[nodiscard]] inline double fast_mul(double a, double b, const Format& f) {
  return fast_mul(a, b, RoundSpec(f));
}
[[nodiscard]] inline double fast_div(double a, double b, const Format& f) {
  return fast_div(a, b, RoundSpec(f));
}
[[nodiscard]] inline double fast_neg(double a, const Format& f) { return fast_neg(a, RoundSpec(f)); }
[[nodiscard]] inline double fast_sqrt(double a, const Format& f) {
  return fast_sqrt(a, RoundSpec(f));
}
[[nodiscard]] inline double fast_fma(double a, double b, double c, const RoundSpec& fmt) {
  const double af = fast_round(a, fmt);
  const double bf = fast_round(b, fmt);
  const double cf = fast_round(c, fmt);
  // Exact: two (man_bits+1)-bit significands need at most 50 bits, and
  // exp_bits <= 9 keeps the product exponent within double's normal range.
  const double p = af * bf;
  double s = p + cf;
  if (std::isfinite(s)) {
    // The exact error of the 53-bit addition (no overflow possible in this
    // envelope).
    const double e = two_sum_err(p, cf, s);
    if (e != 0.0 && (std::bit_cast<u64>(s) & 1) == 0) {
      // Round the 53-bit intermediate to odd: the final RNE into p <= 25
      // bits then matches a single rounding of the exact sum (Boldo &
      // Melquiond). |e| <= ulp(s)/2, so the odd neighbor in e's direction
      // is one step away.
      s = std::nextafter(s, e > 0.0 ? HUGE_VAL : -HUGE_VAL);
    }
  }
  return fast_round(s, fmt);
}
[[nodiscard]] inline double fast_fma(double a, double b, double c, const Format& f) {
  return fast_fma(a, b, c, RoundSpec(f));
}

}  // namespace raptor::sf
