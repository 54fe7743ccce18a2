#include "softfloat/bigfloat.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace raptor::sf {

namespace {

constexpr u64 kTopBit = u64{1} << 63;
constexpr u64 kDblFracMask = (u64{1} << 52) - 1;

}  // namespace

BigFloat BigFloat::make_finite(bool neg, i64 exp, u64 sig) {
  RAPTOR_ASSERT(sig & kTopBit);
  BigFloat r;
  r.kind_ = Kind::Finite;
  r.neg_ = neg;
  r.exp_ = static_cast<i32>(exp);
  r.sig_ = sig;
  return r;
}

BigFloat BigFloat::zero(bool neg) {
  BigFloat r;
  r.kind_ = Kind::Zero;
  r.neg_ = neg;
  return r;
}

BigFloat BigFloat::inf(bool neg) {
  BigFloat r;
  r.kind_ = Kind::Inf;
  r.neg_ = neg;
  return r;
}

BigFloat BigFloat::nan() {
  BigFloat r;
  r.kind_ = Kind::NaN;
  return r;
}

BigFloat BigFloat::from_int(i64 v) {
  if (v == 0) return zero();
  const bool neg = v < 0;
  const u64 mag = neg ? (~static_cast<u64>(v) + 1) : static_cast<u64>(v);
  const int k = __builtin_clzll(mag);
  return make_finite(neg, 63 - k, mag << k);
}

BigFloat BigFloat::from_double(double d) {
  u64 bits;
  std::memcpy(&bits, &d, sizeof bits);
  const bool neg = (bits >> 63) != 0;
  const int expfield = static_cast<int>((bits >> 52) & 0x7FF);
  const u64 frac = bits & kDblFracMask;
  if (expfield == 0x7FF) return frac != 0 ? nan() : inf(neg);
  if (expfield == 0) {
    if (frac == 0) return zero(neg);
    const int k = __builtin_clzll(frac);
    // Subnormal double: value = frac * 2^-1074; MSB of frac sits at bit 63-k.
    return make_finite(neg, -1011 - k, frac << k);
  }
  return make_finite(neg, expfield - 1023, kTopBit | (frac << 11));
}

BigFloat BigFloat::from_double_rounded(double d, const Format& fmt) {
  return from_double(d).round_to(fmt);
}

double BigFloat::to_double() const {
  switch (kind_) {
    case Kind::Zero: return neg_ ? -0.0 : 0.0;
    case Kind::Inf: return neg_ ? -HUGE_VAL : HUGE_VAL;
    case Kind::NaN: return std::nan("");
    case Kind::Finite: break;
  }
  const BigFloat r = round_to(Format::fp64());
  if (r.kind_ == Kind::Zero) return r.neg_ ? -0.0 : 0.0;
  if (r.kind_ == Kind::Inf) return r.neg_ ? -HUGE_VAL : HUGE_VAL;
  u64 bits = r.neg_ ? kTopBit : 0;
  if (r.exp_ >= -1022) {
    bits |= static_cast<u64>(r.exp_ + 1023) << 52;
    bits |= (r.sig_ >> 11) & kDblFracMask;
  } else {
    // Subnormal double: mantissa field = value / 2^-1074.
    const int shift = 11 + (-1022 - r.exp_);
    RAPTOR_ASSERT(shift < 64);
    bits |= r.sig_ >> shift;
  }
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

int BigFloat::compare(const BigFloat& o) const {
  if (is_nan() || o.is_nan()) return 2;
  const bool az = is_zero(), bz = o.is_zero();
  if (az && bz) return 0;
  if (az) return o.neg_ ? 1 : -1;
  if (bz) return neg_ ? -1 : 1;
  if (neg_ != o.neg_) return neg_ ? -1 : 1;
  const int sign = neg_ ? -1 : 1;
  if (is_inf() || o.is_inf()) {
    if (is_inf() && o.is_inf()) return 0;
    return is_inf() ? sign : -sign;
  }
  if (exp_ != o.exp_) return exp_ < o.exp_ ? -sign : sign;
  if (sig_ != o.sig_) return sig_ < o.sig_ ? -sign : sign;
  return 0;
}

BigFloat BigFloat::negated() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.neg_ = !r.neg_;
  return r;
}

BigFloat BigFloat::abs() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.neg_ = false;
  return r;
}

BigFloat BigFloat::scaled(i64 delta_exp) const {
  if (kind_ != Kind::Finite) return *this;
  BigFloat r = *this;
  r.exp_ = static_cast<i32>(i64{exp_} + delta_exp);
  return r;
}

std::string BigFloat::to_string() const {
  char buf[64];
  switch (kind_) {
    case Kind::Zero: return neg_ ? "-0" : "0";
    case Kind::Inf: return neg_ ? "-inf" : "inf";
    case Kind::NaN: return "nan";
    case Kind::Finite:
      std::snprintf(buf, sizeof buf, "%.17g", to_double());
      return buf;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Rounding core
// ---------------------------------------------------------------------------

BigFloat BigFloat::round_window(bool neg, i64 e, u128 sig, bool sticky, const Format& fmt) {
  RAPTOR_ASSERT(fmt.valid());
  if (sig == 0) {
    // Callers never produce a pure-sticky window (see bigfloat.hpp notes).
    RAPTOR_ASSERT(!sticky);
    return zero(neg);
  }
  // Normalize: MSB to bit 127 (e tracks the weight of bit 127).
  const int k = clz128(sig);
  sig <<= k;
  i64 msb_exp = e - k;

  // Available precision: full for normals, reduced below emin (gradual
  // underflow), zero/negative when the value is below the subnormal range.
  int prec = fmt.precision();
  if (msb_exp < fmt.emin()) {
    prec -= static_cast<int>(fmt.emin() - msb_exp);
    if (prec < 1) {
      if (prec == 0) {
        // Value in [s/2, s) where s is the smallest subnormal. Ties-to-even
        // sends exactly s/2 to zero, everything else up to s.
        const bool exactly_half = (sig == (u128{1} << 127)) && !sticky;
        if (exactly_half) return zero(neg);
        return make_finite(neg, fmt.emin_subnormal(), kTopBit);
      }
      return zero(neg);
    }
  }

  const int drop = 128 - prec;  // >= 66 given prec <= 62
  u128 kept = sig >> drop;
  const u128 guard_bit = u128{1} << (drop - 1);
  const bool guard = (sig & guard_bit) != 0;
  const bool rest = sticky || ((sig & (guard_bit - 1)) != 0);
  if (guard && (rest || (kept & 1) != 0)) {
    kept += 1;
    if ((kept >> prec) != 0) {
      kept >>= 1;
      msb_exp += 1;
      // Rounding up may promote a subnormal to the smallest normal, which is
      // exactly representable at the (higher) normal precision: no re-round
      // needed because kept is a power of two here.
    }
  }
  if (msb_exp > fmt.emax()) return inf(neg);
  return make_finite(neg, msb_exp, static_cast<u64>(kept << (64 - prec)));
}

BigFloat BigFloat::round_window192(bool neg, i64 e, U192 sig, bool sticky, const Format& fmt) {
  if (sig.is_zero()) {
    RAPTOR_ASSERT(!sticky);
    return zero(neg);
  }
  const int k = sig.clz();
  sig.shift_left(k);
  e -= k;
  const bool low = sig.w0 != 0;
  // Bit 191 now set; hand the top 128 bits to the 128-bit core. e becomes
  // the weight of bit 127 of that window (= bit 191 here).
  return round_window(neg, e, sig.hi128(), sticky || low, fmt);
}

BigFloat BigFloat::round_to(const Format& fmt) const {
  switch (kind_) {
    case Kind::Zero: return zero(neg_);
    case Kind::Inf: return inf(neg_);
    case Kind::NaN: return nan();
    case Kind::Finite: break;
  }
  return round_window(neg_, exp_, u128{sig_} << 64, false, fmt);
}

bool BigFloat::representable_in(const Format& fmt) const {
  if (!is_finite()) return true;
  const BigFloat r = round_to(fmt);
  return r.kind_ == kind_ && r.neg_ == neg_ &&
         (kind_ != Kind::Finite || (r.exp_ == exp_ && r.sig_ == sig_));
}

// ---------------------------------------------------------------------------
// Addition / subtraction
// ---------------------------------------------------------------------------

namespace {

/// Magnitude-ordered finite addition core. |x| >= |y| must hold.
BigFloat add_magnitudes(const BigFloat& x, const BigFloat& y, bool same_sign, bool result_neg,
                        const Format& fmt) {
  const i64 e = x.exponent();
  const int shift = static_cast<int>(e - y.exponent());
  u128 xs = u128{x.significand()} << 64;
  u128 ys;
  bool sticky = false;
  if (shift <= 64) {
    ys = u128{y.significand()} << (64 - shift);
  } else if (shift < 128) {
    const int drop = shift - 64;
    ys = u128{y.significand()} >> drop;
    sticky = (y.significand() & ((u64{1} << drop) - 1)) != 0;
  } else {
    ys = 0;
    sticky = y.significand() != 0;
  }
  if (same_sign) {
    u128 sum = xs + ys;
    i64 ew = e;
    if (sum < xs) {  // carry out of bit 127
      sticky = sticky || (sum & 1) != 0;
      sum = (sum >> 1) | (u128{1} << 127);
      ew += 1;
    }
    return BigFloat::round_window(result_neg, ew, sum, sticky, fmt);
  }
  // Subtraction: |x| > |y| strictly here (equality handled by caller).
  u128 diff = xs - ys;
  if (sticky) {
    // y was slightly larger than its shifted image; borrow one window ulp
    // and keep the fraction as stickiness. diff >= 2^63 whenever sticky
    // (shift > 64), so no underflow.
    RAPTOR_ASSERT(diff != 0);
    diff -= 1;
  }
  return BigFloat::round_window(result_neg, e, diff, sticky, fmt);
}

}  // namespace

BigFloat BigFloat::add(const BigFloat& a, const BigFloat& b, const Format& fmt) {
  if (a.is_nan() || b.is_nan()) return nan();
  if (a.is_inf()) {
    if (b.is_inf() && a.neg_ != b.neg_) return nan();
    return inf(a.neg_);
  }
  if (b.is_inf()) return inf(b.neg_);
  if (a.is_zero() && b.is_zero()) return zero(a.neg_ && b.neg_);
  if (a.is_zero()) return b.round_to(fmt);
  if (b.is_zero()) return a.round_to(fmt);

  // Order by magnitude.
  const bool a_big = (a.exp_ > b.exp_) || (a.exp_ == b.exp_ && a.sig_ >= b.sig_);
  const BigFloat& x = a_big ? a : b;
  const BigFloat& y = a_big ? b : a;
  const bool same_sign = a.neg_ == b.neg_;
  if (!same_sign && x.exp_ == y.exp_ && x.sig_ == y.sig_) return zero(false);
  return add_magnitudes(x, y, same_sign, x.neg_, fmt);
}

BigFloat BigFloat::sub(const BigFloat& a, const BigFloat& b, const Format& fmt) {
  return add(a, b.negated(), fmt);
}

// ---------------------------------------------------------------------------
// Multiplication / division / sqrt / fma
// ---------------------------------------------------------------------------

BigFloat BigFloat::mul(const BigFloat& a, const BigFloat& b, const Format& fmt) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool neg = a.neg_ != b.neg_;
  if (a.is_inf() || b.is_inf()) {
    if (a.is_zero() || b.is_zero()) return nan();
    return inf(neg);
  }
  if (a.is_zero() || b.is_zero()) return zero(neg);
  const u128 prod = u128{a.sig_} * b.sig_;  // in [2^126, 2^128)
  return round_window(neg, i64{a.exp_} + b.exp_ + 1, prod, false, fmt);
}

BigFloat BigFloat::div(const BigFloat& a, const BigFloat& b, const Format& fmt) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool neg = a.neg_ != b.neg_;
  if (a.is_inf()) return b.is_inf() ? nan() : inf(neg);
  if (b.is_inf()) return zero(neg);
  if (b.is_zero()) return a.is_zero() ? nan() : inf(neg);
  if (a.is_zero()) return zero(neg);
  const u128 num = u128{a.sig_} << 63;
  const u64 q = static_cast<u64>(num / b.sig_);  // in (2^62, 2^64)
  const u128 rem = num % b.sig_;
  return round_window(neg, i64{a.exp_} - b.exp_ + 64, u128{q}, rem != 0, fmt);
}

namespace {

/// Floor integer square root of a u128.
u64 isqrt128(u128 x) {
  if (x == 0) return 0;
  // Seed from hardware double sqrt, then correct exactly.
  double approx = std::sqrt(static_cast<double>(static_cast<u64>(x >> 64)) * 0x1.0p64 +
                            static_cast<double>(static_cast<u64>(x)));
  u64 g = approx >= 0x1.0p64 ? ~u64{0} : static_cast<u64>(approx);
  // A couple of Newton steps in integer arithmetic. The quotient saturates:
  // a seed just below a root near 2^64 (an all-ones 53-bit significand,
  // e.g. DBL_MAX) makes x / g reach 2^64.
  for (int i = 0; i < 4; ++i) {
    if (g == 0) break;
    const u128 q128 = x / g;
    const u64 q = q128 > ~u64{0} ? ~u64{0} : static_cast<u64>(q128);
    g = g / 2 + q / 2 + (g & q & 1);
  }
  while (g != 0 && u128{g} * g > x) --g;
  while (u128{g + 1} * (g + 1) <= x && g + 1 != 0) ++g;
  return g;
}

}  // namespace

BigFloat BigFloat::sqrt(const BigFloat& a, const Format& fmt) {
  if (a.is_nan()) return nan();
  if (a.is_zero()) return zero(a.neg_);
  if (a.neg_) return nan();
  if (a.is_inf()) return inf(false);
  const i64 t = i64{a.exp_} - 63;  // value = sig * 2^t
  u128 x;
  i64 e2;
  if ((t & 1) != 0) {
    x = u128{a.sig_} << 63;
    e2 = t - 63;
  } else {
    x = u128{a.sig_} << 64;
    e2 = t - 64;
  }
  RAPTOR_ASSERT((e2 & 1) == 0);
  const u64 r = isqrt128(x);
  const bool inexact = u128{r} * r != x;
  return round_window(false, e2 / 2 + 127, u128{r}, inexact, fmt);
}

BigFloat BigFloat::fma(const BigFloat& a, const BigFloat& b, const BigFloat& c,
                       const Format& fmt) {
  if (a.is_nan() || b.is_nan() || c.is_nan()) return nan();
  if ((a.is_inf() && b.is_zero()) || (a.is_zero() && b.is_inf())) return nan();
  const bool pneg = a.neg_ != b.neg_;
  if (a.is_inf() || b.is_inf()) {
    if (c.is_inf() && c.neg_ != pneg) return nan();
    return inf(pneg);
  }
  if (c.is_inf()) return inf(c.neg_);
  if (a.is_zero() || b.is_zero()) return add(zero(pneg), c, fmt);
  if (c.is_zero()) return mul(a, b, fmt);

  // Exact product in a 192-bit window: bits 191..64, weight of bit 191 = 2^pe.
  const u128 prod = u128{a.sig_} * b.sig_;
  U192 p{0, static_cast<u64>(prod), static_cast<u64>(prod >> 64)};
  i64 pe = i64{a.exp_} + b.exp_ + 1;
  // Addend in the same convention: MSB at bit 191, weight 2^ce.
  U192 cc{0, 0, c.sig_};
  i64 ce = c.exp_;

  // Align to the higher exponent, then pre-shift one bit to make room for a
  // carry (the dropped bit lands far below the rounding guard position).
  bool sticky = false;
  i64 eh = pe >= ce ? pe : ce;
  sticky = p.shift_right_sticky(static_cast<int>(eh - pe) + 1) || sticky;
  sticky = cc.shift_right_sticky(static_cast<int>(eh - ce) + 1) || sticky;
  eh += 1;

  if (pneg == c.neg_) {
    U192 sum = p;
    sum.add(cc);
    return round_window192(pneg, eh, sum, sticky, fmt);
  }
  const int cmp = p.compare(cc);
  if (cmp == 0 && !sticky) return zero(false);
  const bool rneg = cmp >= 0 ? pneg : c.neg_;
  U192 big = cmp >= 0 ? p : cc;
  const U192& small = cmp >= 0 ? cc : p;
  big.sub(small);
  if (sticky) {
    // As in add_magnitudes: stickiness always belongs to the smaller, shifted
    // operand, so borrow one window ulp and keep the fraction sticky.
    RAPTOR_ASSERT(!big.is_zero());
    const U192 one{1, 0, 0};
    big.sub(one);
  }
  return round_window192(rneg, eh, big, sticky, fmt);
}

// ---------------------------------------------------------------------------
// Double-in/double-out op-mode layer
// ---------------------------------------------------------------------------

double quantize(double x, const Format& fmt) {
  return BigFloat::from_double_rounded(x, fmt).to_double();
}

double trunc_add(double a, double b, const Format& fmt) {
  return BigFloat::add(BigFloat::from_double_rounded(a, fmt),
                       BigFloat::from_double_rounded(b, fmt), fmt)
      .to_double();
}

double trunc_sub(double a, double b, const Format& fmt) {
  return BigFloat::sub(BigFloat::from_double_rounded(a, fmt),
                       BigFloat::from_double_rounded(b, fmt), fmt)
      .to_double();
}

double trunc_mul(double a, double b, const Format& fmt) {
  return BigFloat::mul(BigFloat::from_double_rounded(a, fmt),
                       BigFloat::from_double_rounded(b, fmt), fmt)
      .to_double();
}

double trunc_div(double a, double b, const Format& fmt) {
  return BigFloat::div(BigFloat::from_double_rounded(a, fmt),
                       BigFloat::from_double_rounded(b, fmt), fmt)
      .to_double();
}

double trunc_sqrt(double a, const Format& fmt) {
  return BigFloat::sqrt(BigFloat::from_double_rounded(a, fmt), fmt).to_double();
}

double trunc_fma(double a, double b, double c, const Format& fmt) {
  return BigFloat::fma(BigFloat::from_double_rounded(a, fmt),
                       BigFloat::from_double_rounded(b, fmt),
                       BigFloat::from_double_rounded(c, fmt), fmt)
      .to_double();
}

}  // namespace raptor::sf
