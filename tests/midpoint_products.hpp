// Operands aimed at a format's rounding midpoints, for the differential
// suites of the fast kernels (test_fast_round, test_simd_parity).
//
//  * midpoint_products: the exp_bits == 11 product hazard of the
//    man_bits <= 24 kernels. Format{11, m} values whose exact product lies a
//    quarter of a double ulp from a target rounding midpoint below 2^-1022.
//    The hardware product rounds onto the midpoint itself, so a kernel
//    without the subnormal-product guard ties to even and is wrong for about
//    half of them. Only m >= 18 admits such pairs: with fewer significand
//    bits the product never reaches both the midpoint bit and the bits below
//    double's subnormal grid.
//  * tie_operands: the man_bits > 24 kernels, which break the ties their
//    hardware result lands on by the sign of its exact error. Operand pairs
//    whose exact sum, product, quotient or square root lies on a target
//    midpoint or a few units of its last bit (or one double ulp) away from
//    one, in the normal and the subnormal range, around the 2^-968 bound
//    below which the exp_bits == 11 kernels fall back to BigFloat, and
//    around the overflow threshold — mixed with random operands.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "softfloat/format.hpp"

namespace raptor::testing_support {

namespace detail {

/// a^-1 mod 2^64 for odd a (Newton iteration).
inline u64 inverse_odd(u64 a) {
  u64 inv = a;
  for (int i = 0; i < 6; ++i) inv *= 2 - a * inv;
  return inv;
}

}  // namespace detail

inline std::vector<std::pair<double, double>> midpoint_products(const sf::Format& fmt,
                                                                std::size_t count, u64 seed) {
  // In units of 2^-1076 the midpoints are odd multiples of 2^mid, and an
  // exact product A * B * 2^-1076 with A * B == 2^mid +- 1 (mod 2^(mid+1))
  // sits one unit (a quarter of the hardware ulp 2^-1074) away from one.
  const int p = fmt.man_bits + 1;
  const int mid = 53 - fmt.man_bits;
  const u64 mod_mask = (u64{1} << (mid + 1)) - 1;
  std::mt19937_64 rng(seed);
  std::vector<std::pair<double, double>> out;
  while (out.size() < count) {
    const u64 a = ((rng() | 1) & ((u64{1} << p) - 1)) | (u64{1} << (p - 1));
    const u64 target = (u64{1} << mid) + ((rng() & 1) != 0 ? 1 : mod_mask);
    const u64 b = (detail::inverse_odd(a) * target) & mod_mask;
    if (b < (u64{1} << (p - 1)) || b >= (u64{1} << p)) continue;
    const int ea = -600 + static_cast<int>(rng() % 200);
    const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
    out.emplace_back(sign * std::ldexp(static_cast<double>(a), ea),
                     std::ldexp(static_cast<double>(b), -1076 - ea));
  }
  return out;
}

namespace detail {

using u128 = unsigned __int128;

inline u64 low_bits(int n) { return n >= 64 ? ~u64{0} : (u64{1} << n) - 1; }

/// Weight of the format's last significand bit at a value whose leading
/// bit weighs 2^e.
inline int lsb_at(const sf::Format& fmt, int e) {
  return std::max(e - fmt.man_bits, fmt.emin_subnormal());
}

/// A random value of `fmt` with leading bit 2^e (clamped into the format's
/// range) and a random sign.
inline double format_value(std::mt19937_64& rng, const sf::Format& fmt, int e) {
  e = std::clamp(e, fmt.emin_subnormal(), fmt.emax());
  const int lsb = lsb_at(fmt, e);
  const int bits = e - lsb + 1;
  const u64 sig = (rng() & low_bits(bits - 1)) | (u64{1} << (bits - 1));
  const double v = std::ldexp(static_cast<double>(sig), lsb);
  return (rng() & 1) != 0 ? -v : v;
}

/// A small offset in units of the last bit: 0, +-1, +-2, or +-3.
inline i64 small_offset(std::mt19937_64& rng) {
  const i64 d = static_cast<i64>(rng() % 4);
  return (rng() & 1) != 0 ? -d : d;
}

/// Sum operands: x a format value at leading bit 2^e, and b = 2^(L-1) + d
/// with L the last bit of x, so x + b = M + d for the midpoint M next to x;
/// d is a few units of b's last bit or one double ulp of M. Requires b's
/// bits to exist in the format.
inline bool midpoint_sum(std::mt19937_64& rng, const sf::Format& fmt, int e,
                         std::pair<double, double>& out) {
  const int m = fmt.man_bits;
  const double x = std::fabs(format_value(rng, fmt, e));
  const int ex = std::ilogb(x);
  const int l = lsb_at(fmt, ex);
  if (l - 2 - m < fmt.emin_subnormal()) return false;
  double d = 0.0;
  switch (rng() % 3) {
    case 0: d = std::ldexp(static_cast<double>(small_offset(rng)), l - 1 - m); break;
    case 1: d = (rng() & 1) != 0 ? std::ldexp(1.0, ex - 52) : -std::ldexp(1.0, ex - 52); break;
    default: break;  // on the midpoint
  }
  const double b = std::ldexp(1.0, l - 1) + d;
  if (std::fabs(d) >= std::ldexp(1.0, l - 2) || std::fmod(d, std::ldexp(1.0, l - 2 - m)) != 0.0) {
    return false;
  }
  const bool neg = (rng() & 1) != 0;
  out = {neg ? -x : x, neg ? -b : b};
  return true;
}

/// Product operands A * 2^ea and B * 2^eb (A, B of p = m + 1 bits) whose
/// exact product leads at 2^e and whose bits below the target's last
/// bit read 100...0 + d: on a midpoint (d = 0, via B = 3) or d units of the
/// product's last bit, or a double ulp or half of one, away from it.
inline bool midpoint_product(std::mt19937_64& rng, const sf::Format& fmt, int e,
                             std::pair<double, double>& out) {
  const int p = fmt.man_bits + 1;
  const u64 top = u64{1} << (p - 1);
  u64 a = (rng() & low_bits(p - 1)) | top | 1;
  u64 b = 0;
  if (rng() % 5 == 0) {
    // 3A has p + 1 bits and is odd: a midpoint wherever the target keeps p.
    a = (rng() & low_bits(p - 3)) | top | 1;
    b = 3;
  } else {
    // Lay the product out assuming 2p bits, then solve for B modulo
    // 2^(h+1), h the position of the target's half bit.
    const int z = e - (2 * p - 1);
    const int h = lsb_at(fmt, e) - 1 - z;
    if (h < 1 || h + 1 > p + 8 || h + 1 > 63) return false;
    i64 d = small_offset(rng);
    if (rng() % 3 == 0 && 2 * p - 54 >= 0 && 2 * p - 53 < h) {
      const i64 ulp = i64{1} << (2 * p - 53);  // one double ulp, or half of one
      d = (rng() & 1) != 0 ? ulp : ulp / 2;
      if ((rng() & 1) != 0) d = -d;
    }
    const u64 mod = low_bits(h + 1);
    const u64 target = ((u64{1} << h) + static_cast<u64>(d)) & mod;
    b = (inverse_odd(a) * target) & mod;
    if (b < top || b >= (top << 1)) return false;
    if (static_cast<u128>(a) * b < (u128{1} << (2 * p - 1))) return false;
  }
  int prod_bits = 0;
  for (u128 v = static_cast<u128>(a) * b; v != 0; v >>= 1) ++prod_bits;
  const int b_bits = std::bit_width(b);
  // A * 2^ea leads at 2^ka, B * 2^eb at 2^kb, with ka + kb + (prod_bits -
  // p - b_bits + 1) == e; both must be normal values of the format.
  const int kb_sum = e - (prod_bits - p - b_bits + 1);
  const int ka_lo = std::max(fmt.emin(), kb_sum - fmt.emax());
  const int ka_hi = std::min(fmt.emax(), kb_sum - fmt.emin());
  if (ka_lo > ka_hi) return false;
  const int ka = ka_lo + static_cast<int>(rng() % static_cast<u64>(ka_hi - ka_lo + 1));
  const double av = std::ldexp(static_cast<double>(a), ka - (p - 1));
  const double bv = std::ldexp(static_cast<double>(b), kb_sum - ka - (b_bits - 1));
  out = {(rng() & 1) != 0 ? -av : av, (rng() & 1) != 0 ? -bv : bv};
  return true;
}

/// Quotient operands leading at 2^e: A * 2^(p+1) == Q * B + eps with Q an
/// odd (p+1)-bit significand (a target midpoint) and eps a few units, so
/// A / B lies
/// eps / B units of Q's last bit from the midpoint. (A quotient of format
/// values never lies on a midpoint exactly.)
inline bool midpoint_quotient(std::mt19937_64& rng, const sf::Format& fmt, int e,
                              std::pair<double, double>& out) {
  const int p = fmt.man_bits + 1;
  if (p + 1 > 63) return false;
  const u64 mod = low_bits(p + 1);
  const u64 q = (rng() & low_bits(p)) | (u64{1} << p) | 1;
  i64 eps = small_offset(rng);
  if (eps == 0) eps = 1;
  const u64 b = (inverse_odd(q) * static_cast<u64>(-eps)) & mod;
  const u64 top = u64{1} << (p - 1);
  if (b < top || b >= (top << 1)) return false;
  const u128 num = static_cast<u128>(q) * b + static_cast<u128>(static_cast<__int128>(eps));
  const u128 a128 = num >> (p + 1);
  if ((num & mod) != 0 || a128 < top || a128 >= (top << 1)) return false;
  // With A * 2^ea leading at 2^ka and B * 2^eb at 2^kb, the quotient
  // (Q + eps / B) * 2^(ea - eb - p - 1) leads at 2^(ka - kb - 1) == 2^e;
  // both operands must be normal values of the format.
  const int kb_lo = std::max(fmt.emin(), fmt.emin() - e - 1);
  const int kb_hi = std::min(fmt.emax(), fmt.emax() - e - 1);
  if (kb_lo > kb_hi) return false;
  const int kb = kb_lo + static_cast<int>(rng() % static_cast<u64>(kb_hi - kb_lo + 1));
  const double av = std::ldexp(static_cast<double>(static_cast<u64>(a128)), kb + e + 1 - (p - 1));
  const double bv = std::ldexp(static_cast<double>(b), kb - (p - 1));
  out = {(rng() & 1) != 0 ? -av : av, (rng() & 1) != 0 ? -bv : bv};
  return true;
}

/// Square-root operand leading at about 2^e: A * 2^(p+2) == Q^2 + eps with
/// Q an odd (p+1)-bit significand in [2^(p+1/2), 2^(p+1)) and eps == 7
/// (mod 8) small, so sqrt(A * 2^(p+2)) lies about eps / 2Q units from the
/// midpoint Q. (A root of a format value never lies on a midpoint exactly.)
inline bool midpoint_root(std::mt19937_64& rng, const sf::Format& fmt, int e,
                          std::pair<double, double>& out) {
  const int p = fmt.man_bits + 1;
  const int kbits = p + 2;
  if (kbits > 63) return false;
  const u64 mod = low_bits(kbits);
  const i64 eps = 8 * (static_cast<i64>(rng() % 9) - 4) + 7;  // -25 .. 39, == 7 mod 8
  const u64 x = static_cast<u64>(-eps) & mod;                  // Q^2 == x, x == 1 mod 8
  u64 r = 1;
  for (int k = 3; k < kbits; ++k) {  // Hensel lifting: r^2 == x mod 2^k -> 2^(k+1)
    if (((r * r - x) & low_bits(k + 1)) != 0) r += u64{1} << (k - 1);
  }
  const u64 roots[4] = {r, (mod + 1 - r) & mod, (r + (u64{1} << (kbits - 1))) & mod,
                        ((mod + 1 - r) + (u64{1} << (kbits - 1))) & mod};
  const u64 q = roots[rng() % 4];
  if (q < (u64{1} << p) || (static_cast<u128>(q) * q >> (2 * p + 1)) == 0) return false;
  const u128 num = static_cast<u128>(q) * q + static_cast<u128>(static_cast<__int128>(eps));
  if ((num & mod) != 0) return false;
  const u128 a128 = num >> kbits;
  const u64 top = u64{1} << (p - 1);
  if (a128 < top || a128 >= (top << 1)) return false;
  // A * 2^(kbits + 2j) leads at 2^(2p + 1 + 2j), about 2^e, and its root
  // sqrt(Q^2 + eps) * 2^j at 2^(p + j); it must be a normal format value.
  const int j = static_cast<int>(std::floor((e - 2 * p - 1) / 2.0));
  const int lead = 2 * p + 1 + 2 * j;
  if (lead < fmt.emin() || lead > fmt.emax()) return false;
  out = {std::ldexp(static_cast<double>(static_cast<u64>(a128)), kbits + 2 * j), 1.0};
  return true;
}

}  // namespace detail

/// The man_bits > 24 differential operands for one op: '+' and '-' (sums
/// and differences), '*', '/', and 'r' (square root; the second operand is
/// unused). Every pair is a pair of arbitrary doubles as far as the kernels
/// are concerned; most are values of `fmt`.
inline std::vector<std::pair<double, double>> tie_operands(const sf::Format& fmt, char op,
                                                           std::size_t count, u64 seed) {
  using detail::format_value;
  std::mt19937_64 rng(seed);
  const int lo = fmt.emin_subnormal(), hi = fmt.emax(), emin = fmt.emin();
  const auto uniform = [&](int a, int b) {
    return b <= a ? a : a + static_cast<int>(rng() % static_cast<u64>(b - a + 1));
  };
  std::vector<std::pair<double, double>> out;
  out.reserve(count);
  std::size_t attempts = 0;
  while (out.size() < count && attempts++ < 400 * count) {
    std::pair<double, double> ab;
    const unsigned kind = static_cast<unsigned>(rng() % 8);
    // Leading-bit exponent of the result: the normal range mostly, the
    // subnormal range, the top binade, or (exp_bits == 11) the 2^-968 bound.
    int e = uniform(emin, hi);
    if (kind == 3) e = uniform(lo, emin);
    if (kind == 4) e = uniform(hi - 1, hi);
    if (kind == 5 && fmt.exp_bits == 11) e = uniform(-972, -964);
    bool ok = true;
    if (kind <= 5) {
      switch (op) {
        case '+':
        case '-':
          ok = detail::midpoint_sum(rng, fmt, e, ab);
          if (ok && kind == 4 && (rng() & 1) != 0 && hi - 2 * fmt.man_bits - 2 >= lo) {
            // The overflow threshold: the largest finite value plus half
            // its last bit (+ a few units).
            const double maxfin = std::ldexp(2.0 - std::ldexp(1.0, -fmt.man_bits), hi);
            const double half = std::ldexp(1.0, hi - fmt.man_bits - 1);
            const double d = std::ldexp(static_cast<double>(detail::small_offset(rng)),
                                        hi - 2 * fmt.man_bits - 1);
            ab = {maxfin, half + d};
          }
          if (op == '-') ab.second = -ab.second;
          break;
        case '*': ok = detail::midpoint_product(rng, fmt, e, ab); break;
        case '/': ok = detail::midpoint_quotient(rng, fmt, e, ab); break;
        default: ok = detail::midpoint_root(rng, fmt, e, ab); break;
      }
    } else if (kind == 6) {
      // Random operands whose result leads near 2^e.
      const int ea = uniform(lo, hi);
      const int er = uniform(lo - 2, hi + 1);
      switch (op) {
        case '*': ab = {format_value(rng, fmt, ea), format_value(rng, fmt, er - ea)}; break;
        case '/': ab = {format_value(rng, fmt, er + ea), format_value(rng, fmt, ea)}; break;
        case 'r': ab = {std::fabs(format_value(rng, fmt, 2 * (er / 2))), 1.0}; break;
        default: ab = {format_value(rng, fmt, er), format_value(rng, fmt, uniform(lo, er))}; break;
      }
      if (fmt.exp_bits == 11 && (rng() & 1) != 0) {
        // Dividends and radicands around the 2^-968 bound.
        const double v = format_value(rng, fmt, uniform(-972, -964));
        if (op == '/' || op == 'r') ab.first = op == 'r' ? std::fabs(v) : v;
      }
    } else {
      // Arbitrary doubles, not rounded into the format first.
      const auto draw = [&] {
        if ((rng() & 7) == 0) return std::bit_cast<double>(rng());
        const int biased = std::clamp(uniform(lo - 2, hi + 2) + 1023, 0, 2046);
        return std::bit_cast<double>(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                                     (rng() & ((u64{1} << 52) - 1)));
      };
      ab = {draw(), draw()};
    }
    if (ok) out.push_back(ab);
  }
  return out;
}

}  // namespace raptor::testing_support
