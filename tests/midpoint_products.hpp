// Operand pairs for the exp_bits == 11 product hazard: Format{11, m} values
// whose exact product lies a quarter of a double ulp from a target rounding
// midpoint below 2^-1022. The hardware product rounds onto the midpoint
// itself, so a kernel without the subnormal-product guard ties to even and
// is wrong for about half of them. Only m >= 18 admits such pairs: with
// fewer significand bits the product never reaches both the midpoint bit and
// the bits below double's subnormal grid.
#pragma once

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "softfloat/format.hpp"

namespace raptor::testing_support {

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
    u64 inv = a;  // Newton iteration for a^-1 mod 2^64 (a odd)
    for (int i = 0; i < 6; ++i) inv *= 2 - a * inv;
    const u64 target = (u64{1} << mid) + ((rng() & 1) != 0 ? 1 : mod_mask);
    const u64 b = (inv * target) & mod_mask;
    if (b < (u64{1} << (p - 1)) || b >= (u64{1} << p)) continue;
    const int ea = -600 + static_cast<int>(rng() % 200);
    const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
    out.emplace_back(sign * std::ldexp(static_cast<double>(a), ea),
                     std::ldexp(static_cast<double>(b), -1076 - ea));
  }
  return out;
}

}  // namespace raptor::testing_support
