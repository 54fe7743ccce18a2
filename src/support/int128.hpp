// 128-bit and 192-bit unsigned helpers used by the softfloat emulator.
//
// GCC/Clang provide unsigned __int128; we add count-leading-zeros and a
// minimal three-limb U192 accumulator (needed for exactly-rounded FMA,
// whose product (<=128 bits) plus addend (<=64 bits) exceeds 128 bits).
#pragma once

#include <cstdint>

#include "support/common.hpp"

namespace raptor {

using u128 = unsigned __int128;

/// Leading zero count of a non-zero u128 (undefined for 0, asserted).
inline int clz128(u128 x) {
  RAPTOR_ASSERT(x != 0);
  const auto hi = static_cast<u64>(x >> 64);
  if (hi != 0) return __builtin_clzll(hi);
  return 64 + __builtin_clzll(static_cast<u64>(x));
}

/// Three-limb little-endian unsigned integer: value = w2:w1:w0 (192 bits).
struct U192 {
  u64 w0 = 0, w1 = 0, w2 = 0;

  static U192 from_u128(u128 v) {
    return U192{static_cast<u64>(v), static_cast<u64>(v >> 64), 0};
  }

  [[nodiscard]] bool is_zero() const { return (w0 | w1 | w2) == 0; }

  /// Top 128 bits as u128 (bits 191..64).
  [[nodiscard]] u128 hi128() const { return (u128{w2} << 64) | w1; }

  [[nodiscard]] bool operator==(const U192&) const = default;

  [[nodiscard]] int compare(const U192& o) const {
    if (w2 != o.w2) return w2 < o.w2 ? -1 : 1;
    if (w1 != o.w1) return w1 < o.w1 ? -1 : 1;
    if (w0 != o.w0) return w0 < o.w0 ? -1 : 1;
    return 0;
  }

  /// Leading zeros in the 192-bit value (192 for zero).
  [[nodiscard]] int clz() const {
    if (w2 != 0) return __builtin_clzll(w2);
    if (w1 != 0) return 64 + __builtin_clzll(w1);
    if (w0 != 0) return 128 + __builtin_clzll(w0);
    return 192;
  }

  void shift_left(int s) {
    RAPTOR_ASSERT(s >= 0);
    while (s >= 64) {
      w2 = w1;
      w1 = w0;
      w0 = 0;
      s -= 64;
    }
    if (s == 0) return;
    w2 = (w2 << s) | (w1 >> (64 - s));
    w1 = (w1 << s) | (w0 >> (64 - s));
    w0 <<= s;
  }

  /// Right shift; returns true if any shifted-out bit was set ("sticky").
  bool shift_right_sticky(int s) {
    RAPTOR_ASSERT(s >= 0);
    bool sticky = false;
    while (s >= 64) {
      sticky = sticky || (w0 != 0);
      w0 = w1;
      w1 = w2;
      w2 = 0;
      s -= 64;
    }
    if (s == 0) return sticky;
    sticky = sticky || ((w0 & ((u64{1} << s) - 1)) != 0);
    w0 = (w0 >> s) | (w1 << (64 - s));
    w1 = (w1 >> s) | (w2 << (64 - s));
    w2 >>= s;
    return sticky;
  }

  void add(const U192& o) {
    u128 s0 = u128{w0} + o.w0;
    u128 s1 = u128{w1} + o.w1 + static_cast<u64>(s0 >> 64);
    w0 = static_cast<u64>(s0);
    w1 = static_cast<u64>(s1);
    w2 = w2 + o.w2 + static_cast<u64>(s1 >> 64);
  }

  /// this -= o; requires this >= o.
  void sub(const U192& o) {
    RAPTOR_ASSERT(compare(o) >= 0);
    u128 d0 = (u128{1} << 64) + w0 - o.w0;
    u64 borrow0 = static_cast<u64>(d0 >> 64) ^ 1;
    u128 d1 = (u128{1} << 64) + w1 - o.w1 - borrow0;
    u64 borrow1 = static_cast<u64>(d1 >> 64) ^ 1;
    w0 = static_cast<u64>(d0);
    w1 = static_cast<u64>(d1);
    w2 = w2 - o.w2 - borrow1;
  }
};

}  // namespace raptor
