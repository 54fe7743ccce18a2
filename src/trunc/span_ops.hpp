// Array front-end for the batched op-mode dispatch (DESIGN.md §8). The
// runtime batch entry points these reach execute on the SIMD truncation
// kernels (DESIGN.md §13) — contiguous spans assembled here are consumed as
// full AVX2/AVX-512 vectors when the host supports them, bit-identically to
// the scalar kernels on every path. Every format with exp_bits <= 11 and
// man_bits <= 24 runs there (fma: exp_bits <= 9), the paper's Format{11,m}
// family included; only e11 products that land in double's subnormal range
// are recomputed in BigFloat, element by element (fast_round.hpp).
//
// Two layers, both reaching Runtime::op*_batch / trunc_array:
//
//  * Span helpers — element-wise add/sub/mul/div/scale/trunc over spans of
//    raptor::Real (raw payloads are gathered chunk-wise, dispatched in one
//    batch call, and the results adopted back), with `double` overloads that
//    compile to plain native loops so substrate kernels templated on the
//    scalar type keep an uninstrumented baseline.
//
//  * batch::Vec — a dynamically sized vector of raw payloads with operator
//    overloading. A kernel templated on its scalar type (e.g. incomp::weno5,
//    the hydro Riemann solvers and primitive recovery) instantiated with Vec
//    executes the *same expression tree* as its Real instantiation, so
//    per-element results and counter totals are bitwise identical to the
//    scalar op loop — but every operator is one batch call instead of n
//    scalar dispatches. Vec mirrors Real's semantics lane by lane:
//      - sqrt is one counted Sqrt per lane;
//      - fabs is one counted Neg per negative lane (Real negates when
//        value() < 0, so NaN and -0 lanes pass through uncounted);
//      - fmin/fmax are uncounted selections (a <= b ? a : b, a >= b ? a : b,
//        so a NaN lane selects the second operand);
//      - the comparisons <= and >= yield a Mask of lanes;
//      - branch(mask, then_arm, else_arm) is the count-preserving if: each
//        arm runs only on its own lanes (gathered dense), so it issues and
//        counts exactly the ops the scalar if would, and an arm with no
//        lanes never runs. Arms receive `pick`, which narrows a value (a
//        Vec or an aggregate exposing members()) to the arm's lanes; the
//        arms' results are scattered back. For double and Real, branch is
//        a plain if (real.hpp) and pick returns its argument.
//
// Ownership: raw payloads are plain doubles in op-mode. These helpers are
// op-mode only — Vec intermediates would leak NaN-boxed shadow entries in
// mem-mode — so substrates gate on Runtime::mode() == Mode::Op before taking
// the batch path (the runtime batch entry points themselves fall back to
// scalar dispatch in mem-mode, which the span helpers inherit).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "trunc/real.hpp"

namespace raptor::batch {

// ---------------------------------------------------------------------------
// Span helpers
// ---------------------------------------------------------------------------

namespace detail {

/// Chunk size for gather/dispatch/adopt over Real spans: large enough to
/// amortize the per-batch dispatch, small enough to stay on the stack.
inline constexpr std::size_t kChunk = 256;

inline void bin_real(rt::OpKind k, std::span<const Real> a, std::span<const Real> b,
                     std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == b.size() && a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[kChunk], xb[kChunk], xo[kChunk];
  for (std::size_t base = 0; base < a.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) {
      xa[i] = a[base + i].raw();
      xb[i] = b[base + i].raw();
    }
    R.op2_batch(k, xa, xb, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}

inline void bin_double(rt::OpKind k, std::span<const double> a, std::span<const double> b,
                       std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == b.size() && a.size() == out.size(), "batch: span size mismatch");
  switch (k) {
    case rt::OpKind::Add:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
      break;
    case rt::OpKind::Sub:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
      break;
    case rt::OpKind::Mul:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
      break;
    default:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] / b[i];
      break;
  }
}

}  // namespace detail

inline void add(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Add, a, b, out);
}
inline void sub(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Sub, a, b, out);
}
inline void mul(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Mul, a, b, out);
}
inline void div(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Div, a, b, out);
}
inline void add(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Add, a, b, out);
}
inline void sub(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Sub, a, b, out);
}
inline void mul(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Mul, a, b, out);
}
inline void div(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Div, a, b, out);
}

/// out[i] = s * a[i] (one Mul per element, like the scalar `T(s) * a[i]`).
inline void scale(std::span<const Real> a, const Real& s, std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[detail::kChunk], xs[detail::kChunk], xo[detail::kChunk];
  for (std::size_t i = 0; i < detail::kChunk; ++i) xs[i] = s.raw();
  for (std::size_t base = 0; base < a.size(); base += detail::kChunk) {
    const std::size_t m = std::min(detail::kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) xa[i] = a[base + i].raw();
    R.op2_batch(rt::OpKind::Mul, xs, xa, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}
inline void scale(std::span<const double> a, double s, std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = s * a[i];
}

/// Quantize a span into the current effective format (array `_raptor_pre_c`;
/// no flop counting, mirroring Runtime::trunc_array).
inline void trunc(std::span<const Real> a, std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[detail::kChunk], xo[detail::kChunk];
  for (std::size_t base = 0; base < a.size(); base += detail::kChunk) {
    const std::size_t m = std::min(detail::kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) xa[i] = a[base + i].raw();
    R.trunc_array(xa, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}
inline void trunc(std::span<const double> a, std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  rt::Runtime::instance().trunc_array(a.data(), out.data(), a.size());
}

// ---------------------------------------------------------------------------
// batch::Vec — operator-overloaded batches of raw payloads
// ---------------------------------------------------------------------------

/// Lane truth values of a Vec comparison; branch() consumes it.
struct Mask {
  std::vector<u8> on;
  [[nodiscard]] std::size_t size() const { return on.size(); }
};

class Vec {
 public:
  Vec() = default;
  /// Broadcast constant, mirroring the scalar kernels' `S(2.0)` idiom: each
  /// element-wise use still issues one runtime op per element.
  Vec(double scalar) : scalar_(scalar), is_scalar_(true) {}  // NOLINT: numeric
  explicit Vec(std::size_t n) : v_(n) {}

  /// Build by gathering raw payloads: fn(i) -> double, i in [0, n).
  template <typename Fn>
  static Vec gather(std::size_t n, Fn&& fn) {
    Vec r(n);
    for (std::size_t i = 0; i < n; ++i) r.v_[i] = fn(i);
    return r;
  }

  [[nodiscard]] bool is_scalar() const { return is_scalar_; }
  [[nodiscard]] std::size_t size() const { return is_scalar_ ? 1 : v_.size(); }
  [[nodiscard]] double operator[](std::size_t i) const { return is_scalar_ ? scalar_ : v_[i]; }
  [[nodiscard]] const std::vector<double>& raw() const { return v_; }

  friend Vec operator+(const Vec& a, const Vec& b) { return bin(rt::OpKind::Add, a, b); }
  friend Vec operator-(const Vec& a, const Vec& b) { return bin(rt::OpKind::Sub, a, b); }
  friend Vec operator*(const Vec& a, const Vec& b) { return bin(rt::OpKind::Mul, a, b); }
  friend Vec operator/(const Vec& a, const Vec& b) { return bin(rt::OpKind::Div, a, b); }
  Vec operator-() const { return unary(rt::OpKind::Neg, *this); }

  friend Mask operator<=(const Vec& a, const Vec& b) {
    return cmp(a, b, [](double x, double y) { return x <= y; });
  }
  friend Mask operator>=(const Vec& a, const Vec& b) {
    return cmp(a, b, [](double x, double y) { return x >= y; });
  }

  friend Vec sqrt(const Vec& a) { return unary(rt::OpKind::Sqrt, a); }
  /// Real's fabs lane by lane: one counted Neg per lane whose value is < 0.
  friend Vec fabs(const Vec& a) {
    if (a.is_scalar_) return a.scalar_ < 0 ? -a : a;
    std::vector<u32> neg;
    for (std::size_t i = 0; i < a.v_.size(); ++i) {
      if (a.v_[i] < 0) neg.push_back(static_cast<u32>(i));
    }
    Vec r = a;
    if (!neg.empty()) r.scatter(-a.lanes(neg), neg);
    return r;
  }
  /// Real's fmin/fmax lane by lane: selections, never counted.
  friend Vec fmin(const Vec& a, const Vec& b) {
    return select(a, b, [](double x, double y) { return x <= y; });
  }
  friend Vec fmax(const Vec& a, const Vec& b) {
    return select(a, b, [](double x, double y) { return x >= y; });
  }

  /// The lanes `idx` of this Vec, dense (a broadcast stays a broadcast).
  [[nodiscard]] Vec lanes(const std::vector<u32>& idx) const {
    if (is_scalar_) return *this;
    Vec r(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) r.v_[j] = v_[idx[j]];
    return r;
  }
  /// this[idx[j]] = src[j] for every j (this must hold every lane).
  void scatter(const Vec& src, const std::vector<u32>& idx) {
    for (std::size_t j = 0; j < idx.size(); ++j) v_[idx[j]] = src[j];
  }

 private:
  static Vec unary(rt::OpKind k, const Vec& a) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_) return Vec(R.op1(k, a.scalar_));
    Vec r(a.v_.size());
    R.op1_batch(k, a.v_.data(), r.v_.data(), a.v_.size());
    return r;
  }

  static std::size_t common_size(const Vec& a, const Vec& b) {
    const std::size_t n = a.is_scalar_ ? b.size() : a.v_.size();
    RAPTOR_REQUIRE(a.is_scalar_ || b.is_scalar_ || b.v_.size() == n, "Vec: size mismatch");
    return n;
  }

  template <class Pred>
  static Mask cmp(const Vec& a, const Vec& b, Pred pred) {
    const std::size_t n = common_size(a, b);
    Mask m{std::vector<u8>(n)};
    for (std::size_t i = 0; i < n; ++i) m.on[i] = pred(a[i], b[i]) ? 1 : 0;
    return m;
  }

  /// pred(a, b) ? a : b per lane.
  template <class Pred>
  static Vec select(const Vec& a, const Vec& b, Pred pred) {
    if (a.is_scalar_ && b.is_scalar_) return pred(a.scalar_, b.scalar_) ? a : b;
    const std::size_t n = common_size(a, b);
    Vec r(n);
    for (std::size_t i = 0; i < n; ++i) r.v_[i] = pred(a[i], b[i]) ? a[i] : b[i];
    return r;
  }

  /// Broadcast scratch reused across operator calls (one live broadcast per
  /// op2_batch call, so a single thread-local buffer suffices) — the WENO
  /// kernels do ~20 scalar-times-vector ops per invocation and must not pay
  /// an allocation for each.
  static const double* broadcast(double scalar, std::size_t n) {
    static thread_local std::vector<double> buf;
    if (buf.size() < n) buf.resize(n);
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), scalar);
    return buf.data();
  }

  static Vec bin(rt::OpKind k, const Vec& a, const Vec& b) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_ && b.is_scalar_) return Vec(R.op2(k, a.scalar_, b.scalar_));
    const std::size_t n = common_size(a, b);
    Vec r(n);
    if (a.is_scalar_) {
      R.op2_batch(k, broadcast(a.scalar_, n), b.v_.data(), r.v_.data(), n);
    } else if (b.is_scalar_) {
      R.op2_batch(k, a.v_.data(), broadcast(b.scalar_, n), r.v_.data(), n);
    } else {
      R.op2_batch(k, a.v_.data(), b.v_.data(), r.v_.data(), n);
    }
    return r;
  }

  std::vector<double> v_;
  double scalar_ = 0.0;
  bool is_scalar_ = false;
};

// ---------------------------------------------------------------------------
// branch — the count-preserving lane if
// ---------------------------------------------------------------------------

/// Apply fn(dst_member, src_member) to each member pair of an aggregate
/// that exposes its Vec members as members(x) (a std::tie tuple).
template <class X, class Fn>
void zip_members(X& dst, const X& src, Fn&& fn) {
  auto d = members(dst);
  const auto s = members(src);
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    (fn(std::get<K>(d), std::get<K>(s)), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(d)>>{});
}

/// Narrows values to one arm's lanes (see branch); a null lane list means
/// every lane and returns a copy.
class Pick {
 public:
  explicit Pick(const std::vector<u32>* idx) : idx_(idx) {}
  template <class X>
  [[nodiscard]] X operator()(const X& x) const {
    if (idx_ == nullptr) return x;
    if constexpr (std::is_same_v<X, Vec>) {
      return x.lanes(*idx_);
    } else {
      X out;
      zip_members(out, x, [&](Vec& o, const Vec& v) { o = v.lanes(*idx_); });
      return out;
    }
  }

 private:
  const std::vector<u32>* idx_;
};

/// The lane form of `if (m) then_arm else else_arm`: each arm runs once,
/// densely, on its own lanes — so it issues and counts exactly the ops the
/// scalar if issues per element — and an arm with no lanes does not run.
/// Each arm is called with a Pick and returns a Vec or an aggregate with
/// members(); the two results are scattered back into lane order.
template <class Then, class Else>
auto branch(const Mask& m, Then&& then_arm, Else&& else_arm) {
  std::vector<u32> on, off;
  for (std::size_t i = 0; i < m.size(); ++i) {
    (m.on[i] != 0 ? on : off).push_back(static_cast<u32>(i));
  }
  if (off.empty()) return then_arm(Pick(nullptr));
  if (on.empty()) return else_arm(Pick(nullptr));
  auto out = then_arm(Pick(&on));
  const decltype(out) other = else_arm(Pick(&off));
  const auto merge = [&](Vec& o, const Vec& y) {
    const Vec x = std::move(o);
    o = Vec(m.size());
    o.scatter(x, on);
    o.scatter(y, off);
  };
  if constexpr (std::is_same_v<decltype(out), Vec>) {
    merge(out, other);
  } else {
    zip_members(out, other, merge);
  }
  return out;
}

}  // namespace raptor::batch
