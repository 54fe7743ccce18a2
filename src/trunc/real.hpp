// raptor::Real — the operator-overloading front-end that routes every
// floating-point operation through the RAPTOR runtime.
//
// This is the repository's stand-in for the paper's compiler-pass
// instrumentation (see DESIGN.md §1): the pass rewrites `fadd double` into
// `_raptor_add_f64(...)`; `Real` reaches the identical runtime entry point
// through operator+. Application substrates (hydro, incomp, eos, ...) are
// templated on their scalar type, so the same kernel runs:
//   * with T = double        -> uninstrumented native baseline,
//   * with T = raptor::Real  -> fully instrumented (profiled / truncated).
//
// In mem-mode, a Real may carry a NaN-boxed shadow-table id; copy/assign/
// destroy retain/release the entry so the table tracks live values only.
#pragma once

#include <cmath>
#include <type_traits>
#include <utility>

#include "runtime/runtime.hpp"

namespace raptor {

class Real {
 public:
  Real() = default;
  Real(double v) : v_(v) {}  // NOLINT(google-explicit-constructor): numeric type
  Real(int v) : v_(v) {}     // NOLINT(google-explicit-constructor)

  Real(const Real& o) : v_(o.v_) { retain(); }
  Real(Real&& o) noexcept : v_(o.v_) { o.v_ = 0.0; }
  Real& operator=(const Real& o) {
    if (this != &o) {
      release();
      v_ = o.v_;
      retain();
    }
    return *this;
  }
  Real& operator=(Real&& o) noexcept {
    if (this != &o) {
      release();
      v_ = o.v_;
      o.v_ = 0.0;
    }
    return *this;
  }
  ~Real() { release(); }

  /// Truncated value as a plain double (mem-mode: reads the shadow table).
  [[nodiscard]] double value() const {
    return rt::Runtime::is_boxed(v_) ? rt::Runtime::instance().mem_value(v_) : v_;
  }
  /// FP64 shadow (mem-mode); equals value() in op-mode.
  [[nodiscard]] double shadow() const {
    return rt::Runtime::is_boxed(v_) ? rt::Runtime::instance().mem_shadow(v_) : v_;
  }
  /// Collapse a mem-mode value back to a plain double (the `_raptor_post_c`
  /// step); no-op in op-mode. Read + release happen in one locked section.
  void materialize() {
    if (rt::Runtime::is_boxed(v_)) v_ = rt::Runtime::instance().mem_materialize(v_);
  }
  /// Raw payload (tests / C API interop).
  [[nodiscard]] double raw() const { return v_; }
  /// Adopt a payload that already owns a reference (runtime op results).
  static Real adopt_raw(double payload) {
    Real r;
    r.v_ = payload;
    return r;
  }

  explicit operator double() const { return value(); }

  // -- Arithmetic (each maps to one runtime-instrumented operation) -------

  friend Real operator+(const Real& a, const Real& b) { return bin(rt::OpKind::Add, a, b); }
  friend Real operator-(const Real& a, const Real& b) { return bin(rt::OpKind::Sub, a, b); }
  friend Real operator*(const Real& a, const Real& b) { return bin(rt::OpKind::Mul, a, b); }
  friend Real operator/(const Real& a, const Real& b) { return bin(rt::OpKind::Div, a, b); }
  Real operator-() const {
    return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Neg, v_));
  }
  Real operator+() const { return *this; }

  Real& operator+=(const Real& o) { return *this = *this + o; }
  Real& operator-=(const Real& o) { return *this = *this - o; }
  Real& operator*=(const Real& o) { return *this = *this * o; }
  Real& operator/=(const Real& o) { return *this = *this / o; }

  // -- Comparisons (on truncated values: control flow follows what the
  //    truncated program would do, as with the paper's op-mode) -----------

  friend bool operator<(const Real& a, const Real& b) { return a.value() < b.value(); }
  friend bool operator>(const Real& a, const Real& b) { return a.value() > b.value(); }
  friend bool operator<=(const Real& a, const Real& b) { return a.value() <= b.value(); }
  friend bool operator>=(const Real& a, const Real& b) { return a.value() >= b.value(); }
  friend bool operator==(const Real& a, const Real& b) { return a.value() == b.value(); }
  friend bool operator!=(const Real& a, const Real& b) { return a.value() != b.value(); }

 private:
  static Real bin(rt::OpKind k, const Real& a, const Real& b) {
    return Real::adopt_raw(rt::Runtime::instance().op2(k, a.v_, b.v_));
  }
  void retain() {
    if (rt::Runtime::is_boxed(v_)) rt::Runtime::instance().mem_retain(v_);
  }
  void release() {
    if (rt::Runtime::is_boxed(v_)) rt::Runtime::instance().mem_release(v_);
  }

  double v_ = 0.0;
};

// -- Math functions dispatching through the runtime -------------------------

inline Real sqrt(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Sqrt, a.raw()));
}
inline Real exp(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Exp, a.raw()));
}
inline Real log(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Log, a.raw()));
}
inline Real log2(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Log2, a.raw()));
}
inline Real log10(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Log10, a.raw()));
}
inline Real sin(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Sin, a.raw()));
}
inline Real cos(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Cos, a.raw()));
}
inline Real tan(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Tan, a.raw()));
}
inline Real atan(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Atan, a.raw()));
}
inline Real tanh(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Tanh, a.raw()));
}
inline Real cbrt(const Real& a) {
  return Real::adopt_raw(rt::Runtime::instance().op1(rt::OpKind::Cbrt, a.raw()));
}
inline Real pow(const Real& a, const Real& b) {
  return Real::adopt_raw(rt::Runtime::instance().op2(rt::OpKind::Pow, a.raw(), b.raw()));
}
inline Real atan2(const Real& a, const Real& b) {
  return Real::adopt_raw(rt::Runtime::instance().op2(rt::OpKind::Atan2, a.raw(), b.raw()));
}
inline Real fma(const Real& a, const Real& b, const Real& c) {
  return Real::adopt_raw(rt::Runtime::instance().op3(rt::OpKind::Fma, a.raw(), b.raw(), c.raw()));
}
inline Real fabs(const Real& a) { return a.value() < 0 ? -a : a; }
inline Real fmin(const Real& a, const Real& b) { return a.value() <= b.value() ? a : b; }
inline Real fmax(const Real& a, const Real& b) { return a.value() >= b.value() ? a : b; }

// -- Lane-generic control flow ----------------------------------------------
// Kernels written once for double, Real and batch::Vec branch through
// branch(cond, then_arm, else_arm) and choose operands through
// select(cond, a, b). Each arm is called with `pick`, which
// narrows a value to the lanes the arm runs on, and both arms return the same
// type. For double and Real the condition is a bool, branch is a plain if and
// pick returns its argument; batch::branch (span_ops.hpp) is the Vec form.

struct PickAll {
  template <class X>
  [[nodiscard]] X operator()(const X& x) const {
    return x;
  }
};

template <class Then, class Else>
auto branch(bool cond, Then&& then_arm, Else&& else_arm) {
  if (cond) return then_arm(PickAll{});
  return else_arm(PickAll{});
}

/// The operand choice `cond ? a : b`: a selection, never counted. Upwind
/// kernels pick their operands with it instead of branching around the ops,
/// so every lane issues the same ops; batch::select (span_ops.hpp) is the
/// Vec form, a blend under a Mask.
template <class T>
[[nodiscard]] T select(bool cond, const T& a, const T& b) {
  return cond ? a : b;
}

// -- Scalar abstraction helpers ---------------------------------------------
// Substrate kernels are templated on the scalar type T (double or Real);
// to_double(x) reads a plain double out of either.

inline double to_double(double x) { return x; }
inline double to_double(const Real& x) { return x.value(); }

/// Native bookkeeping inside a lane-generic kernel, never counted: fn
/// applied to the plain double of each argument (to_double). A double
/// result comes back as the kernel's scalar type (Real if any argument is
/// one) holding it — a table corner, a step size, an iteration count; a
/// bool result comes back as the bool; a void fn only visits (statistics).
/// batch::native (span_ops.hpp) is the Vec form, one call per lane. A
/// native value never stands in for a payload later arithmetic reads, so
/// mem-mode handles survive: clamps stay select()s.
template <class Fn, class... X>
  requires((std::is_same_v<X, double> || std::is_same_v<X, Real>) && ...)
auto native(Fn&& fn, const X&... x) {
  using R = decltype(fn(to_double(x)...));
  if constexpr (std::is_same_v<R, double>) {
    return std::conditional_t<(std::is_same_v<X, Real> || ...), Real, double>(
        fn(to_double(x)...));
  } else {
    return fn(to_double(x)...);
  }
}

/// A per-lane count or flag of type T that a kernel on S returns: T itself
/// for double and Real, a Vec of native lane values for batch::Vec
/// (span_ops.hpp). native_cast<T> turns a native value into it.
template <class S, class T>
struct NativeLanes {
  using type = T;
};
template <class S, class T>
using native_t = typename NativeLanes<S, T>::type;

template <class T, class S>
[[nodiscard]] native_t<S, T> native_cast(const S& v) {
  return static_cast<T>(to_double(v));
}

/// The loop `while (cond(x)) x = body(x); return x;` written once (body
/// takes the state by value, so it may update it in place). For
/// double and Real cond returns a bool and this is that loop;
/// batch::repeat_while (span_ops.hpp) is the Vec form, where each round
/// runs only the lanes still looping. The state x is a scalar or an
/// aggregate exposing members() (as for branch), and carries everything
/// the body reads per lane.
template <class X, class Cond, class Body>
  requires std::is_same_v<std::invoke_result_t<Cond&, const X&>, bool>
X repeat_while(X x, Cond&& cond, Body&& body) {
  while (cond(x)) x = body(std::move(x));
  return x;
}

}  // namespace raptor
