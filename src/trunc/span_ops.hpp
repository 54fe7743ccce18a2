// Array front-end for the batched op-mode dispatch (DESIGN.md §8). The
// runtime batch entry points these reach execute on the SIMD truncation
// kernels (DESIGN.md §13) — contiguous spans assembled here are consumed as
// full AVX2/AVX-512 vectors when the host supports them, bit-identically to
// the scalar kernels on every path. Every format with exp_bits <= 11 runs
// there at any man_bits up to 52 (fma: exp_bits <= 9, man_bits <= 24), the
// paper's whole Format{11,m} family included; only e11 results near
// double's underflow are recomputed in BigFloat, element by element
// (fast_round.hpp).
//
//  * batch::Vec — a dynamically sized vector of raw payloads with operator
//    overloading, reaching Runtime::op*_batch. A kernel templated on its
//    scalar type (e.g. incomp::weno5, the hydro Riemann solvers, the
//    Helmholtz inversion, the burn network) instantiated with Vec
//    executes the *same expression tree* as its Real instantiation, so
//    per-element results and counter totals are bitwise identical to the
//    scalar op loop — but every operator is one batch call instead of n
//    scalar dispatches. Vec mirrors Real's semantics lane by lane:
//      - sqrt, exp, cbrt and log10 are one counted op per lane;
//      - fabs is one Neg over the negative lanes (Real negates when
//        value() < 0, so NaN and -0 lanes pass through uncounted);
//      - fmin/fmax are uncounted selections (a <= b ? a : b, a >= b ? a : b,
//        so a NaN lane selects the second operand);
//      - the comparisons <, >, <= and >= yield a Mask, one bit per lane (a
//        NaN lane reads false);
//      - select(mask, a, b) is the uncounted operand choice, a blend (for
//        double and Real, the ternary in real.hpp);
//      - branch(mask, then_arm, else_arm) is the count-preserving if: each
//        arm runs only on its own lanes (gathered dense), so it issues and
//        counts exactly the ops the scalar if would, and an arm with no
//        lanes never runs. Arms receive `pick`, which narrows a value (a
//        Vec or an aggregate exposing members()) to the arm's lanes; the
//        arms' results are scattered back. For double and Real, branch is
//        a plain if (real.hpp) and pick returns its argument;
//      - native(fn, x...) is uncounted bookkeeping, fn called once per lane
//        on the lanes' values: a double result gives a Vec (a table corner,
//        a step size, a count), a bool a Mask, and a void fn only visits;
//      - repeat_while(x, cond, body) is the loop `while (cond(x)) x =
//        body(x)`: each round runs body only on the lanes still looping,
//        and lanes that finish merge back in lane order.
//    Picks compress an arm's lanes by the mask and branch merges the two
//    arms back (sf::simd::lanes_compress / lanes_merge: eight lanes per
//    instruction on AVX-512). Vec lanes and Mask bits live in uninitialised
//    buffers from a per-thread pool (detail::LanePool), so in steady state
//    no operator, pick or branch touches the heap (DESIGN.md §13).
//
//  * Exactness tags: a Vec may carry the format every one of its lanes is
//    exactly representable in (exact()). An operand tagged with the format
//    the fast kernels run in skips its operand round, which is the identity
//    there; values and counts never depend on tags. A tag comes only from
//    a format the runtime reported, or from lanes copied out of a Vec that
//    carried it; when in doubt the tag is left off:
//      - an operator or math function result takes the tag op*_batch
//        returned (the fast-kernel path's format, else none);
//      - compress and Pick keep the source's tag;
//      - merge, select/blend, fmin/fmax and fabs keep a tag only when every
//        output lane comes from a source carrying it (a side that gives no
//        lane does not count);
//      - gather, native, fresh Vec(n) storage and broadcasts carry none,
//        and writing lanes through non-const data() drops the tag;
//      - under another format (a nested TruncScope, a region override, no
//        truncation) the tag no longer matches, so operands round as ever.
//    A broadcast operand of an operator goes to the runtime as its one
//    value, which the fast path rounds once per call, not once per lane.
//
// Ownership: raw payloads are plain doubles in op-mode. Vec is op-mode only
// — its intermediates would leak NaN-boxed shadow entries in mem-mode — so
// substrates gate on Runtime::mode() == Mode::Op before taking the batch
// path.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <new>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "softfloat/fast_round_simd.hpp"
#include "trunc/real.hpp"

// AddressSanitizer: pooled buffers are poisoned while they sit in a pool, so
// a Vec read after its storage went back (and before it is handed out
// again) fails like a use-after-free.
#if defined(__SANITIZE_ADDRESS__)
#define RAPTOR_LANES_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RAPTOR_LANES_ASAN 1
#endif
#endif

#ifdef RAPTOR_LANES_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace raptor::batch {

// ---------------------------------------------------------------------------
// Lane storage: a per-thread pool of uninitialised buffers
// ---------------------------------------------------------------------------

namespace detail {

/// Free lists of cache-line-aligned buffers by power-of-two size class
/// (class c holds 2^c bytes), linked through each free buffer's first word.
/// Each thread owns one pool, so taking and giving back are a few loads and
/// stores with no lock; a buffer given back on another thread than the one
/// it came from joins that thread's pool. Whatever a pool holds is freed
/// when its thread exits; storage taken or given back after that goes
/// straight to the heap.
class LanePool {
 public:
  /// Storage for `bytes` bytes; `cls` receives the class to give it back to.
  static void* take(std::size_t bytes, unsigned& cls) {
    cls = size_class(bytes);
    State& s = state;
    void* p = s.free[cls];
    if (p == nullptr) return ::operator new(std::size_t{1} << cls, kAlign);
    unpoison(p, cls);
    s.free[cls] = *static_cast<void**>(p);
    return p;
  }

  static void give(void* p, unsigned cls) {
    State& s = state;
    if (!s.armed) {
      if (s.gone) {
        ::operator delete(p, kAlign);
        return;
      }
      arm();
    }
    *static_cast<void**>(p) = s.free[cls];
    s.free[cls] = p;
#ifdef RAPTOR_LANES_ASAN
    // The first word holds the free-list link; poison the rest.
    ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + sizeof(void*),
                              (std::size_t{1} << cls) - sizeof(void*));
#endif
  }

 private:
  static constexpr unsigned kMinClass = 6;  ///< 64 bytes: one cache line
  static constexpr std::align_val_t kAlign{64};

  static unsigned size_class(std::size_t bytes) {
    return std::max(kMinClass, static_cast<unsigned>(std::bit_width(bytes - 1)));
  }

  /// The free lists: trivially destructible, so the hot path reads them
  /// without a TLS initialisation check.
  struct State {
    void* free[64];
    bool armed;  ///< a Reaper will empty the lists at thread exit
    bool gone;   ///< the Reaper has run: no more pooling on this thread
  };
  static inline thread_local State state{};

  /// Frees the thread's lists at thread exit. Armed before the first buffer
  /// enters a list, so nothing a list holds can outlive its thread.
  struct Reaper {
    Reaper() = default;
    Reaper(const Reaper&) = delete;
    Reaper& operator=(const Reaper&) = delete;
    ~Reaper() {
      for (unsigned cls = 0; cls < 64; ++cls) {
        while (void* p = state.free[cls]) {
          unpoison(p, cls);
          state.free[cls] = *static_cast<void**>(p);
          ::operator delete(p, kAlign);
        }
      }
      state.armed = false;
      state.gone = true;
    }
  };
  static void arm() {
    thread_local Reaper reaper;
    state.armed = true;
  }

  static void unpoison([[maybe_unused]] void* p, [[maybe_unused]] unsigned cls) {
#ifdef RAPTOR_LANES_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, std::size_t{1} << cls);
#endif
  }
};

/// Uninitialised storage for n values of T from the calling thread's pool.
template <class T>
class Lanes {
 public:
  Lanes() = default;
  explicit Lanes(std::size_t n) : n_(n) {
    if (n != 0) p_ = static_cast<T*>(LanePool::take(n * sizeof(T), cls_));
  }
  Lanes(const Lanes& o) : Lanes(o.n_) { std::copy_n(o.p_, n_, p_); }
  Lanes(Lanes&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)), n_(std::exchange(o.n_, 0)), cls_(o.cls_) {}
  Lanes& operator=(Lanes o) noexcept {
    std::swap(p_, o.p_);
    std::swap(n_, o.n_);
    std::swap(cls_, o.cls_);
    return *this;
  }
  ~Lanes() {
    if (p_ != nullptr) LanePool::give(p_, cls_);
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] T* data() { return p_; }
  [[nodiscard]] const T* data() const { return p_; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
  unsigned cls_ = 0;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// batch::Vec — operator-overloaded batches of raw payloads
// ---------------------------------------------------------------------------

/// Lane truth values of a Vec comparison, one bit per lane (lane i in bit
/// i % 64 of word i / 64); branch() consumes it.
class Mask {
 public:
  explicit Mask(std::size_t n) : n_(n), words_((n + 63) / 64) {}

  /// The mask of pred(i) over lanes i in [0, n).
  template <class Pred>
  [[nodiscard]] static Mask of(std::size_t n, Pred&& pred) {
    Mask m(n);
    std::fill_n(m.words_.data(), (n + 63) / 64, u64{0});
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) {
        m.words_[i / 64] |= u64{1} << (i % 64);
        ++m.set_;
      }
    }
    return m;
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Number of lanes set.
  [[nodiscard]] std::size_t count() const { return set_; }

 private:
  friend class Vec;
  std::size_t n_;
  std::size_t set_ = 0;  ///< filled in by the comparison that builds the mask
  detail::Lanes<u64> words_;
};

class Vec {
 public:
  Vec() = default;
  /// Broadcast constant, mirroring the scalar kernels' `S(2.0)` idiom: each
  /// element-wise use still issues one runtime op per element.
  Vec(double scalar) : scalar_(scalar), is_scalar_(true) {}  // NOLINT: numeric
  /// n lanes of uninitialised storage: write every lane before reading it.
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
  /// The lanes of a non-broadcast Vec. Writing through the non-const form
  /// drops the exactness tag.
  [[nodiscard]] double* data() {
    tag_ = kUntagged;
    return v_.data();
  }
  [[nodiscard]] const double* data() const { return v_.data(); }

  /// The format every lane is exactly representable in, if known (the
  /// exactness tag; see the header comment for where tags come from).
  [[nodiscard]] std::optional<sf::Format> exact() const {
    if (tag_ == kUntagged) return std::nullopt;
    return tag_;
  }
  /// Tag lanes that were all copied out of Vecs tagged `f` (or are zeros,
  /// exact in every format).
  void set_exact(const std::optional<sf::Format>& f) { tag_ = f.value_or(kUntagged); }

  friend Vec operator+(const Vec& a, const Vec& b) { return bin(rt::OpKind::Add, a, b); }
  friend Vec operator-(const Vec& a, const Vec& b) { return bin(rt::OpKind::Sub, a, b); }
  friend Vec operator*(const Vec& a, const Vec& b) { return bin(rt::OpKind::Mul, a, b); }
  friend Vec operator/(const Vec& a, const Vec& b) { return bin(rt::OpKind::Div, a, b); }
  Vec operator-() const { return unary(rt::OpKind::Neg, *this); }

  friend Mask operator<=(const Vec& a, const Vec& b) { return cmp(sf::simd::LaneCmp::Le, a, b); }
  friend Mask operator>=(const Vec& a, const Vec& b) { return cmp(sf::simd::LaneCmp::Ge, a, b); }
  friend Mask operator<(const Vec& a, const Vec& b) { return cmp(sf::simd::LaneCmp::Lt, a, b); }
  /// b < a: the same ordered compare with the operands swapped.
  friend Mask operator>(const Vec& a, const Vec& b) { return cmp(sf::simd::LaneCmp::Lt, b, a); }

  friend Vec sqrt(const Vec& a) { return unary(rt::OpKind::Sqrt, a); }
  friend Vec exp(const Vec& a) { return unary(rt::OpKind::Exp, a); }
  friend Vec cbrt(const Vec& a) { return unary(rt::OpKind::Cbrt, a); }
  friend Vec log10(const Vec& a) { return unary(rt::OpKind::Log10, a); }
  /// Real's fabs lane by lane: one Neg over the lanes whose value is < 0
  /// (compressed dense, negated in place in one batch call, merged back
  /// over a copy).
  friend Vec fabs(const Vec& a) { return abs(a); }
  /// Real's fmin/fmax lane by lane: selections, never counted.
  friend Vec fmin(const Vec& a, const Vec& b) { return choose(sf::simd::LaneCmp::Le, a, b); }
  friend Vec fmax(const Vec& a, const Vec& b) { return choose(sf::simd::LaneCmp::Ge, a, b); }
  /// select(cond, a, b) lane by lane (real.hpp): lane i of a where m is
  /// set, of b where it is not; a blend, never counted.
  friend Vec select(const Mask& m, const Vec& a, const Vec& b) { return blend(m, a, b); }

  /// The `count` lanes whose bit in `m` equals `on`, dense and in lane
  /// order (a broadcast stays a broadcast).
  [[nodiscard]] Vec compress(const Mask& m, bool on, std::size_t count) const {
    if (is_scalar_) return *this;
    Vec r(count);
    sf::simd::lanes_compress(path(), v_.data(), m.words_.data(), on, m.size(), r.v_.data());
    r.tag_ = tag_;
    return r;
  }
  /// The inverse of compressing each side of `m`: lane i takes the next
  /// lane of `on` where m is set and the next lane of `off` where it is not.
  [[nodiscard]] static Vec merge(const Mask& m, const Vec& on, const Vec& off) {
    const std::size_t n = m.size(), n_on = m.count();
    // A broadcast side is spread to its lane count first.
    const auto lanes_of = [](const Vec& x, std::size_t len, detail::Lanes<double>& spread) {
      if (!x.is_scalar_) return x.v_.data();
      spread = detail::Lanes<double>(len);
      std::fill_n(spread.data(), len, x.scalar_);
      return static_cast<const double*>(spread.data());
    };
    detail::Lanes<double> spread_on, spread_off;
    Vec r(n);
    sf::simd::lanes_merge(path(), lanes_of(on, n_on, spread_on),
                          lanes_of(off, n - n_on, spread_off), m.words_.data(), n, r.v_.data());
    r.tag_ = joint_tag(on, n_on > 0, off, n_on < n);
    return r;
  }

 private:
  static sf::simd::Path path() { return rt::Runtime::instance().simd_path(); }

  /// The tag of lanes drawn from `a` (if a_used) and `b` (if b_used): kept
  /// only when every side that gives lanes carries the same one.
  static sf::Format joint_tag(const Vec& a, bool a_used, const Vec& b, bool b_used) {
    if (!a_used) return b.tag_;
    if (!b_used || a.tag_ == b.tag_) return a.tag_;
    return kUntagged;
  }

  /// A runtime-reported result format as a tag.
  static sf::Format tag_of(const sf::Format* f) { return f != nullptr ? *f : kUntagged; }

  static Vec abs(const Vec& a) {
    if (a.is_scalar_) return a.scalar_ < 0 ? -a : a;
    const std::size_t n = a.v_.size();
    Mask neg(n);
    const std::size_t k = neg.set_ = sf::simd::lanes_compare(
        path(), sf::simd::LaneCmp::Lt, a.v_.data(), nullptr, n, neg.words_.data());
    if (k == 0) return a;
    if (k == n) return -a;
    Vec t = a.compress(neg, true, k);
    t.tag_ = tag_of(rt::Runtime::instance().op1_lanes(rt::OpKind::Neg, t.v_.data(), t.v_.data(),
                                                      k, 64, t.tag_ptr()));
    Vec r = a;
    sf::simd::lanes_merge(path(), t.v_.data(), nullptr, neg.words_.data(), n, r.v_.data());
    r.tag_ = joint_tag(t, true, a, true);
    return r;
  }

  static Vec unary(rt::OpKind k, const Vec& a) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_) return Vec(R.op1(k, a.scalar_));
    Vec r(a.v_.size());
    r.tag_ = tag_of(R.op1_lanes(k, a.v_.data(), r.v_.data(), a.v_.size(), 64, a.tag_ptr()));
    return r;
  }

  static std::size_t common_size(const Vec& a, const Vec& b) {
    const std::size_t n = a.is_scalar_ ? b.size() : a.v_.size();
    RAPTOR_REQUIRE(a.is_scalar_ || b.is_scalar_ || b.v_.size() == n, "Vec: size mismatch");
    return n;
  }

  /// Broadcast scratch for comparisons and selections (one live broadcast
  /// per call, so a single thread-local buffer suffices; operators hand a
  /// broadcast to the runtime as its value instead).
  static const double* broadcast(double scalar, std::size_t n) {
    static thread_local std::vector<double> buf;
    if (buf.size() < n) buf.resize(n);
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), scalar);
    return buf.data();
  }

  /// Operand `x` of an n-lane operation as n contiguous lanes. At most one
  /// operand of a call may need the broadcast scratch, which holds as long
  /// as two broadcasts only ever meet at n == 1.
  static const double* operand(const Vec& x, std::size_t n) {
    if (!x.is_scalar_) return x.v_.data();
    return n == 1 ? &x.scalar_ : broadcast(x.scalar_, n);
  }

  static Mask cmp(sf::simd::LaneCmp op, const Vec& a, const Vec& b) {
    const std::size_t n = common_size(a, b);
    Mask m(n);
    m.set_ = sf::simd::lanes_compare(path(), op, operand(a, n), operand(b, n), n,
                                     m.words_.data());
    return m;
  }

  /// (a op b) ? a : b per lane, op Le (fmin) or Ge (fmax): a blend under
  /// the comparison's mask, whose lane count also settles the tag.
  static Vec choose(sf::simd::LaneCmp op, const Vec& a, const Vec& b) {
    if (a.is_scalar_ && b.is_scalar_) {
      const bool t = op == sf::simd::LaneCmp::Le ? a.scalar_ <= b.scalar_ : a.scalar_ >= b.scalar_;
      return t ? a : b;
    }
    return blend(cmp(op, a, b), a, b);
  }

  static Vec blend(const Mask& m, const Vec& a, const Vec& b) {
    const std::size_t n = m.size();
    RAPTOR_REQUIRE((a.is_scalar_ || a.v_.size() == n) && (b.is_scalar_ || b.v_.size() == n),
                   "Vec: size mismatch");
    // operand() spreads at most one broadcast; a second one gets its own lanes.
    detail::Lanes<double> spread;
    const double* pb = b.v_.data();
    if (b.is_scalar_) {
      spread = detail::Lanes<double>(n);
      std::fill_n(spread.data(), n, b.scalar_);
      pb = spread.data();
    }
    Vec r(n);
    sf::simd::lanes_blend(path(), m.words_.data(), operand(a, n), pb, n, r.v_.data());
    r.tag_ = joint_tag(a, m.count() > 0, b, m.count() < n);
    return r;
  }

  static Vec bin(rt::OpKind k, const Vec& a, const Vec& b) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_ && b.is_scalar_) return Vec(R.op2(k, a.scalar_, b.scalar_));
    const std::size_t n = common_size(a, b);
    Vec r(n);
    r.tag_ = tag_of(R.op2_lanes(k, a.arg(), b.arg(), r.v_.data(), n));
    return r;
  }

  /// The tag as the runtime takes it (null: none).
  [[nodiscard]] const sf::Format* tag_ptr() const { return tag_ == kUntagged ? nullptr : &tag_; }
  /// This Vec as a batch operand: its lanes and tag, or its one value.
  [[nodiscard]] rt::Runtime::BatchArg arg() const {
    if (is_scalar_) return {nullptr, scalar_, nullptr};
    return {v_.data(), 0.0, tag_ptr()};
  }

  /// No tag. A plain Format rather than std::optional: every Vec operator
  /// writes and copies the tag, and whole-word stores keep that free.
  static constexpr sf::Format kUntagged{0, 0};

  detail::Lanes<double> v_;
  double scalar_ = 0.0;
  bool is_scalar_ = false;
  sf::Format tag_ = kUntagged;  ///< the exactness tag (kUntagged: none)
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

/// Narrows values to one arm's lanes — the `count` lanes whose mask bit is
/// `on` (see branch); a default Pick means every lane and returns a copy.
class Pick {
 public:
  Pick() = default;
  Pick(const Mask& m, bool on, std::size_t count) : m_(&m), on_(on), count_(count) {}
  template <class X>
  [[nodiscard]] X operator()(const X& x) const {
    if (m_ == nullptr) return x;
    if constexpr (std::is_same_v<X, Vec>) {
      return x.compress(*m_, on_, count_);
    } else {
      X out;
      zip_members(out, x, [&](Vec& o, const Vec& v) { o = v.compress(*m_, on_, count_); });
      return out;
    }
  }

 private:
  const Mask* m_ = nullptr;
  bool on_ = true;
  std::size_t count_ = 0;
};

/// The lane form of `if (m) then_arm else else_arm`: each arm runs once,
/// densely, on its own lanes — so it issues and counts exactly the ops the
/// scalar if issues per element — and an arm with no lanes does not run.
/// Each arm is called with a Pick and returns a Vec or an aggregate with
/// members(); the two results are merged back into lane order.
template <class Then, class Else>
auto branch(const Mask& m, Then&& then_arm, Else&& else_arm) {
  const std::size_t n = m.size(), n_on = m.count();
  if (n_on == n) return then_arm(Pick());
  if (n_on == 0) return else_arm(Pick());
  auto out = then_arm(Pick(m, true, n_on));
  const decltype(out) other = else_arm(Pick(m, false, n - n_on));
  const auto merge = [&](Vec& o, const Vec& y) { o = Vec::merge(m, o, y); };
  if constexpr (std::is_same_v<decltype(out), Vec>) {
    merge(out, other);
  } else {
    zip_members(out, other, merge);
  }
  return out;
}

// ---------------------------------------------------------------------------
// native and repeat_while — per-lane bookkeeping and loops
// ---------------------------------------------------------------------------

namespace detail {
inline double lane_of(const Vec& x, std::size_t i) { return x[i]; }
inline double lane_of(double x, std::size_t /*i*/) { return x; }
inline std::size_t lanes_in(const Vec& x) { return x.is_scalar() ? 0 : x.size(); }
inline std::size_t lanes_in(double /*x*/) { return 0; }
}  // namespace detail

/// native (real.hpp) lane by lane, never counted: fn(lane values...) once
/// per lane, in lane order; double arguments and broadcast Vecs give every
/// lane the same value. A double result gives a Vec, a bool result a Mask,
/// and a void fn only visits.
template <class Fn, class... X>
  requires(((std::is_same_v<X, Vec> || std::is_same_v<X, double>) && ...) &&
           (std::is_same_v<X, Vec> || ...))
auto native(Fn&& fn, const X&... x) {
  std::size_t n = 0;
  ((n = std::max(n, detail::lanes_in(x))), ...);
  RAPTOR_REQUIRE(((detail::lanes_in(x) == 0 || detail::lanes_in(x) == n) && ...),
                 "Vec: size mismatch");
  const auto at = [&](std::size_t i) { return fn(detail::lane_of(x, i)...); };
  using R = decltype(at(0));
  if constexpr (std::is_same_v<R, double>) {
    if (n == 0) return Vec(at(0));
    Vec r(n);
    for (std::size_t i = 0; i < n; ++i) r.data()[i] = at(i);
    return r;
  } else if constexpr (std::is_same_v<R, bool>) {
    return Mask::of(std::max<std::size_t>(n, 1), at);
  } else {
    for (std::size_t i = 0; i < std::max<std::size_t>(n, 1); ++i) at(i);
  }
}

/// repeat_while (real.hpp) over lanes: each round runs body on the lanes
/// whose cond bit is set. A round where every lane continues runs on x in
/// place; otherwise the continuing lanes are picked out and loop on in a
/// nested call while the finished ones wait, and branch merges both back in
/// lane order — so the nesting depth is at most the number of rounds.
template <class X, class Cond, class Body>
  requires std::is_same_v<std::invoke_result_t<Cond&, const X&>, Mask>
X repeat_while(X x, Cond&& cond, Body&& body) {
  for (;;) {
    const Mask m = cond(x);
    if (m.count() == 0) return x;
    if (m.count() < m.size()) {
      return branch(
          m, [&](const Pick& pick) { return repeat_while(body(pick(x)), cond, body); },
          [&](const Pick& pick) { return pick(x); });
    }
    x = body(std::move(x));
  }
}

/// native_cast (real.hpp) for Vec: the native lane values themselves.
template <class T>
[[nodiscard]] Vec native_cast(const Vec& v) {
  return v;
}

}  // namespace raptor::batch

namespace raptor {

/// A Vec kernel returns its per-lane counts and flags as native lane values.
template <class T>
struct NativeLanes<batch::Vec, T> {
  using type = batch::Vec;
};

}  // namespace raptor
