// SIMD-vectorized batch truncation kernels (DESIGN.md §13).
//
// fast_round (fast_round.hpp) retires one element per call; the batch
// pipeline's four loop bodies used to walk spans with it one element at a
// time. This header turns the kernel into a *width-agnostic* lane algorithm:
// the RNE round + sticky-bit logic is written once, templated on an ISA
// trait (`lanes::vround` below), and instantiated per vector extension in
// dedicated translation units compiled with the matching target flags
// (fast_round_simd_avx2.cpp at 4 × u64 lanes, fast_round_simd_avx512.cpp at
// 8 lanes). A portable scalar fallback — per-element calls into the proven
// sf::fast_* kernels, i.e. exactly the pre-SIMD batch loop bodies — is
// always built, so non-x86 targets and toolchains without AVX support keep
// working unchanged.
//
// Dispatch: the preferred path is detected once by CPUID (best_path) and can
// be overridden by the RAPTOR_SIMD environment variable or programmatically
// (Runtime::force_simd_path). Forcing a path the binary or the CPU does not
// support falls back cleanly to the default path instead of executing
// illegal instructions; resolve_path() centralizes that rule and
// Runtime::simd_path() reports the kernel actually selected.
//
// Bit-exactness contract: every path produces results bit-identical to the
// scalar sf::fast_round / fast_add / ... kernels (and therefore to the
// BigFloat reference) for every input, including NaN canonicalization,
// signed zero, gradual underflow into double subnormals, and
// overflow-to-inf. tests/test_simd_parity.cpp pins this with exhaustive
// fp16-pattern sweeps and >= 1M random fp64 inputs per format on every
// available path. Envelopes are the caller's job, exactly as for the scalar
// kernels: every op but Fma requires fast_round_supports(fmt) (exp <= 11,
// man <= 52); Fma requires fast_fma_supports (exp <= 9, man <= 24). Which
// kernel runs is decided once per span: man_bits <= 24 takes the
// double-rounding kernels, man_bits > 24 the tie-breaking ones (each op's
// error recovered with an error-free transform, vround_tie below). One
// check remains inside the kernels at exp_bits == 11: lanes whose fast
// argument fails near double's underflow (man_bits <= 24: a Mul whose
// hardware product is a nonzero double subnormal; man_bits > 24: a Mul
// product, or a Div dividend or Sqrt radicand, nonzero and below 2^-968)
// are masked and recomputed through BigFloat from the operands the kernel
// loaded, which keeps in-place spans legal.
//
// Exact operands: op-mode rounds each operand into the format before the
// operation, but an operand that a fast-path op just produced in the same
// format is already a fixed point of that round. span_exec's `exact` mask
// flags such operands (bit 0: a, bit 1: b); the vector kernels then load
// them without vround, through one of four compile-time variants of each
// loop chosen once per span like the kernel family. Results are unchanged
// because the skipped round is the identity; the exp_bits == 11 guards
// read the operands as loaded, which are the same values. Round and Fma
// ignore the mask, and so does the portable path, whose per-element fast_*
// calls round internally. Builds without NDEBUG check every flagged
// operand with one Round span and a bitwise compare.
//
// Tail strategy: each span kernel streams full vectors and finishes the
// remaining n % width elements as one more vector — the span's last `width`
// elements (computed before the full vectors are stored, so in-place spans
// stay legal), or for a span shorter than a vector its elements padded with
// 1.0; the extra lanes are computed and dropped. Lanes never interact, so
// span results never depend on where the vector/tail boundary falls (pinned
// by the edge-span tests) — and short spans, such as the arms of a
// batch::branch, pay no per-element scalar calls.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "softfloat/fast_round.hpp"

namespace raptor::sf::simd {

/// Dispatchable kernel implementations, ordered by preference. Portable is
/// always available; the vector paths exist only when the compiler could
/// build them AND the CPU reports the extension at runtime.
enum class Path : u8 { Portable = 0, Avx2 = 1, Avx512 = 2 };

/// Element-wise span operations backing the four batch loop bodies.
/// Operand use: Round/Neg/Sqrt read `a`; Add/Sub/Mul/Div read `a`,`b`;
/// Fma reads `a`,`b`,`c`. Unused operand pointers may be null.
enum class SpanOp : u8 { Round, Add, Sub, Mul, Div, Neg, Sqrt, Fma };

/// True if `p` can execute on this binary and this CPU (compile-time target
/// support and runtime CPUID both checked). Portable is always true.
[[nodiscard]] bool path_supported(Path p);

/// The fastest supported path (CPUID detection, cached).
[[nodiscard]] Path best_path();

/// best_path() unless the RAPTOR_SIMD environment variable names a
/// supported path ("portable" / "avx2" / "avx512", case-insensitive; an
/// unsupported or unparsable value logs a warning once and is ignored).
/// Read once and cached: the CI forced-portable pass and non-x86 users rely
/// on this being sticky across Runtime::reset_all().
[[nodiscard]] Path default_path();

/// Resolve a force request against what is actually executable: the
/// requested path if supported, otherwise default_path() — never a path
/// whose instructions would fault.
[[nodiscard]] Path resolve_path(std::optional<Path> requested);

[[nodiscard]] const char* path_name(Path p);
[[nodiscard]] std::optional<Path> parse_path(std::string_view s);

/// Execute `op` element-wise over [0, n) on path `p`, writing out[i]. Spans
/// may alias exactly (out == a etc.); partial overlap is undefined, as for
/// the Runtime batch entry points. Defensive: an unsupported `p` (e.g. a
/// stale forced value on foreign hardware) silently falls back to
/// default_path(). `exact` bit 0 (1) promises that every element of `a`
/// (`b`) is a fixed point of the span's rounding, bit for bit, so the
/// vector paths load it unrounded; see "Exact operands" above.
void span_exec(Path p, SpanOp op, const double* a, const double* b, const double* c,
               double* out, std::size_t n, const RoundSpec& spec, unsigned exact = 0);

// ===========================================================================
// Lane movement for batch::Vec masks and branches (DESIGN.md §13)
// ===========================================================================
//
// Exact copies — no rounding, no counting: the comparisons behind
// batch::Mask, the compress/merge pair behind batch::branch, Pick and fabs,
// and the blend behind batch::select. A mask holds one bit per lane, lane i
// in bit i % 64 of word i / 64; bits past n in the last word are zero. The
// AVX-512 path moves eight lanes per instruction (VCMPPD into a k-mask,
// VCOMPRESSPD, VEXPANDPD, VBLENDMPD); every other path runs the portable
// loops. Like span_exec, an unsupported `p` falls back to default_path().

/// The Vec comparisons (IEEE ordered: a NaN lane compares false).
enum class LaneCmp : u8 { Le, Ge, Lt };

/// mask bit i = (a[i] op b[i]) for i in [0, n), against +0.0 where `b` is
/// null; writes (n + 63) / 64 words and returns how many bits it set.
std::size_t lanes_compare(Path p, LaneCmp op, const double* a, const double* b, std::size_t n,
                          u64* mask);

/// Copy the lanes i of `in` whose mask bit equals `on` to out[0, 1, ...],
/// in lane order; returns how many there were.
std::size_t lanes_compress(Path p, const double* in, const u64* mask, bool on, std::size_t n,
                           double* out);

/// out[i] = mask bit i ? a[i] : b[i] for i in [0, n).
void lanes_blend(Path p, const u64* mask, const double* a, const double* b, std::size_t n,
                 double* out);

/// The inverse of a compress on each side: out[i] = the next of on_vals
/// where mask bit i is set, the next of off_vals where it is clear — or, if
/// `off_vals` is null, out[i] unchanged there.
void lanes_merge(Path p, const double* on_vals, const double* off_vals, const u64* mask,
                 std::size_t n, double* out);

// ===========================================================================
// lanes:: — the width-agnostic kernel, templated on an ISA trait
// ===========================================================================
//
// The ISA trait supplies u64-lane integer ops, double-lane FP ops and a lane
// mask type:
//
//   static constexpr std::size_t width;       // lanes per vector
//   using vf;  using vi;  using vb;           // f64 / u64 / mask vectors
//   vf  loadu(const double*);  void storeu(double*, vf);
//   vi  b64(i64);                             // broadcast
//   vi  cast_i(vf);  vf cast_f(vi);           // bitcasts
//   vi  and_/or_/xor_(vi, vi);  vi andnot(vi a, vi b);       // andnot = ~a & b
//   vi  add/sub(vi, vi);                      // 64-bit lanes
//   template <int N> vi srl/sll(vi);          // immediate shifts
//   vi  srlv/sllv(vi, vi);                    // per-lane; count > 63 -> 0
//   vb  eq/gt(vi, vi);                        // gt is SIGNED 64-bit
//   vb  andm/orm(vb, vb);  vb notm(vb);
//   bool all(vb);                             // every lane set?
//   vi  blend(vb m, vi t, vi f);              // m ? t : f, per lane
//   vf  addf/subf/mulf/divf(vf, vf);  vf sqrtf_(vf);
//   vf  fmsub(vf a, vf b, vf c);              // a * b - c, one rounding
//   vf  fnmadd(vf a, vf b, vf c);             // c - a * b, one rounding
//   vi  floor_log2(vi v);                     // exact for 1 <= v <= 2^52;
//                                             // v == 0 may return anything
//
// The srlv/sllv zero-for-large-counts rule (matching the AVX VPSRLVQ /
// VPSLLVQ semantics) is load-bearing: the branchless algorithm deliberately
// lets out-of-range shift counts produce zero lanes that the final blends
// discard, so a scalar emulation of the trait must implement it explicitly
// rather than using C++ shifts (which would be UB there).
//
// The algorithm is the fast_round.hpp bit manipulation with every branch
// converted to a lane mask; the comments there carry the numerical
// justification, the notes here only map branches to blends.

namespace lanes {

/// RoundSpec and the kernel's bit-manipulation constants pre-broadcast to
/// lanes, hoisted out of the per-vector kernel (one VSpec per span call).
template <class I>
struct VSpec {
  using vi = typename I::vi;
  vi sign;      ///< 1 << 63
  vi frac;      ///< (1 << 52) - 1
  vi hidden;    ///< 1 << 52
  vi expf;      ///< 0x7FF
  vi inf;       ///< 0x7FF << 52
  vi qnan;      ///< canonical positive quiet NaN (== bits of std::nan(""))
  vi zero, one, minus_one;
  vi c52, c1023, c1075;
  vi m1022, m1074;  ///< -1022, -1074
  vi man_bits, emax, emin_sub;

  // Common-case constants (see the fast branch in vround): for a NORMAL lane
  // whose exponent e_msb lies in [emin, emax], lsb = e_msb - man_bits and
  // q = e_msb - 52, so drop = 52 - man_bits — the same for every such lane.
  // That turns RNE into the constant-shift significand trick and makes the
  // whole general chain skippable when a vector is all common-case.
  int cdrop;        ///< 52 - man_bits
  vi cdrop_v;       ///< broadcast of cdrop (srlv count)
  vi fast_lo_m1;    ///< emin + 1023 - 1: exclusive lower biased-exponent bound
  vi fast_hi;       ///< emax + 1023: largest biased exponent of a fast lane
  vi fast_hi_p1;    ///< emax + 1023 + 1: exclusive upper bound
  vi fast_half_m1;  ///< (1 << (cdrop - 1)) - 1 (cdrop >= 1 only)
  vi fast_keep;     ///< ~((1 << cdrop) - 1)

  explicit VSpec(const RoundSpec& s)
      : sign(I::b64(static_cast<i64>(u64{1} << 63))),
        frac(I::b64(static_cast<i64>((u64{1} << 52) - 1))),
        hidden(I::b64(i64{1} << 52)),
        expf(I::b64(0x7FF)),
        inf(I::b64(static_cast<i64>(u64{0x7FF} << 52))),
        qnan(I::b64(static_cast<i64>(u64{0x7FF8} << 48))),
        zero(I::b64(0)),
        one(I::b64(1)),
        minus_one(I::b64(-1)),
        c52(I::b64(52)),
        c1023(I::b64(1023)),
        c1075(I::b64(1075)),
        m1022(I::b64(-1022)),
        m1074(I::b64(-1074)),
        man_bits(I::b64(s.man_bits)),
        emax(I::b64(s.emax)),
        emin_sub(I::b64(s.emin_sub)),
        cdrop(52 - s.man_bits),
        cdrop_v(I::b64(cdrop)),
        // emin = emin_sub + man_bits (Format::emin_subnormal definition).
        fast_lo_m1(I::b64(s.emin_sub + s.man_bits + 1023 - 1)),
        fast_hi(I::b64(s.emax + 1023)),
        fast_hi_p1(I::b64(s.emax + 1023 + 1)),
        fast_half_m1(I::b64(cdrop >= 1 ? (i64{1} << (cdrop - 1)) - 1 : 0)),
        fast_keep(I::b64(static_cast<i64>(~((u64{1} << cdrop) - 1)))) {}
};

/// The body of vround and vround_tie. With kTie, lane i of `t` is the
/// error of x's lane i as in the scalar sf::fast_round(x, t, spec): zero
/// when x is exact, else its sign breaks the ties x lands on. Without kTie
/// `t` is ignored and ties go to even.
template <class I, bool kTie>
[[gnu::always_inline]] inline typename I::vf round_lanes(typename I::vf x,
                                                         [[maybe_unused]] typename I::vf t,
                                                         const VSpec<I>& S) {
  using vi = typename I::vi;
  using vb = typename I::vb;

  const vi bits = I::cast_i(x);
  const vi ef = I::and_(I::template srl<52>(bits), S.expf);

  // Common-case branch: every lane either normal with e_msb in [emin, emax]
  // or a signed zero — excludes double subnormals, inf/NaN, gradual
  // underflow into the format's subnormal range, and inputs beyond emax.
  // For the normal lanes the drop count is the per-span constant
  // 52 - man_bits, so RNE collapses to the significand bump
  // bits + ((bits >> drop) & 1) + (half - 1) with the low bits masked off: a
  // mantissa carry ripples into the exponent field exactly as rounding
  // demands, and the one case that needs fixing up — carry past emax — is
  // caught by re-reading the exponent (it can only land at emax + 1, where
  // the mantissa field is all zero, so for an 11-bit-exponent format the
  // carried pattern already IS the infinity). A ±0 lane comes out of the
  // same arithmetic unchanged: its bump is half - 1 < 2^drop, which `keep`
  // masks off again, and the sign bit is never touched — so quiescent data
  // (zero velocities, exact cancellations) stays on this branch too; the
  // zero test runs only for vectors that fail the exponent test, so
  // zero-free spans pay nothing for it. Real spans are overwhelmingly
  // homogeneous, so the whole-vector test predicts well; any odd lane falls
  // through to the general chain below.
  vb in_range = I::andm(I::gt(ef, S.fast_lo_m1), I::gt(S.fast_hi_p1, ef));
  if (!I::all(in_range)) in_range = I::orm(in_range, I::eq(I::template sll<1>(bits), S.zero));
  if (I::all(in_range)) [[likely]] {
    if (S.cdrop == 0) return x;  // man_bits == 52: every fast lane is exact
    // The tie bit: the kept LSB (ties to even), or with kTie, where t != 0,
    // whether t has x's sign (the exact value lies beyond the midpoint).
    vi tie = I::and_(I::srlv(bits, S.cdrop_v), S.one);
    if constexpr (kTie) {
      const vi tb = I::cast_i(t);
      const vi same = I::xor_(I::template srl<63>(I::xor_(tb, bits)), S.one);
      tie = I::blend(I::notm(I::eq(I::andnot(S.sign, tb), S.zero)), same, tie);
    }
    const vi bump = I::add(tie, S.fast_half_m1);
    vi r = I::and_(I::add(bits, bump), S.fast_keep);
    const vi ref = I::and_(I::template srl<52>(r), S.expf);
    r = I::blend(I::gt(ref, S.fast_hi), I::or_(I::and_(bits, S.sign), S.inf), r);
    return I::cast_f(r);
  }

  const vi sign = I::and_(bits, S.sign);
  const vi mag = I::andnot(S.sign, bits);
  const vi frac = I::and_(bits, S.frac);

  const vb special = I::eq(ef, S.expf);  // inf or NaN
  const vb zero = I::eq(mag, S.zero);
  const vb norm = I::notm(I::eq(ef, S.zero));

  // Decompose into m * 2^q with the unbiased MSB exponent e_msb; subnormal
  // lanes locate their MSB with floor_log2 instead of countl_zero.
  const vi m = I::blend(norm, I::or_(frac, S.hidden), frac);
  const vi q = I::blend(norm, I::sub(ef, S.c1075), S.m1074);
  const vi e_msb =
      I::blend(norm, I::sub(ef, S.c1023), I::add(I::floor_log2(frac), S.m1074));

  // lsb = max(e_msb - man_bits, emin_sub); drop = lsb - q.
  const vi lsb0 = I::sub(e_msb, S.man_bits);
  const vi lsb = I::blend(I::gt(lsb0, S.emin_sub), lsb0, S.emin_sub);
  const vi drop = I::sub(lsb, q);
  const vb has_drop = I::gt(drop, S.zero);

  // Exact lanes (scalar branches "drop <= 0" and "dropped == 0"): for
  // drop <= 0 the mask computes as all-ones and dropped == m != 0, so the
  // has_drop clause alone selects them; for drop > 63 sllv yields 0 and
  // dropped == m != 0 keeps the lane on the rounding path, where kept
  // collapses to 0 (the scalar "underflow to zero" early-out).
  const vi drop_mask = I::sub(I::sllv(S.one, drop), S.one);
  const vi dropped = I::and_(m, drop_mask);
  const vb exact = I::orm(I::notm(has_drop), I::eq(dropped, S.zero));

  // RNE on the integer significand: round up on the half bit when sticky
  // bits remain below it or the kept LSB is odd.
  const vi half = I::sllv(S.one, I::sub(drop, S.one));
  const vi kept0 = I::srlv(m, drop);
  const vi below = I::and_(m, I::sub(half, S.one));
  const vb hit_half = I::notm(I::eq(I::and_(m, half), S.zero));
  vb tie_up = I::notm(I::eq(I::and_(kept0, S.one), S.zero));
  if constexpr (kTie) {
    const vi tb = I::cast_i(t);
    const vb t_nonzero = I::notm(I::eq(I::andnot(S.sign, tb), S.zero));
    const vb same = I::eq(I::and_(I::xor_(tb, bits), S.sign), S.zero);
    tie_up = I::orm(I::andm(t_nonzero, same), I::andm(I::notm(t_nonzero), tie_up));
  }
  const vb sticky = I::orm(I::notm(I::eq(below, S.zero)), tie_up);
  const vb round_up = I::andm(hit_half, sticky);
  const vi kept = I::add(kept0, I::blend(round_up, S.one, S.zero));
  const vb kzero = I::eq(kept, S.zero);

  // Reassemble: kept <= 2^52, so floor_log2 is exact and the result MSB
  // position nm gives e2 = lsb + nm.
  const vi nm = I::floor_log2(kept);
  const vi e2 = I::add(lsb, nm);
  const vb r_over = I::gt(e2, S.emax);
  const vb r_sub = I::gt(S.m1022, e2);  // e2 < -1022: double-subnormal result

  const vi norm_bits =
      I::or_(sign, I::or_(I::template sll<52>(I::add(e2, S.c1023)),
                          I::and_(I::sllv(kept, I::sub(S.c52, nm)), S.frac)));
  const vi sub_bits = I::or_(sign, I::sllv(kept, I::sub(lsb, S.m1074)));
  vi rounded = I::blend(r_sub, sub_bits, norm_bits);
  rounded = I::blend(r_over, I::or_(sign, S.inf), rounded);
  rounded = I::blend(kzero, sign, rounded);

  // Exact lanes still overflow when e_msb > emax (scalar branch order).
  const vi exact_bits = I::blend(I::gt(e_msb, S.emax), I::or_(sign, S.inf), bits);

  vi out = I::blend(exact, exact_bits, rounded);
  out = I::blend(zero, bits, out);
  const vb is_nan = I::andm(special, I::notm(I::eq(frac, S.zero)));
  out = I::blend(special, bits, out);  // +-inf passes through
  out = I::blend(is_nan, S.qnan, out);
  return I::cast_f(out);
}

/// fast_round across lanes: RNE round of each lane into the format described
/// by `S`, widened back to double. Bit-identical to sf::fast_round per lane
/// over the full fast_round_supports envelope (exp <= 11, man <= 52),
/// including double-subnormal inputs AND outputs. Always inlined, like
/// vround_tie: with four exact-operand variants per kernel family GCC
/// stopped inlining it on its own, and the out-of-line calls (reloading
/// `S` per vector) made untagged Add spans 15-50% slower.
template <class I>
[[nodiscard, gnu::always_inline]] inline typename I::vf vround(typename I::vf x,
                                                               const VSpec<I>& S) {
  return round_lanes<I, false>(x, x, S);
}

/// sf::fast_round(s, t, spec) across lanes: the round of an op's exact
/// value from its hardware result `s` and the error `t` of s (only t's
/// sign and whether it is zero are read).
template <class I>
[[nodiscard, gnu::always_inline]] inline typename I::vf vround_tie(typename I::vf s,
                                                                   typename I::vf t,
                                                                   const VSpec<I>& S) {
  return round_lanes<I, true>(s, t, S);
}

/// The exact error of the lane sums s = a + b (TwoSum, as sf::two_sum_err).
template <class I>
[[nodiscard]] inline typename I::vf two_sum_err(typename I::vf a, typename I::vf b,
                                                typename I::vf s) {
  const typename I::vf bv = I::subf(s, a);
  const typename I::vf av = I::subf(s, bv);
  return I::addf(I::subf(a, av), I::subf(b, bv));
}

/// fast_fma across lanes: exact product + TwoSum error recovery + round of
/// the 53-bit intermediate to odd, mirroring sf::fast_fma lane for lane.
/// The scalar kernel's nextafter(s, +-inf) is the IEEE bit-ordering step:
/// +1 ulp away from zero when sign(s) == sign(e), -1 ulp toward zero
/// otherwise (s != 0 whenever e != 0, so the zero crossing never happens).
template <class I>
[[nodiscard]] inline typename I::vf vfma(typename I::vf a, typename I::vf b,
                                         typename I::vf c, const VSpec<I>& S) {
  using vi = typename I::vi;
  using vb = typename I::vb;

  const typename I::vf af = vround<I>(a, S);
  const typename I::vf bf = vround<I>(b, S);
  const typename I::vf cf = vround<I>(c, S);
  const typename I::vf p = I::mulf(af, bf);  // exact: 2 * precision <= 50 bits
  const typename I::vf s = I::addf(p, cf);

  const vi sbits = I::cast_i(s);
  const vb fin = I::notm(I::eq(I::and_(I::template srl<52>(sbits), S.expf), S.expf));
  // Knuth TwoSum error of the 53-bit addition (finite lanes only; non-finite
  // lanes compute garbage that `fin` discards).
  const typename I::vf bv = I::subf(s, p);
  const typename I::vf av = I::subf(s, bv);
  const typename I::vf e = I::addf(I::subf(p, av), I::subf(cf, bv));
  const vi ebits = I::cast_i(e);
  const vb enz = I::notm(I::eq(I::andnot(S.sign, ebits), S.zero));  // e != +-0.0
  const vb even = I::eq(I::and_(sbits, S.one), S.zero);
  const vb adjust = I::andm(fin, I::andm(enz, even));

  const vb away = I::eq(I::and_(sbits, S.sign), I::and_(ebits, S.sign));
  const vi delta = I::blend(away, S.one, S.minus_one);
  const vi s2 = I::blend(adjust, I::add(sbits, delta), sbits);
  return vround<I>(I::cast_f(s2), S);
}

/// An operand as the op sees it: rounded into the format, unless kExact
/// says it already is a fixed point of that round.
template <class I, bool kExact>
[[gnu::always_inline]] inline typename I::vf operand(typename I::vf x, const VSpec<I>& S) {
  if constexpr (kExact) {
    return x;
  } else {
    return vround<I>(x, S);
  }
}

/// The span ops over whole vectors: n must be a multiple of the lane width.
/// kExact is span_exec's mask (bit 0: `a` exact, bit 1: `b` exact).
/// Always inlined into span_impl, so the per-span constants in `S` stay in
/// registers across the loop (an out-of-line call measured ~25% slower).
template <class I, unsigned kExact>
[[gnu::always_inline]] inline void span_vectors(SpanOp op, const double* a, const double* b,
                                                const double* c, double* out, std::size_t n,
                                                const RoundSpec& sp, const VSpec<I>& S) {
  constexpr std::size_t W = I::width;
  constexpr bool kA = (kExact & 1U) != 0, kB = (kExact & 2U) != 0;
  std::size_t i = 0;
  switch (op) {
    case SpanOp::Round:
      for (; i < n; i += W) I::storeu(out + i, vround<I>(I::loadu(a + i), S));
      break;
    case SpanOp::Add:
      for (; i < n; i += W) {
        I::storeu(out + i, vround<I>(I::addf(operand<I, kA>(I::loadu(a + i), S),
                                             operand<I, kB>(I::loadu(b + i), S)),
                                     S));
      }
      break;
    case SpanOp::Sub:
      for (; i < n; i += W) {
        I::storeu(out + i, vround<I>(I::subf(operand<I, kA>(I::loadu(a + i), S),
                                             operand<I, kB>(I::loadu(b + i), S)),
                                     S));
      }
      break;
    case SpanOp::Mul:
      for (; i < n; i += W) {
        const typename I::vf xa = I::loadu(a + i);
        const typename I::vf xb = I::loadu(b + i);
        const typename I::vf p = I::mulf(operand<I, kA>(xa, S), operand<I, kB>(xb, S));
        I::storeu(out + i, vround<I>(p, S));
        if (sp.guard_tiny) {
          // fast_mul's exp_bits == 11 guard as a lane mask: a nonzero
          // product with a zero exponent field is a double subnormal. The
          // operands come from registers, so in-place spans stay legal.
          // BigFloat rounds them itself, exact or not.
          const typename I::vi pb = I::cast_i(p);
          const typename I::vb hit =
              I::andm(I::eq(I::and_(I::template srl<52>(pb), S.expf), S.zero),
                      I::notm(I::eq(I::andnot(S.sign, pb), S.zero)));
          if (!I::all(I::notm(hit))) [[unlikely]] {
            double ta[W], tb[W], tp[W];
            I::storeu(ta, xa);
            I::storeu(tb, xb);
            I::storeu(tp, p);
            for (std::size_t j = 0; j < W; ++j) {
              if (double_subnormal(tp[j])) out[i + j] = trunc_mul(ta[j], tb[j], sp.format());
            }
          }
        }
      }
      break;
    case SpanOp::Div:
      for (; i < n; i += W) {
        I::storeu(out + i, vround<I>(I::divf(operand<I, kA>(I::loadu(a + i), S),
                                             operand<I, kB>(I::loadu(b + i), S)),
                                     S));
      }
      break;
    case SpanOp::Neg:
      // Negation is the sign-bit flip (also on NaN), as the scalar kernel's
      // `-fast_round(a)`; the outer round only re-canonicalizes NaN.
      for (; i < n; i += W) {
        const typename I::vi r = I::cast_i(operand<I, kA>(I::loadu(a + i), S));
        I::storeu(out + i, vround<I>(I::cast_f(I::xor_(r, S.sign)), S));
      }
      break;
    case SpanOp::Sqrt:
      for (; i < n; i += W) {
        I::storeu(out + i, vround<I>(I::sqrtf_(operand<I, kA>(I::loadu(a + i), S)), S));
      }
      break;
    case SpanOp::Fma:
      for (; i < n; i += W) {
        I::storeu(out + i, vfma<I>(I::loadu(a + i), I::loadu(b + i), I::loadu(c + i), S));
      }
      break;
  }
}

/// The lanes of one vector whose fast argument fails near double's
/// underflow (`key` nonzero and below 2^-968: a man_bits > 24 product,
/// dividend or radicand at exp_bits == 11), recomputed by `ref` through
/// BigFloat from the operands as loaded.
template <class I, class Ref>
inline void fix_tiny_lanes(typename I::vf xa, typename I::vf xb, typename I::vf key,
                           double* out, const VSpec<I>& S, Ref ref) {
  constexpr std::size_t W = I::width;
  const typename I::vi kb = I::cast_i(key);
  // Biased exponent below kTinyErrorBound's, magnitude nonzero.
  const auto bound_exp = static_cast<i64>(std::bit_cast<u64>(kTinyErrorBound) >> 52);
  const typename I::vb hit =
      I::andm(I::gt(I::b64(bound_exp), I::and_(I::template srl<52>(kb), S.expf)),
              I::notm(I::eq(I::andnot(S.sign, kb), S.zero)));
  if (I::all(I::notm(hit))) [[likely]] return;
  double ta[W], tb[W], tk[W];
  I::storeu(ta, xa);
  I::storeu(tb, xb);
  I::storeu(tk, key);
  for (std::size_t j = 0; j < W; ++j) {
    if (tiny_operand(tk[j])) out[j] = ref(ta[j], tb[j]);
  }
}

/// The man_bits > 24 arithmetic ops over whole vectors: each keeps its
/// hardware result and breaks target ties with the result's error,
/// recovered exactly (TwoSum; fma TwoProd; the fma remainders of div and
/// sqrt, whose sign times the divisor's is the sign of the error) — lane
/// for lane the scalar fast_add/sub/mul/div/sqrt. Round, Neg and Fma are
/// the same kernels at every precision.
template <class I, unsigned kExact>
[[gnu::always_inline]] inline void span_vectors_tie(SpanOp op, const double* a, const double* b,
                                                    const double* c, double* out, std::size_t n,
                                                    const RoundSpec& sp, const VSpec<I>& S) {
  using vf = typename I::vf;
  constexpr std::size_t W = I::width;
  constexpr bool kA = (kExact & 1U) != 0, kB = (kExact & 2U) != 0;
  std::size_t i = 0;
  switch (op) {
    case SpanOp::Add:
      for (; i < n; i += W) {
        const vf x = operand<I, kA>(I::loadu(a + i), S), y = operand<I, kB>(I::loadu(b + i), S);
        const vf s = I::addf(x, y);
        I::storeu(out + i, vround_tie<I>(s, two_sum_err<I>(x, y, s), S));
      }
      break;
    case SpanOp::Sub:
      for (; i < n; i += W) {
        const vf x = operand<I, kA>(I::loadu(a + i), S), y = operand<I, kB>(I::loadu(b + i), S);
        const vf s = I::subf(x, y);
        const vf neg_y = I::cast_f(I::xor_(I::cast_i(y), S.sign));
        I::storeu(out + i, vround_tie<I>(s, two_sum_err<I>(x, neg_y, s), S));
      }
      break;
    case SpanOp::Mul:
      for (; i < n; i += W) {
        const vf xa = I::loadu(a + i), xb = I::loadu(b + i);
        const vf x = operand<I, kA>(xa, S), y = operand<I, kB>(xb, S);
        const vf p = I::mulf(x, y);
        I::storeu(out + i, vround_tie<I>(p, I::fmsub(x, y, p), S));
        if (sp.guard_tiny) {
          fix_tiny_lanes<I>(xa, xb, p, out + i, S, [&](double u, double v) {
            return trunc_mul(u, v, sp.format());
          });
        }
      }
      break;
    case SpanOp::Div:
      for (; i < n; i += W) {
        const vf xa = I::loadu(a + i), xb = I::loadu(b + i);
        const vf x = operand<I, kA>(xa, S), y = operand<I, kB>(xb, S);
        const vf q = I::divf(x, y);
        const typename I::vi rem = I::cast_i(I::fnmadd(q, y, x));
        const vf err = I::cast_f(I::xor_(rem, I::and_(I::cast_i(y), S.sign)));
        I::storeu(out + i, vround_tie<I>(q, err, S));
        if (sp.guard_tiny) {
          fix_tiny_lanes<I>(xa, xb, x, out + i, S, [&](double u, double v) {
            return trunc_div(u, v, sp.format());
          });
        }
      }
      break;
    case SpanOp::Sqrt:
      for (; i < n; i += W) {
        const vf xa = I::loadu(a + i);
        const vf x = operand<I, kA>(xa, S);
        const vf r = I::sqrtf_(x);
        I::storeu(out + i, vround_tie<I>(r, I::fnmadd(r, r, x), S));
        if (sp.guard_tiny) {
          fix_tiny_lanes<I>(xa, xa, x, out + i, S,
                            [&](double u, double) { return trunc_sqrt(u, sp.format()); });
        }
      }
      break;
    default:
      span_vectors<I, kExact>(op, a, b, c, out, n, sp, S);
      break;
  }
}

/// One kernel family over whole vectors: span_vectors_tie when kTie, else
/// span_vectors. One out-of-line copy per variant (span_driver calls it up
/// to twice per span); the per-span constants are built here, so they stay
/// in registers across the loop.
template <class I, bool kTie, unsigned kExact>
[[gnu::noinline]] void vectors(SpanOp op, const double* a, const double* b, const double* c,
                               double* out, std::size_t n, const RoundSpec& sp) {
  const VSpec<I> S(sp);
  if constexpr (kTie) {
    span_vectors_tie<I, kExact>(op, a, b, c, out, n, sp, S);
  } else {
    span_vectors<I, kExact>(op, a, b, c, out, n, sp, S);
  }
}

/// Span driver shared by the per-ISA translation units: full vectors through
/// the lane kernels, and the n % width tail as one more vector. A span of at
/// least one vector takes its tail from its last `width` elements, computed
/// before any full vector is stored (so in-place spans read intact inputs)
/// and kept only for the tail lanes; a shorter span is padded with 1.0 (in
/// every format's range, so the padding keeps the vector on vround's
/// common-case branch) through stack buffers.
template <class I, bool kTie, unsigned kExact>
inline void span_driver(SpanOp op, const double* a, const double* b, const double* c,
                        double* out, std::size_t n, const RoundSpec& sp) {
  constexpr std::size_t W = I::width;
  const std::size_t full = n - n % W;
  if (full == n) {
    vectors<I, kTie, kExact>(op, a, b, c, out, n, sp);
    return;
  }
  const std::size_t left = n - full;
  double to[W];
  if (n >= W) {
    const std::size_t at = n - W;
    vectors<I, kTie, kExact>(op, a + at, b != nullptr ? b + at : nullptr,
                             c != nullptr ? c + at : nullptr, to, W, sp);
    vectors<I, kTie, kExact>(op, a, b, c, out, full, sp);
    for (std::size_t j = 0; j < left; ++j) out[full + j] = to[W - left + j];
    return;
  }
  double ta[W], tb[W], tc[W];
  for (std::size_t j = 0; j < W; ++j) {
    ta[j] = j < n ? a[j] : 1.0;
    tb[j] = j < n && b != nullptr ? b[j] : 1.0;
    tc[j] = j < n && c != nullptr ? c[j] : 1.0;
  }
  vectors<I, kTie, kExact>(op, ta, tb, tc, to, W, sp);
  for (std::size_t j = 0; j < n; ++j) out[j] = to[j];
}

/// span_driver with the exact-operand mask turned into its compile-time
/// variant. Round and Fma always round their operands.
template <class I, bool kTie>
inline void span_masked(SpanOp op, const double* a, const double* b, const double* c,
                        double* out, std::size_t n, const RoundSpec& sp, unsigned exact) {
  switch (op == SpanOp::Round || op == SpanOp::Fma ? 0U : exact & 3U) {
    case 1:
      span_driver<I, kTie, 1>(op, a, b, c, out, n, sp);
      return;
    case 2:
      span_driver<I, kTie, 2>(op, a, b, c, out, n, sp);
      return;
    case 3:
      span_driver<I, kTie, 3>(op, a, b, c, out, n, sp);
      return;
    default:
      span_driver<I, kTie, 0>(op, a, b, c, out, n, sp);
      return;
  }
}

/// The span entry of the per-ISA translation units: the kernel family and
/// the exact-operand variant are chosen once per span.
template <class I>
inline void span_impl(SpanOp op, const double* a, const double* b, const double* c,
                      double* out, std::size_t n, const RoundSpec& sp, unsigned exact) {
  if (sp.tie_break) {
    span_masked<I, true>(op, a, b, c, out, n, sp, exact);
  } else {
    span_masked<I, false>(op, a, b, c, out, n, sp, exact);
  }
}

}  // namespace lanes

namespace detail {

// Per-ISA instantiations of lanes::span_impl, each defined in a translation
// unit compiled with the matching target flags (and only when CMake found
// the compiler supports them — see RAPTOR_SIMD_HAVE_AVX2 / _AVX512).
// Referenced exclusively through span_exec after path_supported() gating.
void span_avx2(SpanOp op, const double* a, const double* b, const double* c, double* out,
               std::size_t n, const RoundSpec& spec, unsigned exact);
void span_avx512(SpanOp op, const double* a, const double* b, const double* c, double* out,
                 std::size_t n, const RoundSpec& spec, unsigned exact);
std::size_t lanes_compare_avx512(LaneCmp op, const double* a, const double* b, std::size_t n,
                                 u64* mask);
std::size_t lanes_compress_avx512(const double* in, const u64* mask, bool on, std::size_t n,
                                  double* out);
void lanes_merge_avx512(const double* on_vals, const double* off_vals, const u64* mask,
                        std::size_t n, double* out);
void lanes_blend_avx512(const u64* mask, const double* a, const double* b, std::size_t n,
                        double* out);

}  // namespace detail

}  // namespace raptor::sf::simd
