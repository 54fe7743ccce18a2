// AVX2 instantiation of the width-agnostic truncation kernel: 4 x u64 lanes,
// lane masks carried as all-ones/all-zero __m256i (VPBLENDVB selects per
// byte, which is safe because every mask byte within a lane agrees). The
// man_bits > 24 kernels recover their error terms with FMA3 (VFMSUB /
// VFNMADD).
//
// Compiled with -mavx2 -mfma in this TU only; reached exclusively through
// simd::span_exec after the CPUID gate for both extensions (see
// fast_round_simd.cpp), so no illegal instruction can execute on a host
// without them.
#include "softfloat/fast_round_simd.hpp"

#include <immintrin.h>

namespace raptor::sf::simd::detail {

namespace {

struct IsaAvx2 {
  static constexpr std::size_t width = 4;
  using vf = __m256d;
  using vi = __m256i;
  using vb = __m256i;

  static vf loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, vf v) { _mm256_storeu_pd(p, v); }
  static vi b64(i64 x) { return _mm256_set1_epi64x(x); }
  static vi cast_i(vf v) { return _mm256_castpd_si256(v); }
  static vf cast_f(vi v) { return _mm256_castsi256_pd(v); }

  static vi and_(vi a, vi b) { return _mm256_and_si256(a, b); }
  static vi or_(vi a, vi b) { return _mm256_or_si256(a, b); }
  static vi xor_(vi a, vi b) { return _mm256_xor_si256(a, b); }
  static vi andnot(vi a, vi b) { return _mm256_andnot_si256(a, b); }  // ~a & b
  static vi add(vi a, vi b) { return _mm256_add_epi64(a, b); }
  static vi sub(vi a, vi b) { return _mm256_sub_epi64(a, b); }
  template <int N>
  static vi srl(vi v) {
    return _mm256_srli_epi64(v, N);
  }
  template <int N>
  static vi sll(vi v) {
    return _mm256_slli_epi64(v, N);
  }
  // VPSRLVQ/VPSLLVQ: any count above 63 (including negative i64 counts seen
  // as huge u64) yields zero — the kernel relies on this for out-of-range
  // drop/shift lanes whose results the final blends discard.
  static vi srlv(vi v, vi c) { return _mm256_srlv_epi64(v, c); }
  static vi sllv(vi v, vi c) { return _mm256_sllv_epi64(v, c); }

  static vb eq(vi a, vi b) { return _mm256_cmpeq_epi64(a, b); }
  static vb gt(vi a, vi b) { return _mm256_cmpgt_epi64(a, b); }  // signed
  static vb andm(vb a, vb b) { return _mm256_and_si256(a, b); }
  static vb orm(vb a, vb b) { return _mm256_or_si256(a, b); }
  static vb notm(vb a) { return _mm256_xor_si256(a, _mm256_set1_epi64x(-1)); }
  static bool all(vb m) { return _mm256_movemask_epi8(m) == -1; }
  static vi blend(vb m, vi t, vi f) { return _mm256_blendv_epi8(f, t, m); }

  static vf addf(vf a, vf b) { return _mm256_add_pd(a, b); }
  static vf subf(vf a, vf b) { return _mm256_sub_pd(a, b); }
  static vf mulf(vf a, vf b) { return _mm256_mul_pd(a, b); }
  static vf divf(vf a, vf b) { return _mm256_div_pd(a, b); }
  static vf sqrtf_(vf a) { return _mm256_sqrt_pd(a); }
  static vf fmsub(vf a, vf b, vf c) { return _mm256_fmsub_pd(a, b, c); }
  static vf fnmadd(vf a, vf b, vf c) { return _mm256_fnmadd_pd(a, b, c); }

  // AVX2 has no 64-bit lzcnt; locate the MSB through the FP exponent field.
  // Integer-ADD of the 0x433 magic (not OR!) converts v <= 2^52 to the
  // double 2^52 + v exactly — for v == 2^52 the carry lands in the exponent
  // field and produces exactly 2^53 — and subtracting 2^52 in FP leaves
  // double(v) exact, whose biased exponent is 1023 + floor_log2(v).
  static vi floor_log2(vi v) {
    const vf d = _mm256_sub_pd(cast_f(add(v, b64(i64{0x433} << 52))),
                               _mm256_set1_pd(4503599627370496.0));  // 2^52
    return sub(and_(srl<52>(cast_i(d)), b64(0x7FF)), b64(1023));
  }
};

}  // namespace

void span_avx2(SpanOp op, const double* a, const double* b, const double* c, double* out,
               std::size_t n, const RoundSpec& spec, unsigned exact) {
  lanes::span_impl<IsaAvx2>(op, a, b, c, out, n, spec, exact);
}

}  // namespace raptor::sf::simd::detail
