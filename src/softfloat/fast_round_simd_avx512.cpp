// AVX-512 instantiation of the width-agnostic truncation kernel: 8 x u64
// lanes with native __mmask8 predication. Requires only the F (64-bit lane
// arithmetic, masks, blends, the FMA forms behind the man_bits > 24 error
// terms) and CD (VPLZCNTQ for floor_log2) subsets —
// deliberately not DQ/BW/VL, so the kernel runs on every AVX-512 core back
// to Skylake-SP; mask logic uses plain integer operators on __mmask8 rather
// than the DQ k-register intrinsics for the same reason.
//
// The lane-movement primitives behind batch::Vec's masks, branches and
// selects (VCMPPD into a k-mask, VCOMPRESSPD, VEXPANDPD, VBLENDMPD) are
// AVX-512 F as well.
//
// Compiled with -mavx512f -mavx512cd -mpopcnt in this TU only; reached
// exclusively through simd::span_exec and the simd::lanes_* entry points
// after the CPUID gate (fast_round_simd.cpp).
#include "softfloat/fast_round_simd.hpp"

#include <immintrin.h>

namespace raptor::sf::simd::detail {

namespace {

struct IsaAvx512 {
  static constexpr std::size_t width = 8;
  using vf = __m512d;
  using vi = __m512i;
  using vb = __mmask8;

  static vf loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, vf v) { _mm512_storeu_pd(p, v); }
  static vi b64(i64 x) { return _mm512_set1_epi64(x); }
  static vi cast_i(vf v) { return _mm512_castpd_si512(v); }
  static vf cast_f(vi v) { return _mm512_castsi512_pd(v); }

  static vi and_(vi a, vi b) { return _mm512_and_epi64(a, b); }
  static vi or_(vi a, vi b) { return _mm512_or_epi64(a, b); }
  static vi xor_(vi a, vi b) { return _mm512_xor_epi64(a, b); }
  static vi andnot(vi a, vi b) { return _mm512_andnot_epi64(a, b); }  // ~a & b
  static vi add(vi a, vi b) { return _mm512_add_epi64(a, b); }
  static vi sub(vi a, vi b) { return _mm512_sub_epi64(a, b); }
  template <int N>
  static vi srl(vi v) {
    return _mm512_srli_epi64(v, N);
  }
  template <int N>
  static vi sll(vi v) {
    return _mm512_slli_epi64(v, N);
  }
  // VPSRLVQ/VPSLLVQ semantics as on AVX2: counts above 63 yield zero.
  static vi srlv(vi v, vi c) { return _mm512_srlv_epi64(v, c); }
  static vi sllv(vi v, vi c) { return _mm512_sllv_epi64(v, c); }

  static vb eq(vi a, vi b) { return _mm512_cmpeq_epi64_mask(a, b); }
  static vb gt(vi a, vi b) { return _mm512_cmpgt_epi64_mask(a, b); }  // signed
  static vb andm(vb a, vb b) { return static_cast<vb>(a & b); }
  static vb orm(vb a, vb b) { return static_cast<vb>(a | b); }
  static vb notm(vb a) { return static_cast<vb>(~a); }
  static bool all(vb m) { return m == 0xFF; }
  static vi blend(vb m, vi t, vi f) { return _mm512_mask_blend_epi64(m, f, t); }

  static vf addf(vf a, vf b) { return _mm512_add_pd(a, b); }
  static vf subf(vf a, vf b) { return _mm512_sub_pd(a, b); }
  static vf mulf(vf a, vf b) { return _mm512_mul_pd(a, b); }
  static vf divf(vf a, vf b) { return _mm512_div_pd(a, b); }
  static vf sqrtf_(vf a) { return _mm512_sqrt_pd(a); }
  static vf fmsub(vf a, vf b, vf c) { return _mm512_fmsub_pd(a, b, c); }
  static vf fnmadd(vf a, vf b, vf c) { return _mm512_fnmadd_pd(a, b, c); }

  static vi floor_log2(vi v) { return sub(b64(63), _mm512_lzcnt_epi64(v)); }
};

}  // namespace

void span_avx512(SpanOp op, const double* a, const double* b, const double* c, double* out,
                 std::size_t n, const RoundSpec& spec, unsigned exact) {
  lanes::span_impl<IsaAvx512>(op, a, b, c, out, n, spec, exact);
}

// Lane movement: one mask byte per vector of eight lanes. On x86 the u64
// mask words are little-endian, so byte j of the word array holds lanes
// 8j..8j+7. Full vectors load and store plainly; the trailing partial
// vector (n % 8 lanes) loads and stores under a `live` mask.

namespace {

int count8(unsigned m) { return _mm_popcnt_u32(m); }

__mmask8 live_lanes(std::size_t left) { return static_cast<__mmask8>((1u << left) - 1); }

__mmask8 compare8(LaneCmp op, __m512d x, __m512d y) {
  switch (op) {
    case LaneCmp::Le: return _mm512_cmp_pd_mask(x, y, _CMP_LE_OQ);
    case LaneCmp::Ge: return _mm512_cmp_pd_mask(x, y, _CMP_GE_OQ);
    case LaneCmp::Lt: break;
  }
  return _mm512_cmp_pd_mask(x, y, _CMP_LT_OQ);
}

}  // namespace

std::size_t lanes_compare_avx512(LaneCmp op, const double* a, const double* b, std::size_t n,
                                 u64* mask) {
  mask[(n - 1) / 64] = 0;  // the bytes past n stay zero
  auto* bytes = reinterpret_cast<unsigned char*>(mask);
  const __m512d zero = _mm512_setzero_pd();
  const std::size_t full = n - n % 8;
  std::size_t set = 0;
  for (std::size_t i = 0; i < full; i += 8) {
    const __m512d y = b != nullptr ? _mm512_loadu_pd(b + i) : zero;
    const __mmask8 m = compare8(op, _mm512_loadu_pd(a + i), y);
    bytes[i / 8] = static_cast<unsigned char>(m);
    set += static_cast<std::size_t>(count8(m));
  }
  if (full == n) return set;
  const __mmask8 live = live_lanes(n - full);
  const __m512d y = b != nullptr ? _mm512_maskz_loadu_pd(live, b + full) : zero;
  const auto m =
      static_cast<__mmask8>(compare8(op, _mm512_maskz_loadu_pd(live, a + full), y) & live);
  bytes[full / 8] = static_cast<unsigned char>(m);
  return set + static_cast<std::size_t>(count8(m));
}

std::size_t lanes_compress_avx512(const double* in, const u64* mask, bool on, std::size_t n,
                                  double* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(mask);
  const unsigned flip = on ? 0u : 0xFFu;
  const std::size_t full = n - n % 8;
  std::size_t k = 0;
  const auto step = [&](std::size_t i, unsigned m, __m512d v) {
    const int c = count8(m);
    _mm512_mask_storeu_pd(out + k, live_lanes(static_cast<std::size_t>(c)),
                          _mm512_maskz_compress_pd(static_cast<__mmask8>(m), v));
    k += static_cast<std::size_t>(c);
    (void)i;
  };
  for (std::size_t i = 0; i < full; i += 8) {
    step(i, (bytes[i / 8] ^ flip) & 0xFFu, _mm512_loadu_pd(in + i));
  }
  if (full != n) {
    const __mmask8 live = live_lanes(n - full);
    step(full, (bytes[full / 8] ^ flip) & live, _mm512_maskz_loadu_pd(live, in + full));
  }
  return k;
}

void lanes_merge_avx512(const double* on_vals, const double* off_vals, const u64* mask,
                        std::size_t n, double* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(mask);
  std::size_t k_on = 0, k_off = 0;
  // One vector of lanes i..i+7 under `live`, taking on/off values in order;
  // a null off_vals keeps out's own lanes there.
  const auto step = [&](std::size_t i, __mmask8 live, __m512d cur) {
    const auto m_on = static_cast<__mmask8>(bytes[i / 8] & live);
    __m512d v = _mm512_mask_expandloadu_pd(cur, m_on, on_vals + k_on);
    k_on += static_cast<std::size_t>(count8(m_on));
    if (off_vals != nullptr) {
      const auto m_off = static_cast<__mmask8>(~bytes[i / 8] & live);
      v = _mm512_mask_expandloadu_pd(v, m_off, off_vals + k_off);
      k_off += static_cast<std::size_t>(count8(m_off));
    }
    return v;
  };
  const std::size_t full = n - n % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    const __m512d cur = off_vals != nullptr ? _mm512_setzero_pd() : _mm512_loadu_pd(out + i);
    _mm512_storeu_pd(out + i, step(i, 0xFF, cur));
  }
  if (full != n) {
    const __mmask8 live = live_lanes(n - full);
    const __m512d cur =
        off_vals != nullptr ? _mm512_setzero_pd() : _mm512_maskz_loadu_pd(live, out + full);
    _mm512_mask_storeu_pd(out + full, live, step(full, live, cur));
  }
}

void lanes_blend_avx512(const u64* mask, const double* a, const double* b, std::size_t n,
                        double* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(mask);
  const std::size_t full = n - n % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_mask_blend_pd(static_cast<__mmask8>(bytes[i / 8]),
                                                   _mm512_loadu_pd(b + i), _mm512_loadu_pd(a + i)));
  }
  if (full != n) {
    const __mmask8 live = live_lanes(n - full);
    const __m512d v = _mm512_mask_blend_pd(static_cast<__mmask8>(bytes[full / 8]),
                                           _mm512_maskz_loadu_pd(live, b + full),
                                           _mm512_maskz_loadu_pd(live, a + full));
    _mm512_mask_storeu_pd(out + full, live, v);
  }
}

}  // namespace raptor::sf::simd::detail
