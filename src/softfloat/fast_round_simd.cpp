// Dispatch and portable fallback for the SIMD batch truncation kernels
// (fast_round_simd.hpp; DESIGN.md §13).
#include "softfloat/fast_round_simd.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace raptor::sf::simd {

namespace {

/// Portable path: per-element calls into the scalar sf::fast_* kernels,
/// i.e. exactly the pre-SIMD batch loop bodies. This is both the fallback
/// for non-x86 builds and the measurement baseline the SIMD gates (the
/// BENCH_simd.json loops, overhead_ladder's fast_portable rows) compare the
/// vector paths against.
void span_portable(SpanOp op, const double* a, const double* b, const double* c, double* out,
                   std::size_t n, const RoundSpec& spec) {
  switch (op) {
    case SpanOp::Round:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_round(a[i], spec);
      break;
    case SpanOp::Add:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_add(a[i], b[i], spec);
      break;
    case SpanOp::Sub:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_sub(a[i], b[i], spec);
      break;
    case SpanOp::Mul:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_mul(a[i], b[i], spec);
      break;
    case SpanOp::Div:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_div(a[i], b[i], spec);
      break;
    case SpanOp::Neg:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_neg(a[i], spec);
      break;
    case SpanOp::Sqrt:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_sqrt(a[i], spec);
      break;
    case SpanOp::Fma:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_fma(a[i], b[i], c[i], spec);
      break;
  }
}

#ifndef NDEBUG
/// True if rounding x[0, n) into the span's format changes no bit (one
/// Round span through the portable kernels into scratch).
bool is_fixed_point(const double* x, std::size_t n, const RoundSpec& spec) {
  std::vector<double> r(n);
  span_portable(SpanOp::Round, x, nullptr, nullptr, r.data(), n, spec);
  return std::memcmp(r.data(), x, n * sizeof(double)) == 0;
}
#endif

bool mask_bit(const u64* mask, std::size_t i) { return ((mask[i / 64] >> (i % 64)) & 1) != 0; }

/// Portable lane movement (every path but AVX-512).
std::size_t compare_portable(LaneCmp op, const double* a, const double* b, std::size_t n,
                             u64* mask) {
  std::size_t set = 0;
  for (std::size_t lo = 0; lo < n; lo += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - lo);
    u64 bits = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const double x = a[lo + j], y = b != nullptr ? b[lo + j] : 0.0;
      const bool t = op == LaneCmp::Le ? x <= y : op == LaneCmp::Ge ? x >= y : x < y;
      bits |= u64{t} << j;
      set += t ? 1 : 0;
    }
    mask[lo / 64] = bits;
  }
  return set;
}

std::size_t compress_portable(const double* in, const u64* mask, bool on, std::size_t n,
                              double* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask_bit(mask, i) == on) out[k++] = in[i];
  }
  return k;
}

void merge_portable(const double* on_vals, const double* off_vals, const u64* mask,
                    std::size_t n, double* out) {
  for (std::size_t i = 0, k_on = 0, k_off = 0; i < n; ++i) {
    if (mask_bit(mask, i)) {
      out[i] = on_vals[k_on++];
    } else if (off_vals != nullptr) {
      out[i] = off_vals[k_off++];
    }
  }
}

void blend_portable(const u64* mask, const double* a, const double* b, std::size_t n,
                    double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = mask_bit(mask, i) ? a[i] : b[i];
}

/// Runtime CPUID support for a path the binary was able to compile.
bool cpu_supports(Path p) {
  switch (p) {
    case Path::Portable:
      return true;
    case Path::Avx2:
#if defined(RAPTOR_SIMD_HAVE_AVX2)
      // The man_bits > 24 kernels use FMA3 (every AVX2 core from Intel
      // Haswell and AMD Excavator on has it; check it explicitly).
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Path::Avx512:
#if defined(RAPTOR_SIMD_HAVE_AVX512)
      // The kernels use AVX-512 F (core u64 lane ops, masks) and CD
      // (vplzcntq for floor_log2), the lane movement POPCNT; all ship
      // together on every AVX-512 core since Skylake-SP, but check each
      // explicitly.
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512cd") != 0 &&
             __builtin_cpu_supports("popcnt") != 0;
#endif
      return false;
  }
  return false;
}

Path detect_best() {
  if (cpu_supports(Path::Avx512)) return Path::Avx512;
  if (cpu_supports(Path::Avx2)) return Path::Avx2;
  return Path::Portable;
}

Path read_env_default() {
  const char* e = std::getenv("RAPTOR_SIMD");
  if (e == nullptr || *e == '\0') return best_path();
  if (const auto p = parse_path(e); p && path_supported(*p)) return *p;
  std::fprintf(stderr,
               "raptor: RAPTOR_SIMD=%s names an unknown or unsupported SIMD path "
               "(want portable|avx2|avx512); using %s\n",
               e, path_name(best_path()));
  return best_path();
}

}  // namespace

bool path_supported(Path p) {
  // Every batch call asks, so CPUID is read once.
  static const bool supported[3] = {cpu_supports(Path::Portable), cpu_supports(Path::Avx2),
                                    cpu_supports(Path::Avx512)};
  const auto i = static_cast<std::size_t>(p);
  return i < 3 && supported[i];
}

Path best_path() {
  static const Path p = detect_best();
  return p;
}

Path default_path() {
  static const Path p = read_env_default();
  return p;
}

Path resolve_path(std::optional<Path> requested) {
  if (requested && path_supported(*requested)) return *requested;
  return default_path();
}

const char* path_name(Path p) {
  switch (p) {
    case Path::Portable:
      return "portable";
    case Path::Avx2:
      return "avx2";
    case Path::Avx512:
      return "avx512";
  }
  return "?";
}

std::optional<Path> parse_path(std::string_view s) {
  std::string lower(s);
  for (char& ch : lower) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (lower == "portable" || lower == "scalar") return Path::Portable;
  if (lower == "avx2") return Path::Avx2;
  if (lower == "avx512" || lower == "avx-512") return Path::Avx512;
  return std::nullopt;
}

void span_exec(Path p, SpanOp op, const double* a, const double* b, const double* c, double* out,
               std::size_t n, const RoundSpec& spec, unsigned exact) {
  if (n == 0) return;
  if (!path_supported(p)) p = default_path();  // never execute unsupported code
#ifndef NDEBUG
  // A flagged operand must be a fixed point of the round the kernel skips.
  if ((exact & 1U) != 0 && a != nullptr) RAPTOR_ASSERT(is_fixed_point(a, n, spec));
  if ((exact & 2U) != 0 && b != nullptr) RAPTOR_ASSERT(is_fixed_point(b, n, spec));
#endif
  switch (p) {
#if defined(RAPTOR_SIMD_HAVE_AVX2)
    case Path::Avx2:
      detail::span_avx2(op, a, b, c, out, n, spec, exact);
      return;
#endif
#if defined(RAPTOR_SIMD_HAVE_AVX512)
    case Path::Avx512:
      detail::span_avx512(op, a, b, c, out, n, spec, exact);
      return;
#endif
    default:
      span_portable(op, a, b, c, out, n, spec);
      return;
  }
}

std::size_t lanes_compare(Path p, LaneCmp op, const double* a, const double* b, std::size_t n,
                          u64* mask) {
  if (n == 0) return 0;
#if defined(RAPTOR_SIMD_HAVE_AVX512)
  if (resolve_path(p) == Path::Avx512) return detail::lanes_compare_avx512(op, a, b, n, mask);
#endif
  (void)p;
  return compare_portable(op, a, b, n, mask);
}

std::size_t lanes_compress(Path p, const double* in, const u64* mask, bool on, std::size_t n,
                           double* out) {
  if (n == 0) return 0;
#if defined(RAPTOR_SIMD_HAVE_AVX512)
  if (resolve_path(p) == Path::Avx512) return detail::lanes_compress_avx512(in, mask, on, n, out);
#endif
  (void)p;
  return compress_portable(in, mask, on, n, out);
}

void lanes_blend(Path p, const u64* mask, const double* a, const double* b, std::size_t n,
                 double* out) {
  if (n == 0) return;
#if defined(RAPTOR_SIMD_HAVE_AVX512)
  if (resolve_path(p) == Path::Avx512) return detail::lanes_blend_avx512(mask, a, b, n, out);
#endif
  (void)p;
  blend_portable(mask, a, b, n, out);
}

void lanes_merge(Path p, const double* on_vals, const double* off_vals, const u64* mask,
                 std::size_t n, double* out) {
  if (n == 0) return;
#if defined(RAPTOR_SIMD_HAVE_AVX512)
  if (resolve_path(p) == Path::Avx512) {
    return detail::lanes_merge_avx512(on_vals, off_vals, mask, n, out);
  }
#endif
  (void)p;
  merge_portable(on_vals, off_vals, mask, n, out);
}

}  // namespace raptor::sf::simd
