#include "trunc/capi.hpp"

#include <optional>

#include "runtime/runtime.hpp"
#include "softfloat/bigfloat.hpp"
#include "trunc/scope.hpp"

namespace raptor::capi {

namespace {

/// The C shims carry their target format explicitly (the pass bakes the
/// compile-time constants into each call site), so they bypass the scope
/// stack and execute directly in (to_e, to_m) — matching the transformed
/// code of Fig. 4a. Counting still flows through the runtime counters.
sf::Format fmt_of(int to_e, int to_m) {
  const sf::Format f{to_e, to_m};
  RAPTOR_REQUIRE(f.valid(), "C API: format outside supported envelope");
  return f;
}

/// Runs `call` on the runtime with 64-bit ops in (to_e, to_m), inside
/// region `loc` unless it is null; the region and scope unwind when `call`
/// returns or throws.
template <class Call>
auto scoped(int to_e, int to_m, const char* loc, const Call& call) {
  rt::TruncationSpec spec;
  spec.for64 = fmt_of(to_e, to_m);
  const TruncScope scope(spec);
  std::optional<Region> region;
  if (loc != nullptr) region.emplace(loc);
  return call(rt::Runtime::instance());
}

double run2(rt::OpKind k, double a, double b, int to_e, int to_m, const char* loc) {
  return scoped(to_e, to_m, loc, [&](rt::Runtime& R) { return R.op2(k, a, b, 64); });
}

double run1(rt::OpKind k, double a, int to_e, int to_m, const char* loc) {
  return scoped(to_e, to_m, loc, [&](rt::Runtime& R) { return R.op1(k, a, 64); });
}

}  // namespace

double _raptor_add_f64(double a, double b, int e, int m, const char* loc) {
  return run2(rt::OpKind::Add, a, b, e, m, loc);
}
double _raptor_sub_f64(double a, double b, int e, int m, const char* loc) {
  return run2(rt::OpKind::Sub, a, b, e, m, loc);
}
double _raptor_mul_f64(double a, double b, int e, int m, const char* loc) {
  return run2(rt::OpKind::Mul, a, b, e, m, loc);
}
double _raptor_div_f64(double a, double b, int e, int m, const char* loc) {
  return run2(rt::OpKind::Div, a, b, e, m, loc);
}
double _raptor_sqrt_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Sqrt, a, e, m, loc);
}
double _raptor_neg_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Neg, a, e, m, loc);
}
double _raptor_exp_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Exp, a, e, m, loc);
}
double _raptor_log_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Log, a, e, m, loc);
}
double _raptor_sin_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Sin, a, e, m, loc);
}
double _raptor_cos_f64(double a, int e, int m, const char* loc) {
  return run1(rt::OpKind::Cos, a, e, m, loc);
}
double _raptor_pow_f64(double a, double b, int e, int m, const char* loc) {
  return run2(rt::OpKind::Pow, a, b, e, m, loc);
}
double _raptor_fma_f64(double a, double b, double c, int e, int m, const char* loc) {
  return scoped(e, m, loc, [&](rt::Runtime& R) { return R.op3(rt::OpKind::Fma, a, b, c, 64); });
}

float _raptor_add_f32(float a, float b, int e, int m, const char* loc) {
  return static_cast<float>(run2(rt::OpKind::Add, a, b, e, m, loc));
}
float _raptor_sub_f32(float a, float b, int e, int m, const char* loc) {
  return static_cast<float>(run2(rt::OpKind::Sub, a, b, e, m, loc));
}
float _raptor_mul_f32(float a, float b, int e, int m, const char* loc) {
  return static_cast<float>(run2(rt::OpKind::Mul, a, b, e, m, loc));
}
float _raptor_div_f32(float a, float b, int e, int m, const char* loc) {
  return static_cast<float>(run2(rt::OpKind::Div, a, b, e, m, loc));
}
float _raptor_sqrt_f32(float a, int e, int m, const char* loc) {
  return static_cast<float>(run1(rt::OpKind::Sqrt, a, e, m, loc));
}

namespace {

void run2_batch(rt::OpKind k, const double* a, const double* b, double* out, u64 n, int to_e,
                int to_m, const char* loc) {
  scoped(to_e, to_m, loc, [&](rt::Runtime& R) {
    R.op2_batch(k, a, b, out, static_cast<std::size_t>(n), 64);
  });
}

}  // namespace

void _raptor_add_f64_batch(const double* a, const double* b, double* out, u64 n, int e, int m,
                           const char* loc) {
  run2_batch(rt::OpKind::Add, a, b, out, n, e, m, loc);
}
void _raptor_sub_f64_batch(const double* a, const double* b, double* out, u64 n, int e, int m,
                           const char* loc) {
  run2_batch(rt::OpKind::Sub, a, b, out, n, e, m, loc);
}
void _raptor_mul_f64_batch(const double* a, const double* b, double* out, u64 n, int e, int m,
                           const char* loc) {
  run2_batch(rt::OpKind::Mul, a, b, out, n, e, m, loc);
}
void _raptor_div_f64_batch(const double* a, const double* b, double* out, u64 n, int e, int m,
                           const char* loc) {
  run2_batch(rt::OpKind::Div, a, b, out, n, e, m, loc);
}
void _raptor_fma_f64_batch(const double* a, const double* b, const double* c, double* out, u64 n,
                           int e, int m, const char* loc) {
  scoped(e, m, loc, [&](rt::Runtime& R) {
    R.op3_batch(rt::OpKind::Fma, a, b, c, out, static_cast<std::size_t>(n), 64);
  });
}

void _raptor_trunc_f64_batch(const double* in, double* out, u64 n, int to_e, int to_m) {
  scoped(to_e, to_m, nullptr, [&](rt::Runtime& R) {
    R.trunc_array(in, out, static_cast<std::size_t>(n), 64);
  });
}

double _raptor_pre_c(double v, int to_e, int to_m) {
  return scoped(to_e, to_m, nullptr, [&](rt::Runtime& R) { return R.mem_make(v, 64); });
}

double _raptor_post_c(double v, int /*to_e*/, int /*to_m*/) {
  // Read-back and release share one shadow-table locked section.
  return rt::Runtime::instance().mem_materialize(v);
}

void* _raptor_alloc_scratch(int /*to_e*/, int /*to_m*/) {
  // The library runtime keeps its scratch pad thread-local (see
  // Runtime::ThreadState); this shim exists so pass-transformed code (and
  // the mini-IR interpreter) can express the Fig. 4b calling convention.
  // Returning a distinct non-null cookie keeps call sites honest.
  return new char(0);
}

void _raptor_free_scratch(void* scratch) { delete static_cast<char*>(scratch); }

}  // namespace raptor::capi
