// RAII scoping for truncation and region labelling.
//
//  * TruncScope: activates a truncation spec for the current thread until
//    destroyed. The `enabled` flag makes truncation *dynamic* (paper
//    Table 1 feature "Dynamic truncation"): the AMR experiments construct a
//    scope per block with enabled = (block level <= M - l).
//  * Region: names a code section ("hydro/recon"); mem-mode deviation flags
//    are grouped by the innermost region, and regions can be dynamically
//    excluded from truncation (Runtime::exclude_region — the Table 2 flow).
//  * trunc_func_op / trunc_func_mem: the paper's function-scope API
//    (Fig. 3b/3c): wrap a callable so the entire call executes under the
//    given truncation.
#pragma once

#include <utility>

#include "runtime/runtime.hpp"

namespace raptor {

class TruncScope {
 public:
  explicit TruncScope(const rt::TruncationSpec& spec, bool enabled = true) {
    rt::Runtime::instance().push_scope(spec, enabled);
  }
  /// Convenience: truncate 64-bit ops to (exp, man) bits.
  TruncScope(int to_exp, int to_man, bool enabled = true)
      : TruncScope(rt::TruncationSpec::trunc64(to_exp, to_man), enabled) {}
  ~TruncScope() { rt::Runtime::instance().pop_scope(); }

  TruncScope(const TruncScope&) = delete;
  TruncScope& operator=(const TruncScope&) = delete;
};

class Region {
 public:
  explicit Region(const char* label) { rt::Runtime::instance().push_region(label); }
  ~Region() { rt::Runtime::instance().pop_region(); }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;
};

/// RAII runtime-mode switch: sets the mode on construction and restores the
/// previous one on destruction — including when the guarded code throws, so
/// a trunc_func_mem wrapper cannot leave the runtime stuck in mem-mode on an
/// exception path.
class ModeScope {
 public:
  explicit ModeScope(rt::Mode m) : saved_(rt::Runtime::instance().mode()) {
    rt::Runtime::instance().set_mode(m);
  }
  ~ModeScope() { rt::Runtime::instance().set_mode(saved_); }

  ModeScope(const ModeScope&) = delete;
  ModeScope& operator=(const ModeScope&) = delete;

 private:
  rt::Mode saved_;
};

/// Function-scope op-mode truncation (paper Fig. 3b): returns a callable
/// executing `fn` with `from_width`-bit FP ops truncated to (to_exp,
/// to_man). Throws rt::ConfigError on a width other than 64, 32 or 16 or
/// an invalid format.
template <typename Fn>
auto trunc_func_op(Fn fn, int from_width, int to_exp, int to_man) {
  return [fn = std::move(fn),
          spec = rt::TruncationSpec().set(from_width, sf::Format{to_exp, to_man})](
             auto&&... args) {
    TruncScope scope(spec);
    return fn(std::forward<decltype(args)>(args)...);
  };
}

/// Function-scope mem-mode truncation (paper Fig. 3c): as trunc_func_op but
/// switches the runtime into mem-mode for the duration of the call. The
/// caller remains responsible for converting inputs/outputs with
/// Real::materialize() / runtime mem_make, mirroring the paper's
/// _raptor_pre_c/_raptor_post_c protocol.
template <typename Fn>
auto trunc_func_mem(Fn fn, int from_width, int to_exp, int to_man) {
  return [fn = std::move(fn),
          spec = rt::TruncationSpec().set(from_width, sf::Format{to_exp, to_man})](
             auto&&... args) {
    ModeScope mode(rt::Mode::Mem);
    TruncScope scope(spec);
    return fn(std::forward<decltype(args)>(args)...);
  };
}

}  // namespace raptor
