// The RIR runtime ABI (DESIGN.md §14): every name the instrumentation pass
// emits and the interpreter, verifier, call graph and exponent-range
// analysis recognise. Each name is spelled here once.
//
//   call @_raptor_<op>_f64(operands..., imm e, imm m, str loc [, scratch])
//       one shim per FP opcode (`kShims`), returning the result in the
//       target format (e, m) widened back to f64;
//   call @_raptor_alloc_scratch(imm e, imm m) / @_raptor_free_scratch(pad)
//       the Fig. 4b scratch pad, allocated first in a root clone's entry
//       block and freed right before each of its returns;
//   @_<base>_trunc_f64_to_<e>_<m>
//       the clone of `base` the pass retargets intra-set calls to (Fig. 4a).
//
// Any callee starting with `_raptor_` is a runtime call: the pass never
// warns about it as external, and only the names above are accepted.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ir/ir.hpp"
#include "trunc/capi.hpp"

namespace raptor::ir {

/// One `_raptor_*_f64` op shim and the C API entry point it calls.
struct Shim {
  std::string_view name;
  Opcode op;
  int operands;  ///< leading register operands (1 or 2)
  double (*unary)(double, int, int, const char*);
  double (*binary)(double, double, int, int, const char*);
};

inline constexpr Shim kShims[] = {
    {"_raptor_add_f64", Opcode::FAdd, 2, nullptr, capi::_raptor_add_f64},
    {"_raptor_sub_f64", Opcode::FSub, 2, nullptr, capi::_raptor_sub_f64},
    {"_raptor_mul_f64", Opcode::FMul, 2, nullptr, capi::_raptor_mul_f64},
    {"_raptor_div_f64", Opcode::FDiv, 2, nullptr, capi::_raptor_div_f64},
    {"_raptor_sqrt_f64", Opcode::FSqrt, 1, capi::_raptor_sqrt_f64, nullptr},
    {"_raptor_neg_f64", Opcode::FNeg, 1, capi::_raptor_neg_f64, nullptr},
    {"_raptor_exp_f64", Opcode::FExp, 1, capi::_raptor_exp_f64, nullptr},
    {"_raptor_log_f64", Opcode::FLog, 1, capi::_raptor_log_f64, nullptr},
    {"_raptor_sin_f64", Opcode::FSin, 1, capi::_raptor_sin_f64, nullptr},
    {"_raptor_cos_f64", Opcode::FCos, 1, capi::_raptor_cos_f64, nullptr},
};

inline constexpr std::string_view kAllocScratch = "_raptor_alloc_scratch";
inline constexpr std::string_view kFreeScratch = "_raptor_free_scratch";

/// True for every callee in the runtime's namespace (`_raptor_*`).
[[nodiscard]] inline bool is_runtime_call(std::string_view callee) {
  return callee.starts_with("_raptor_");
}

/// The shim an FP opcode is rewritten into; throws for other opcodes.
[[nodiscard]] const Shim& shim_for(Opcode op);
/// The shim called `name`, or nullptr.
[[nodiscard]] const Shim* find_shim(std::string_view name);

/// `_<base>_trunc_f64_to_<e>_<m>`.
[[nodiscard]] std::string clone_name(std::string_view base, int to_exp, int to_man);

/// Parsed clone name (paper Fig. 4a).
struct CloneName {
  std::string base;
  int to_exp = 0;
  int to_man = 0;
};
[[nodiscard]] std::optional<CloneName> parse_clone_name(std::string_view name);

}  // namespace raptor::ir
