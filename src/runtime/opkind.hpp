// Floating-point operation kinds recognized by the RAPTOR runtime. These
// mirror the set of LLVM IR instructions / libm calls the paper's pass
// rewrites (Section 3.3: "we can recognize floating-point arithmetic and
// functions in math libraries").
#pragma once

namespace raptor::rt {

enum class OpKind : int {
  Add = 0,
  Sub,
  Mul,
  Div,
  Sqrt,
  Fma,
  Neg,
  Exp,
  Log,
  Log2,
  Log10,
  Sin,
  Cos,
  Tan,
  Atan,
  Atan2,
  Tanh,
  Cbrt,
  Pow,
  Count  // sentinel
};

constexpr int kNumOpKinds = static_cast<int>(OpKind::Count);

constexpr const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::Add: return "fadd";
    case OpKind::Sub: return "fsub";
    case OpKind::Mul: return "fmul";
    case OpKind::Div: return "fdiv";
    case OpKind::Sqrt: return "sqrt";
    case OpKind::Fma: return "fma";
    case OpKind::Neg: return "fneg";
    case OpKind::Exp: return "exp";
    case OpKind::Log: return "log";
    case OpKind::Log2: return "log2";
    case OpKind::Log10: return "log10";
    case OpKind::Sin: return "sin";
    case OpKind::Cos: return "cos";
    case OpKind::Tan: return "tan";
    case OpKind::Atan: return "atan";
    case OpKind::Atan2: return "atan2";
    case OpKind::Tanh: return "tanh";
    case OpKind::Cbrt: return "cbrt";
    case OpKind::Pow: return "pow";
    case OpKind::Count: return "?";
  }
  return "?";
}

/// Operand count of `k` (0 for the sentinel): the runtime's entry points for
/// N operands accept exactly the kinds of arity N.
constexpr int op_arity(OpKind k) {
  switch (k) {
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Div:
    case OpKind::Atan2:
    case OpKind::Pow: return 2;
    case OpKind::Fma: return 3;
    case OpKind::Sqrt:
    case OpKind::Neg:
    case OpKind::Exp:
    case OpKind::Log:
    case OpKind::Log2:
    case OpKind::Log10:
    case OpKind::Sin:
    case OpKind::Cos:
    case OpKind::Tan:
    case OpKind::Atan:
    case OpKind::Tanh:
    case OpKind::Cbrt: return 1;
    case OpKind::Count: return 0;
  }
  return 0;
}

}  // namespace raptor::rt
