// RIR interpreter.
//
// Executes a module either in its original form (native FP operations) or
// after the RAPTOR instrumentation pass, in which case the rewritten
// `call @_raptor_*` instructions dispatch into the real RAPTOR runtime
// shims (trunc/capi.hpp) — so interpreted instrumented code truncates,
// counts and flags exactly like pass-transformed native code would.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace raptor::ir {

struct ExecStats {
  u64 insts_executed = 0;
  std::map<std::string, u64> builtin_calls;  ///< per-@_raptor_* entry counts
};

class Interpreter {
 public:
  explicit Interpreter(const Module& m, u64 max_insts = 100'000'000)
      : mod_(m), max_insts_(max_insts) {}

  /// Call a function by name. Throws std::runtime_error on missing
  /// functions, arity mismatch, or instruction-budget exhaustion.
  double call(std::string_view name, const std::vector<double>& args);

  [[nodiscard]] const ExecStats& stats() const { return stats_; }

 private:
  double exec(const Function& f, std::vector<double> regs, int depth);
  /// Handle @_raptor_* builtins; returns true if `name` was a builtin.
  bool builtin(const std::string& name, const std::vector<double>& argv,
               const std::vector<std::string>& strs, double& result);

  const Module& mod_;
  u64 max_insts_;
  ExecStats stats_;
  std::vector<char*> scratch_handles_;
};

}  // namespace raptor::ir
