// RIR verifier (DESIGN.md §14): structural well-formedness rules over any
// module plus instrumentation-invariant rules over `run_trunc_pass` output.
// Every diagnostic carries a stable rule id so tooling (raptor_lint, the
// seeded-defect corpus in tests/fixtures/rir) can assert exactly which rule
// rejected a module.
//
// Rule table (E = error, W = warning):
//   E terminator      block not terminated exactly once (missing/mid-block)
//   E target          branch target out of range
//   E reg-bounds      register index out of range / malformed function shell
//   E undef-use       register may be uninitialized along some path
//   E arity           call argument count != callee parameter count
//   E duplicate       duplicate function name or block label
//   E shim-args       malformed @_raptor_* runtime call (unknown shim, bad
//                     argument shape, format immediates != clone target)
//   E clone-fp        raw FP opcode survived instrumentation in a clone
//   E clone-call      intra-set call not retargeted to the callee's clone
//   E scratch-thread  scratch pad not threaded through a clone call
//   E scratch-free    scratch pad not freed on some return path (or
//                     allocated other than once, first, in the entry block)
//   W unreachable     block unreachable from the entry
//   W external-call   instrumented code calls an undefined non-runtime
//                     function (left native; paper fn.12)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/ir.hpp"
#include "ir/runtime_abi.hpp"

namespace raptor::ir::analysis {

enum class Severity { Error, Warning };

struct Diag {
  Severity severity = Severity::Error;
  std::string rule;     ///< stable id from the table above
  std::string func;     ///< function name ("" for module-level diags)
  std::string where;    ///< human context: "block 'loop' inst 2 (ir:12)"
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

struct VerifyResult {
  std::vector<Diag> diags;

  [[nodiscard]] std::size_t errors() const;
  [[nodiscard]] std::size_t warnings() const;
  [[nodiscard]] bool ok() const { return errors() == 0; }
  [[nodiscard]] bool has(std::string_view rule) const;
  /// First diagnostic for `rule`, or nullptr.
  [[nodiscard]] const Diag* find(std::string_view rule) const;
  [[nodiscard]] std::string to_string() const;
  void merge(VerifyResult other);
};

/// Explicit description of a pass run, for verifying its output exactly
/// (instrument.cpp's post-pass hook builds this from TruncPassResult).
struct InstrumentationInfo {
  std::vector<std::string> transformed;  ///< functions the pass rewrote
  int to_exp = 8;
  int to_man = 23;
  bool scratch_opt = true;
  /// Whole-module mode: functions rewritten in place, calls not retargeted,
  /// each function self-allocates its pad.
  bool whole_module = false;
};

struct VerifyOptions {
  /// Apply instrumentation rules to functions whose names match the clone
  /// pattern (lint mode; pass output is checked via InstrumentationInfo).
  bool infer_clones = true;
  /// Emit `unreachable` warnings.
  bool flag_unreachable = true;
};

/// Structural verification of every function, plus (when opts.infer_clones)
/// instrumentation rules on name-detected clones.
[[nodiscard]] VerifyResult verify_module(const Module& m, const VerifyOptions& opts = {});

/// Structural verification of one function (module supplies call targets).
[[nodiscard]] VerifyResult verify_function(const Module& m, const Function& f,
                                           const VerifyOptions& opts = {});

/// Instrumentation-invariant rules over a known pass result: every FP op
/// rewritten, calls retargeted, scratch threaded and freed, externals
/// warned. Purely additive to verify_module's structural rules.
[[nodiscard]] VerifyResult verify_instrumentation(const Module& m,
                                                  const InstrumentationInfo& info);

/// The rule table above, for docs/selftest output.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};
[[nodiscard]] const std::vector<RuleInfo>& verifier_rules();

}  // namespace raptor::ir::analysis
