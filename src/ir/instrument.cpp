#include "ir/instrument.hpp"

#include <algorithm>
#include <stdexcept>

#include "ir/analysis/verifier.hpp"
#include "ir/runtime_abi.hpp"
#include "softfloat/format.hpp"

namespace raptor::ir {

namespace {

/// Structural check of the functions the pass is about to rewrite; feeding
/// the pass broken IR is a caller error.
void verify_pass_input(const Module& m, const std::vector<std::string>& names) {
  analysis::VerifyOptions vo;
  vo.infer_clones = false;
  vo.flag_unreachable = false;
  analysis::VerifyResult vr;
  for (const auto& name : names) {
    if (const Function* f = m.find(name)) vr.merge(analysis::verify_function(m, *f, vo));
  }
  if (!vr.ok()) {
    throw std::invalid_argument("trunc pass: input IR is invalid:\n" + vr.to_string());
  }
}

/// Structural + instrumentation-invariant check of the pass output; a
/// violation here is a bug in the pass itself, not in the caller.
void verify_pass_output(const Module& m, const std::vector<std::string>& transformed,
                        const TruncPassOptions& opts, bool whole_module) {
  analysis::VerifyOptions vo;
  vo.infer_clones = false;
  vo.flag_unreachable = false;
  analysis::VerifyResult vr;
  for (const auto& name : transformed) {
    if (const Function* f = m.find(name)) vr.merge(analysis::verify_function(m, *f, vo));
  }
  analysis::InstrumentationInfo info;
  info.transformed = transformed;
  info.to_exp = opts.to_exp;
  info.to_man = opts.to_man;
  info.scratch_opt = opts.scratch_opt;
  info.whole_module = whole_module;
  vr.merge(analysis::verify_instrumentation(m, info));
  if (!vr.ok()) {
    throw std::logic_error("trunc pass produced invalid IR:\n" + vr.to_string());
  }
}

/// Rewrite one function body in place.
///  * whole_module: in-place file/program scope — callee names stay, each
///    function self-allocates its pad;
///  * otherwise function scope — intra-set calls retarget to clones and the
///    scratch register (parameter on callees, self-allocated on the root)
///    is appended to every intra-set call.
void rewrite_function(Function& f, const TruncPassOptions& o,
                      const std::vector<std::string>& in_set, bool add_scratch_param,
                      bool self_scratch, bool whole_module,
                      std::vector<std::string>& warnings) {
  int scratch_reg = -1;
  if (o.scratch_opt) {
    if (add_scratch_param) {
      // Cloned callee: scratch arrives as a trailing parameter (Fig. 4b).
      // Parameters are registers [0, num_params), filled by position from
      // the call's arguments, so the pad must be register num_params. When
      // a local already holds that index the two registers trade places
      // and every operand is renamed with them: each instruction still
      // reads and writes the same values.
      scratch_reg = f.add_reg("__scratch");
      if (scratch_reg != f.num_params) {
        const int target = f.num_params;
        std::swap(f.reg_names[scratch_reg], f.reg_names[target]);
        for (auto& blk : f.blocks) {
          for (auto& in : blk.insts) {
            const auto fix = [&](int& r) {
              if (r == target) {
                r = scratch_reg;
              } else if (r == scratch_reg) {
                r = target;
              }
            };
            fix(in.result);
            fix(in.a);
            fix(in.b);
            for (auto& a : in.call_args) {
              if (a.kind == Arg::Kind::Reg) fix(a.reg);
            }
          }
        }
        scratch_reg = target;
      }
      f.num_params += 1;
    } else if (self_scratch) {
      scratch_reg = f.add_reg("__scratch");
    }
  }

  for (auto& blk : f.blocks) {
    std::vector<Inst> out;
    out.reserve(blk.insts.size());
    for (auto& in : blk.insts) {
      if (is_fp_arith(in.op)) {
        const Shim& shim = shim_for(in.op);
        Inst call;
        call.op = Opcode::Call;
        call.result = in.result;
        call.callee = shim.name;
        call.loc = in.loc;
        call.call_args.push_back(Arg::make_reg(in.a));
        if (shim.operands == 2) call.call_args.push_back(Arg::make_reg(in.b));
        call.call_args.push_back(Arg::make_imm(o.to_exp));
        call.call_args.push_back(Arg::make_imm(o.to_man));
        call.call_args.push_back(Arg::make_str(in.loc));
        if (scratch_reg >= 0) call.call_args.push_back(Arg::make_reg(scratch_reg));
        out.push_back(std::move(call));
        continue;
      }
      if (in.op == Opcode::Call) {
        const bool internal =
            std::find(in_set.begin(), in_set.end(), in.callee) != in_set.end();
        if (internal) {
          Inst call = in;
          if (!whole_module) {
            call.callee = clone_name(in.callee, o.to_exp, o.to_man);
            if (o.scratch_opt && scratch_reg >= 0) {
              call.call_args.push_back(Arg::make_reg(scratch_reg));
            }
          }
          out.push_back(std::move(call));
        } else {
          if (!is_runtime_call(in.callee)) {
            const std::string w = "ignoring call to external @" + in.callee +
                                  " (no definition available; see paper fn.12)";
            if (std::find(warnings.begin(), warnings.end(), w) == warnings.end()) {
              warnings.push_back(w);
            }
          }
          out.push_back(in);
        }
        continue;
      }
      if (in.op == Opcode::Ret && self_scratch && scratch_reg >= 0) {
        Inst free_call;
        free_call.op = Opcode::Call;
        free_call.result = -1;
        free_call.callee = kFreeScratch;
        free_call.call_args.push_back(Arg::make_reg(scratch_reg));
        free_call.loc = in.loc;
        out.push_back(std::move(free_call));
        out.push_back(in);
        continue;
      }
      out.push_back(in);
    }
    blk.insts = std::move(out);
  }

  if (self_scratch && scratch_reg >= 0) {
    Inst alloc;
    alloc.op = Opcode::Call;
    alloc.result = scratch_reg;
    alloc.callee = kAllocScratch;
    alloc.call_args.push_back(Arg::make_imm(o.to_exp));
    alloc.call_args.push_back(Arg::make_imm(o.to_man));
    RAPTOR_REQUIRE(!f.blocks.empty(), "function has no blocks");
    auto& entry = f.blocks.front().insts;
    entry.insert(entry.begin(), std::move(alloc));
  }
}

}  // namespace

TruncPassResult run_trunc_pass(const Module& input, const TruncPassOptions& opts) {
  if (!sf::Format{opts.to_exp, opts.to_man}.valid()) {
    throw std::invalid_argument("trunc pass: invalid target format (" +
                                std::to_string(opts.to_exp) + "," + std::to_string(opts.to_man) +
                                ")");
  }
  TruncPassResult result;
  result.module = input;

  if (opts.root.empty()) {
    // File/program scope: transform every function in place ("our pass
    // applies the same transformation to the floating-point operations of
    // all functions, without the special handling required for
    // function-scope truncation", §3.3).
    std::vector<std::string> all_names;
    all_names.reserve(input.funcs.size());
    for (const auto& f : input.funcs) all_names.push_back(f.name);
    if (opts.verify) verify_pass_input(input, all_names);
    for (auto& f : result.module.funcs) {
      rewrite_function(f, opts, all_names, /*add_scratch_param=*/false,
                       /*self_scratch=*/true, /*whole_module=*/true, result.warnings);
      result.transformed.push_back(f.name);
    }
    if (opts.verify) {
      verify_pass_output(result.module, result.transformed, opts, /*whole_module=*/true);
    }
    return result;
  }

  if (input.find(opts.root) == nullptr) {
    throw std::invalid_argument("trunc pass: no such function @" + opts.root);
  }

  std::vector<std::string> externals;
  const std::vector<std::string> in_set = transitive_callees(input, opts.root, &externals);
  if (opts.verify) verify_pass_input(input, in_set);
  for (const auto& e : externals) {
    result.warnings.push_back("ignoring call to external @" + e +
                              " (no definition available; see paper fn.12)");
  }

  // Clone each function in the set; the root keeps its public signature and
  // owns the scratch pad, callees receive it as a trailing parameter.
  for (const auto& name : in_set) {
    const Function* orig = input.find(name);
    RAPTOR_ASSERT(orig != nullptr);
    Function clone = *orig;
    clone.name = clone_name(name, opts.to_exp, opts.to_man);
    const bool is_root = name == opts.root;
    rewrite_function(clone, opts, in_set, /*add_scratch_param=*/!is_root,
                     /*self_scratch=*/is_root, /*whole_module=*/false, result.warnings);
    result.transformed.push_back(clone.name);
    result.module.funcs.push_back(std::move(clone));
  }
  result.entry = clone_name(opts.root, opts.to_exp, opts.to_man);
  if (opts.verify) {
    verify_pass_output(result.module, result.transformed, opts, /*whole_module=*/false);
  }
  return result;
}

MultiTruncResult run_trunc_pass_multi(const Module& input, const std::string& root,
                                      const std::vector<std::pair<int, int>>& formats,
                                      bool scratch_opt) {
  MultiTruncResult out;
  out.module = input;
  for (const auto& [e, m] : formats) {
    TruncPassOptions opts;
    opts.root = root;
    opts.to_exp = e;
    opts.to_man = m;
    opts.scratch_opt = scratch_opt;
    const TruncPassResult one = run_trunc_pass(input, opts);
    // Append only the clones (functions not present in the input module).
    for (const auto& f : one.module.funcs) {
      if (input.find(f.name) == nullptr) {
        RAPTOR_REQUIRE(out.module.find(f.name) == nullptr,
                       "multi-format pass: duplicate clone (formats must be distinct)");
        out.module.funcs.push_back(f);
      }
    }
    out.entries.push_back(one.entry);
    for (const auto& w : one.warnings) {
      if (std::find(out.warnings.begin(), out.warnings.end(), w) == out.warnings.end()) {
        out.warnings.push_back(w);
      }
    }
  }
  return out;
}

}  // namespace raptor::ir
