#include "ir/analysis/verifier.hpp"

#include <algorithm>
#include <map>

#include "ir/analysis/cfg.hpp"

namespace raptor::ir::analysis {

std::string Diag::to_string() const {
  std::string out = severity == Severity::Error ? "error[" : "warning[";
  out += rule;
  out += "]";
  if (!func.empty()) {
    out += " @";
    out += func;
  }
  if (!where.empty()) {
    out += " ";
    out += where;
  }
  out += ": ";
  out += message;
  return out;
}

std::size_t VerifyResult::errors() const {
  return static_cast<std::size_t>(std::count_if(
      diags.begin(), diags.end(), [](const Diag& d) { return d.severity == Severity::Error; }));
}

std::size_t VerifyResult::warnings() const { return diags.size() - errors(); }

bool VerifyResult::has(std::string_view rule) const { return find(rule) != nullptr; }

const Diag* VerifyResult::find(std::string_view rule) const {
  for (const Diag& d : diags) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

std::string VerifyResult::to_string() const {
  std::string out;
  for (const Diag& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

void VerifyResult::merge(VerifyResult other) {
  for (auto& d : other.diags) diags.push_back(std::move(d));
}

const std::vector<RuleInfo>& verifier_rules() {
  static const std::vector<RuleInfo> kRules = {
      {"terminator", Severity::Error, "block not terminated exactly once"},
      {"target", Severity::Error, "branch target out of range"},
      {"reg-bounds", Severity::Error, "register index out of range / malformed function"},
      {"undef-use", Severity::Error, "register may be uninitialized along some path"},
      {"arity", Severity::Error, "call argument count != callee parameter count"},
      {"duplicate", Severity::Error, "duplicate function name or block label"},
      {"shim-args", Severity::Error, "malformed @_raptor_* runtime call"},
      {"clone-fp", Severity::Error, "raw FP opcode survived instrumentation in a clone"},
      {"clone-call", Severity::Error, "intra-set call not retargeted to the callee's clone"},
      {"scratch-thread", Severity::Error, "scratch pad not threaded through a clone call"},
      {"scratch-free", Severity::Error, "scratch pad not freed on some return path"},
      {"unreachable", Severity::Warning, "block unreachable from the entry"},
      {"external-call", Severity::Warning, "instrumented call to an undefined non-runtime function"},
  };
  return kRules;
}

namespace {

std::string where_of(const Function& f, int block, int inst) {
  std::string out = "block '";
  out += f.blocks[static_cast<std::size_t>(block)].label;
  out += "'";
  if (inst >= 0) {
    out += " inst ";
    out += std::to_string(inst);
    const std::string& loc = f.blocks[static_cast<std::size_t>(block)].insts[static_cast<std::size_t>(inst)].loc;
    if (!loc.empty()) {
      out += " (";
      out += loc;
      out += ")";
    }
  }
  return out;
}

std::string reg_name(const Function& f, int r) {
  if (r >= 0 && r < f.num_regs()) return "%" + f.reg_names[static_cast<std::size_t>(r)];
  return "%<" + std::to_string(r) + ">";
}

class FunctionChecker {
 public:
  FunctionChecker(const Module& m, const Function& f, const VerifyOptions& opts, VerifyResult& out)
      : mod_(m), f_(f), opts_(opts), out_(out) {}

  void run() {
    if (!check_shell()) return;
    check_blocks();
    cfg_ = build_cfg(f_);
    if (opts_.flag_unreachable) flag_unreachable();
    check_arity();
    if (structurally_sound_) check_undef_use();
  }

 private:
  void diag(Severity sev, const char* rule, std::string where, std::string message) {
    out_.diags.push_back(Diag{sev, rule, f_.name, std::move(where), std::move(message)});
  }

  bool check_shell() {
    if (f_.blocks.empty()) {
      diag(Severity::Error, "reg-bounds", "", "function has no blocks");
      return false;
    }
    if (f_.num_params < 0 || f_.num_params > f_.num_regs()) {
      diag(Severity::Error, "reg-bounds", "",
           "num_params " + std::to_string(f_.num_params) + " exceeds " +
               std::to_string(f_.num_regs()) + " registers");
      return false;
    }
    // Duplicate block labels (the parser rejects these in textual modules;
    // hand-built ones arrive here).
    for (std::size_t i = 0; i < f_.blocks.size(); ++i) {
      for (std::size_t j = i + 1; j < f_.blocks.size(); ++j) {
        if (f_.blocks[i].label == f_.blocks[j].label) {
          diag(Severity::Error, "duplicate", where_of(f_, static_cast<int>(j), -1),
               "duplicate block label '" + f_.blocks[j].label + "'");
        }
      }
    }
    return true;
  }

  void check_blocks() {
    const int nblocks = static_cast<int>(f_.blocks.size());
    const int nregs = f_.num_regs();
    for (int b = 0; b < nblocks; ++b) {
      const auto& insts = f_.blocks[static_cast<std::size_t>(b)].insts;
      if (insts.empty() || !is_terminator(insts.back().op)) {
        diag(Severity::Error, "terminator", where_of(f_, b, -1),
             "block does not end with ret/br/brcond");
        structurally_sound_ = false;
      }
      for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
        const Inst& in = insts[static_cast<std::size_t>(i)];
        if (is_terminator(in.op) && i + 1 < static_cast<int>(insts.size())) {
          diag(Severity::Error, "terminator", where_of(f_, b, i),
               "terminator before the end of the block");
          structurally_sound_ = false;
        }
        if (in.op == Opcode::Br || in.op == Opcode::BrCond) {
          const auto check_target = [&](int t) {
            if (t < 0 || t >= nblocks) {
              diag(Severity::Error, "target", where_of(f_, b, i),
                   "branch target " + std::to_string(t) + " out of range");
              structurally_sound_ = false;
            }
          };
          check_target(in.t0);
          if (in.op == Opcode::BrCond) check_target(in.t1);
        }
        const auto check_reg = [&](int r, const char* role) {
          if (r < 0 || r >= nregs) {
            diag(Severity::Error, "reg-bounds", where_of(f_, b, i),
                 std::string(role) + " register index " + std::to_string(r) + " out of range");
            structurally_sound_ = false;
          }
        };
        const int d = def_of(in);
        if (d != -1) check_reg(d, "result");
        for (const int u : uses_of(in)) check_reg(u, "operand");
      }
    }
  }

  void flag_unreachable() {
    for (int b = 0; b < cfg_.num_blocks(); ++b) {
      if (!cfg_.reachable(b)) {
        diag(Severity::Warning, "unreachable", where_of(f_, b, -1),
             "block is unreachable from the entry");
      }
    }
  }

  void check_arity() {
    for (int b = 0; b < static_cast<int>(f_.blocks.size()); ++b) {
      const auto& insts = f_.blocks[static_cast<std::size_t>(b)].insts;
      for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
        const Inst& in = insts[static_cast<std::size_t>(i)];
        if (in.op != Opcode::Call) continue;
        const Function* callee = mod_.find(in.callee);
        if (callee == nullptr) continue;  // shims/externals: instrumentation rules
        const int argc = static_cast<int>(std::count_if(
            in.call_args.begin(), in.call_args.end(),
            [](const Arg& a) { return a.kind != Arg::Kind::Str; }));
        if (argc != callee->num_params) {
          diag(Severity::Error, "arity", where_of(f_, b, i),
               "call to @" + in.callee + " passes " + std::to_string(argc) +
                   " arguments, callee takes " + std::to_string(callee->num_params));
        }
      }
    }
  }

  /// Forward must-assign dataflow: a register read must be written on EVERY
  /// path from the entry (parameters count as written on entry).
  void check_undef_use() {
    const int nregs = f_.num_regs();
    const int nblocks = static_cast<int>(f_.blocks.size());
    using Bits = std::vector<char>;
    const Bits all(static_cast<std::size_t>(nregs), 1);
    Bits entry_in(static_cast<std::size_t>(nregs), 0);
    for (int p = 0; p < f_.num_params; ++p) entry_in[static_cast<std::size_t>(p)] = 1;

    std::vector<Bits> outs(static_cast<std::size_t>(nblocks), all);  // optimistic start
    const auto block_in = [&](int b) -> Bits {
      if (b == cfg_.rpo.front()) return entry_in;
      Bits in = all;
      for (const int p : cfg_.pred[static_cast<std::size_t>(b)]) {
        if (!cfg_.reachable(p)) continue;
        for (int r = 0; r < nregs; ++r) {
          in[static_cast<std::size_t>(r)] = static_cast<char>(
              in[static_cast<std::size_t>(r)] & outs[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)]);
        }
      }
      return in;
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (const int b : cfg_.rpo) {
        Bits state = block_in(b);
        for (const Inst& in : f_.blocks[static_cast<std::size_t>(b)].insts) {
          const int d = def_of(in);
          if (d >= 0) state[static_cast<std::size_t>(d)] = 1;
        }
        if (state != outs[static_cast<std::size_t>(b)]) {
          outs[static_cast<std::size_t>(b)] = std::move(state);
          changed = true;
        }
      }
    }

    // Reporting pass over the converged states, one diag per (site, reg).
    for (const int b : cfg_.rpo) {
      Bits state = block_in(b);
      const auto& insts = f_.blocks[static_cast<std::size_t>(b)].insts;
      for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
        const Inst& in = insts[static_cast<std::size_t>(i)];
        for (const int u : uses_of(in)) {
          if (state[static_cast<std::size_t>(u)] != 0) continue;
          std::string msg = "register " + reg_name(f_, u) + " may be uninitialized here";
          for (const int p : cfg_.pred[static_cast<std::size_t>(b)]) {
            if (cfg_.reachable(p) && outs[static_cast<std::size_t>(p)][static_cast<std::size_t>(u)] == 0) {
              msg += " (e.g. on the path through '" +
                     f_.blocks[static_cast<std::size_t>(p)].label + "')";
              break;
            }
          }
          diag(Severity::Error, "undef-use", where_of(f_, b, i), std::move(msg));
        }
        const int d = def_of(in);
        if (d >= 0) state[static_cast<std::size_t>(d)] = 1;
      }
    }
  }

  const Module& mod_;
  const Function& f_;
  const VerifyOptions& opts_;
  VerifyResult& out_;
  Cfg cfg_;
  bool structurally_sound_ = true;
};

// -- Instrumentation-invariant rules ----------------------------------------

class InstrumentationChecker {
 public:
  InstrumentationChecker(const Module& m, const Function& f, int to_exp, int to_man,
                         bool whole_module, bool expect_scratch, VerifyResult& out)
      : mod_(m),
        f_(f),
        to_exp_(to_exp),
        to_man_(to_man),
        whole_module_(whole_module),
        expect_scratch_(expect_scratch),
        out_(out) {}

  void run() {
    detect_scratch();
    if (expect_scratch_ && scratch_reg_ < 0) {
      diag(Severity::Error, "scratch-thread", "",
           "scratch optimization expected but the clone neither takes a __scratch "
           "parameter nor allocates a pad");
    }
    for (int b = 0; b < static_cast<int>(f_.blocks.size()); ++b) {
      const auto& insts = f_.blocks[static_cast<std::size_t>(b)].insts;
      for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
        check_inst(b, i, insts[static_cast<std::size_t>(i)]);
      }
    }
    if (self_alloc_) check_scratch_free();
  }

 private:
  void diag(Severity sev, const char* rule, std::string where, std::string message) {
    out_.diags.push_back(Diag{sev, rule, f_.name, std::move(where), std::move(message)});
  }

  void detect_scratch() {
    for (const auto& blk : f_.blocks) {
      for (const auto& in : blk.insts) {
        if (in.op == Opcode::Call && in.callee == kAllocScratch) {
          self_alloc_ = true;
          if (scratch_reg_ < 0) scratch_reg_ = in.result;
        }
      }
    }
    if (!self_alloc_ && f_.num_params > 0 &&
        f_.reg_names[static_cast<std::size_t>(f_.num_params - 1)] == "__scratch") {
      scratch_reg_ = f_.num_params - 1;
    }
  }

  [[nodiscard]] bool has_trailing_scratch(const Inst& in) const {
    if (in.call_args.empty()) return false;
    const Arg& last = in.call_args.back();
    return last.kind == Arg::Kind::Reg && last.reg == scratch_reg_;
  }

  void check_inst(int b, int i, const Inst& in) {
    if (is_fp_arith(in.op)) {
      diag(Severity::Error, "clone-fp", where_of(f_, b, i),
           std::string("raw ") + opcode_name(in.op) +
               " survived instrumentation (must be a @_raptor_* call)");
      return;
    }
    if (in.op != Opcode::Call) return;
    if (is_runtime_call(in.callee)) {
      check_shim(b, i, in);
      return;
    }
    const Function* callee = mod_.find(in.callee);
    if (callee == nullptr) {
      diag(Severity::Warning, "external-call", where_of(f_, b, i),
           "call to external @" + in.callee + " left native (paper fn.12)");
      return;
    }
    if (whole_module_) return;  // in-place mode keeps callee names
    const auto cn = parse_clone_name(in.callee);
    if (cn && cn->to_exp == to_exp_ && cn->to_man == to_man_) {
      // Retargeted intra-set call: scratch must ride along (Fig. 4b).
      if (scratch_reg_ >= 0 && !has_trailing_scratch(in)) {
        diag(Severity::Error, "scratch-thread", where_of(f_, b, i),
             "intra-set call to @" + in.callee + " does not pass the scratch register last");
      }
      return;
    }
    diag(Severity::Error, "clone-call", where_of(f_, b, i),
         "call to @" + in.callee + " was not retargeted to its " + std::to_string(to_exp_) +
             "_" + std::to_string(to_man_) + " clone");
  }

  void check_shim(int b, int i, const Inst& in) {
    const std::string& name = in.callee;
    if (name == kAllocScratch) {
      const bool shape_ok = in.result >= 0 && in.call_args.size() == 2 &&
                            in.call_args[0].kind == Arg::Kind::Imm &&
                            in.call_args[1].kind == Arg::Kind::Imm;
      if (!shape_ok) {
        diag(Severity::Error, "shim-args", where_of(f_, b, i),
             "@" + name + " expects (imm e, imm m) and a result register");
      }
      return;
    }
    if (name == kFreeScratch) {
      const bool shape_ok = in.call_args.size() == 1 && in.call_args[0].kind == Arg::Kind::Reg;
      if (!shape_ok) {
        diag(Severity::Error, "shim-args", where_of(f_, b, i),
             "@" + name + " expects exactly the scratch register");
      }
      return;
    }
    const Shim* shim = find_shim(name);
    if (shim == nullptr) {
      diag(Severity::Error, "shim-args", where_of(f_, b, i),
           "unknown runtime shim @" + name + " (the interpreter would reject it)");
      return;
    }
    // Expected shape: Reg operands, Imm e, Imm m, Str loc [, Reg scratch].
    std::vector<Arg::Kind> want(static_cast<std::size_t>(shim->operands), Arg::Kind::Reg);
    want.push_back(Arg::Kind::Imm);
    want.push_back(Arg::Kind::Imm);
    want.push_back(Arg::Kind::Str);
    const bool scratch_expected = scratch_reg_ >= 0;
    if (scratch_expected) want.push_back(Arg::Kind::Reg);
    const auto kinds_match = [&]() {
      if (in.call_args.size() != want.size()) return false;
      for (std::size_t k = 0; k < want.size(); ++k) {
        if (in.call_args[k].kind != want[k]) return false;
      }
      return true;
    };
    if (!kinds_match()) {
      if (scratch_expected && in.call_args.size() + 1 == want.size()) {
        diag(Severity::Error, "scratch-thread", where_of(f_, b, i),
             "@" + name + " call does not pass the scratch register last");
      } else {
        diag(Severity::Error, "shim-args", where_of(f_, b, i),
             "@" + name + " argument shape is not (operands..., e, m, loc" +
                 (scratch_expected ? ", scratch)" : ")"));
      }
      return;
    }
    if (in.result < 0) {
      diag(Severity::Error, "shim-args", where_of(f_, b, i),
           "@" + name + " result is discarded");
      return;
    }
    const auto e_imm = static_cast<int>(in.call_args[static_cast<std::size_t>(shim->operands)].imm);
    const auto m_imm =
        static_cast<int>(in.call_args[static_cast<std::size_t>(shim->operands) + 1].imm);
    if (e_imm != to_exp_ || m_imm != to_man_) {
      diag(Severity::Error, "shim-args", where_of(f_, b, i),
           "@" + name + " format immediates (" + std::to_string(e_imm) + "," +
               std::to_string(m_imm) + ") do not match the clone target (" +
               std::to_string(to_exp_) + "," + std::to_string(to_man_) + ")");
    }
    if (scratch_expected && !has_trailing_scratch(in)) {
      diag(Severity::Error, "scratch-thread", where_of(f_, b, i),
           "@" + name + " call passes a register other than the scratch pad last");
    }
  }

  void check_scratch_free() {
    int allocs = 0;
    int frees = 0;
    int rets = 0;
    for (int b = 0; b < static_cast<int>(f_.blocks.size()); ++b) {
      const auto& insts = f_.blocks[static_cast<std::size_t>(b)].insts;
      for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
        const Inst& in = insts[static_cast<std::size_t>(i)];
        if (in.op == Opcode::Call && in.callee == kAllocScratch) {
          ++allocs;
          if (b != 0 || i != 0) {
            diag(Severity::Error, "scratch-free", where_of(f_, b, i),
                 "scratch pad must be allocated first in the entry block");
          }
        }
        if (in.op == Opcode::Call && in.callee == kFreeScratch) {
          ++frees;
          const bool followed_by_ret = i + 1 < static_cast<int>(insts.size()) &&
                                       insts[static_cast<std::size_t>(i) + 1].op == Opcode::Ret;
          if (!followed_by_ret) {
            diag(Severity::Error, "scratch-free", where_of(f_, b, i),
                 "@" + std::string(kFreeScratch) +
                     " is not immediately followed by ret (double-free hazard)");
          }
        }
        if (in.op == Opcode::Ret) {
          ++rets;
          const bool freed_before =
              i > 0 && insts[static_cast<std::size_t>(i) - 1].op == Opcode::Call &&
              insts[static_cast<std::size_t>(i) - 1].callee == kFreeScratch &&
              insts[static_cast<std::size_t>(i) - 1].call_args.size() == 1 &&
              insts[static_cast<std::size_t>(i) - 1].call_args[0].kind == Arg::Kind::Reg &&
              insts[static_cast<std::size_t>(i) - 1].call_args[0].reg == scratch_reg_;
          if (!freed_before) {
            diag(Severity::Error, "scratch-free", where_of(f_, b, i),
                 "return path does not free the scratch pad");
          }
        }
      }
    }
    if (allocs != 1) {
      diag(Severity::Error, "scratch-free", "",
           "expected exactly one @" + std::string(kAllocScratch) + ", found " +
               std::to_string(allocs));
    }
    (void)frees;
    (void)rets;
  }

  const Module& mod_;
  const Function& f_;
  int to_exp_;
  int to_man_;
  bool whole_module_;
  bool expect_scratch_;
  VerifyResult& out_;
  int scratch_reg_ = -1;
  bool self_alloc_ = false;
};

void check_duplicate_functions(const Module& m, VerifyResult& out) {
  for (std::size_t i = 0; i < m.funcs.size(); ++i) {
    for (std::size_t j = i + 1; j < m.funcs.size(); ++j) {
      if (m.funcs[i].name == m.funcs[j].name) {
        out.diags.push_back(Diag{Severity::Error, "duplicate", m.funcs[j].name, "",
                                 "duplicate function @" + m.funcs[j].name});
      }
    }
  }
}

}  // namespace

VerifyResult verify_function(const Module& m, const Function& f, const VerifyOptions& opts) {
  VerifyResult out;
  FunctionChecker(m, f, opts, out).run();
  if (opts.infer_clones) {
    if (const auto cn = parse_clone_name(f.name)) {
      // Lint mode: scratch expectation is inferred (a hand-written clone
      // without any scratch machinery is a valid scratch_opt=false clone).
      InstrumentationChecker(m, f, cn->to_exp, cn->to_man, /*whole_module=*/false,
                             /*expect_scratch=*/false, out)
          .run();
    }
  }
  return out;
}

VerifyResult verify_module(const Module& m, const VerifyOptions& opts) {
  VerifyResult out;
  check_duplicate_functions(m, out);
  for (const Function& f : m.funcs) out.merge(verify_function(m, f, opts));
  return out;
}

VerifyResult verify_instrumentation(const Module& m, const InstrumentationInfo& info) {
  VerifyResult out;
  for (const std::string& name : info.transformed) {
    const Function* f = m.find(name);
    if (f == nullptr) {
      out.diags.push_back(Diag{Severity::Error, "clone-call", name, "",
                               "transformed function @" + name + " is missing from the module"});
      continue;
    }
    InstrumentationChecker(m, *f, info.to_exp, info.to_man, info.whole_module,
                           /*expect_scratch=*/info.scratch_opt, out)
        .run();
  }
  return out;
}

}  // namespace raptor::ir::analysis
