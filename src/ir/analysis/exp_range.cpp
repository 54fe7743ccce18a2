#include "ir/analysis/exp_range.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "ir/analysis/callgraph.hpp"
#include "ir/analysis/cfg.hpp"
#include "ir/runtime_abi.hpp"

namespace raptor::ir::analysis {

namespace {

/// Binades of common format limits (f64/f32/f16/f8 normal ranges plus 0):
/// widening jumps to the next one of these instead of creeping per binade.
constexpr int kThresholds[] = {-1074, -1022, -126, -14, -6, 0, 6, 14, 126, 1022, 1024};

/// Clip bounds into the representable band; clipping low means values
/// flushed to zero, clipping high means overflow to inf.
ExpInterval normalize(ExpInterval x) {
  if (x.empty()) return x;
  if (x.lo < kExpMin) {
    x.lo = kExpMin;
    x.zero = true;
  }
  if (x.hi > kExpMax) {
    x.hi = kExpMax;
    x.non_finite = true;
  }
  return x;
}

}  // namespace

ExpInterval ExpInterval::of(double v) {
  ExpInterval x;  // bottom
  if (v == 0.0) {
    x.zero = true;
  } else if (!std::isfinite(v)) {
    x.non_finite = true;
  } else {
    x.lo = x.hi = std::ilogb(v);
  }
  return x;
}

ExpInterval ExpInterval::range(int lo, int hi) {
  ExpInterval x;
  x.lo = lo;
  x.hi = hi;
  return normalize(x);
}

ExpInterval ExpInterval::join(const ExpInterval& o) const {
  ExpInterval x;
  x.zero = zero || o.zero;
  x.non_finite = non_finite || o.non_finite;
  if (empty()) {
    x.lo = o.lo;
    x.hi = o.hi;
  } else if (o.empty()) {
    x.lo = lo;
    x.hi = hi;
  } else {
    x.lo = std::min(lo, o.lo);
    x.hi = std::max(hi, o.hi);
  }
  return x;
}

ExpInterval ExpInterval::widen(const ExpInterval& old) const {
  ExpInterval x = *this;
  if (x.empty() || old.empty()) return x;
  if (x.lo < old.lo) {
    x.lo = kExpMin;
    for (auto it = std::rbegin(kThresholds); it != std::rend(kThresholds); ++it) {
      if (*it <= lo) {
        x.lo = *it;
        break;
      }
    }
  }
  if (x.hi > old.hi) {
    x.hi = kExpMax;
    for (const int t : kThresholds) {
      if (t >= hi) {
        x.hi = t;
        break;
      }
    }
  }
  return x;
}

std::string ExpInterval::to_string() const {
  std::string out = "[";
  if (!empty()) {
    out += std::to_string(lo);
    out += ",";
    out += std::to_string(hi);
  }
  out += "]";
  if (zero) out += "0";
  if (non_finite) out += "!";
  return out;
}

ExpInterval exp_transfer(Opcode op, const ExpInterval& a, const ExpInterval& b) {
  const bool binary = op == Opcode::FAdd || op == Opcode::FSub || op == Opcode::FMul ||
                      op == Opcode::FDiv;
  if (a.is_bottom() || (binary && b.is_bottom())) return ExpInterval::bottom();

  ExpInterval x;
  x.non_finite = a.non_finite || (binary && b.non_finite);
  switch (op) {
    case Opcode::FAdd:
    case Opcode::FSub: {
      // Magnitudes: |a+-b| < 2 * max(|a|,|b|). The LOWER bound deliberately
      // ignores cancellation (see the header comment): the result is assumed
      // no smaller than the smaller operand's binade.
      if (a.empty() && b.empty()) {
        x.zero = a.zero || b.zero;
        break;
      }
      const ExpInterval& p = a.empty() ? b : a;
      const ExpInterval& q = a.empty() ? a : b;
      x.lo = q.empty() ? p.lo : std::min(p.lo, q.lo);
      x.hi = (q.empty() ? p.hi : std::max(p.hi, q.hi)) + 1;
      x.zero = a.zero && b.zero;
      break;
    }
    case Opcode::FMul:
      x.zero = a.zero || b.zero;
      if (!a.empty() && !b.empty()) {
        x.lo = a.lo + b.lo;
        x.hi = a.hi + b.hi + 1;
      }
      break;
    case Opcode::FDiv:
      x.zero = a.zero;
      x.non_finite = x.non_finite || b.zero;  // x/0
      if (!a.empty() && !b.empty()) {
        x.lo = a.lo - b.hi - 1;
        x.hi = a.hi - b.lo + 1;
      }
      break;
    case Opcode::FSqrt:
      x.zero = a.zero;
      if (!a.empty()) {
        // |v| in [2^lo, 2^(hi+1)) => sqrt in [2^(lo/2), 2^((hi+1)/2)).
        const auto fdiv2 = [](int e) { return e >= 0 ? e / 2 : (e - 1) / 2; };
        x.lo = fdiv2(a.lo);
        x.hi = fdiv2(a.hi + 1);
      }
      break;
    case Opcode::FNeg:
      x = a;
      break;
    case Opcode::FExp:
      if (a.empty()) {
        x.lo = x.hi = 0;  // e^0 = 1
      } else if (a.hi + 1 >= 11) {
        // |v| can reach 2^11: e^v spans the whole representable band.
        x.lo = kExpMin;
        x.hi = kExpMax;
        x.zero = x.non_finite = true;
      } else {
        // |ln result| <= |v| <= 2^(hi+1), so |log2 result| <= 2^(hi+1)*log2(e).
        const int bound = static_cast<int>(std::ceil(std::ldexp(1.4427, a.hi + 1)));
        x.lo = std::min(-bound - 1, 0);
        x.hi = std::max(bound, 0);
        if (a.zero) x.hi = std::max(x.hi, 0);  // e^0 = 1 stays covered
      }
      break;
    case Opcode::FLog: {
      x.non_finite = x.non_finite || a.zero;  // log 0 = -inf
      if (!a.empty()) {
        // |ln v| <= max(|lo|, |hi|+1) * ln 2; values near 1 drive it to 0.
        const double mag =
            0.6932 * std::max(std::abs(static_cast<double>(a.lo)),
                              std::abs(static_cast<double>(a.hi)) + 1.0);
        x.lo = kExpMin;
        x.hi = static_cast<int>(std::ceil(std::log2(std::max(1.0, mag))));
        x.zero = true;  // log 1 = 0
      }
      break;
    }
    case Opcode::FSin:
    case Opcode::FCos:
      x.lo = kExpMin;
      x.hi = 0;
      x.zero = true;
      break;
    case Opcode::FCmp:
      x.lo = x.hi = 0;  // 1.0, or...
      x.zero = true;    // ...0.0
      x.non_finite = false;
      break;
    default:
      return ExpInterval::top();
  }
  return normalize(x);
}

ExpInterval exp_clamp_to_format(const ExpInterval& x, int exp_bits) {
  if (exp_bits < 2 || exp_bits > 11) return x;
  const int bias = (1 << (exp_bits - 1)) - 1;
  ExpInterval out = x;
  if (out.empty()) return out;
  if (out.lo < 1 - bias) {
    out.lo = 1 - bias;
    out.zero = true;  // flushed
  }
  if (out.hi > bias) {
    out.hi = bias;
    out.non_finite = true;  // saturated
  }
  if (out.lo > out.hi) {
    out.lo = kExpMax;
    out.hi = kExpMin;
  }
  return out;
}

const ExpInterval* FunctionExpSummary::find_loc(std::string_view loc) const {
  for (const auto& [l, iv] : at_loc) {
    if (l == loc) return &iv;
  }
  return nullptr;
}

const FunctionExpSummary* ModuleExpAnalysis::find(std::string_view name) const {
  for (const auto& s : funcs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

using State = std::vector<ExpInterval>;

/// One intraprocedural pass to fixpoint; collects the return interval,
/// per-loc FP result intervals, and the argument intervals of every call to
/// a defined function (for the interprocedural driver to propagate).
struct IntraResult {
  ExpInterval ret;
  std::vector<std::pair<std::string, ExpInterval>> at_loc;
  std::vector<std::pair<int, State>> callee_args;  ///< callgraph index -> args
};

class IntraAnalyzer {
 public:
  IntraAnalyzer(const Module& m, const Function& f, const CallGraph& cg,
                const std::vector<FunctionExpSummary>& summaries, const ExpRangeOptions& opts)
      : mod_(m), f_(f), cg_(cg), summaries_(summaries), opts_(opts), cfg_(build_cfg(f)) {}

  IntraResult run(const State& params) {
    const int nregs = f_.num_regs();
    const int nblocks = static_cast<int>(f_.blocks.size());
    State entry_in(static_cast<std::size_t>(nregs));
    for (int p = 0; p < f_.num_params && p < static_cast<int>(params.size()); ++p) {
      entry_in[static_cast<std::size_t>(p)] = params[static_cast<std::size_t>(p)];
    }
    std::vector<State> outs(static_cast<std::size_t>(nblocks),
                            State(static_cast<std::size_t>(nregs)));
    std::vector<State> ins = outs;
    const auto heads = cfg_.loop_headers();
    std::vector<int> joins(static_cast<std::size_t>(nblocks), 0);

    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 200) {
      changed = false;
      for (const int b : cfg_.rpo) {
        State in = b == cfg_.rpo.front() ? entry_in : State(static_cast<std::size_t>(nregs));
        if (b != cfg_.rpo.front()) {
          for (const int p : cfg_.pred[static_cast<std::size_t>(b)]) {
            if (!cfg_.reachable(p)) continue;
            for (int r = 0; r < nregs; ++r) {
              in[static_cast<std::size_t>(r)] = in[static_cast<std::size_t>(r)].join(
                  outs[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)]);
            }
          }
        }
        const bool is_head =
            std::find(heads.begin(), heads.end(), b) != heads.end();
        if (is_head && in != ins[static_cast<std::size_t>(b)]) {
          if (++joins[static_cast<std::size_t>(b)] > opts_.widen_after) {
            for (int r = 0; r < nregs; ++r) {
              in[static_cast<std::size_t>(r)] = in[static_cast<std::size_t>(r)].widen(
                  ins[static_cast<std::size_t>(b)][static_cast<std::size_t>(r)]);
            }
          }
        }
        if (in != ins[static_cast<std::size_t>(b)]) {
          ins[static_cast<std::size_t>(b)] = in;
          changed = true;
        }
        State out = ins[static_cast<std::size_t>(b)];
        for (const Inst& inst : f_.blocks[static_cast<std::size_t>(b)].insts) {
          step(inst, out, /*record=*/false);
        }
        if (out != outs[static_cast<std::size_t>(b)]) {
          outs[static_cast<std::size_t>(b)] = std::move(out);
          changed = true;
        }
      }
    }

    // Recording pass over the converged states.
    for (const int b : cfg_.rpo) {
      State state = ins[static_cast<std::size_t>(b)];
      for (const Inst& inst : f_.blocks[static_cast<std::size_t>(b)].insts) {
        step(inst, state, /*record=*/true);
      }
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] ExpInterval reg_in(const State& s, int r) const {
    if (r >= 0 && r < static_cast<int>(s.size())) return s[static_cast<std::size_t>(r)];
    return ExpInterval::top();
  }

  void set_reg(State& s, int r, ExpInterval v) const {
    if (r >= 0 && r < static_cast<int>(s.size())) s[static_cast<std::size_t>(r)] = v;
  }

  void record(const std::string& loc, const ExpInterval& v) {
    if (loc.empty()) return;
    for (auto& [l, iv] : result_.at_loc) {
      if (l == loc) {
        iv = iv.join(v);
        return;
      }
    }
    result_.at_loc.emplace_back(loc, v);
  }

  void step(const Inst& in, State& s, bool record_pass) {
    if (is_fp_arith(in.op) || in.op == Opcode::FCmp) {
      const ExpInterval v = exp_transfer(in.op, reg_in(s, in.a), reg_in(s, in.b));
      set_reg(s, in.result, v);
      if (record_pass && in.op != Opcode::FCmp) record(in.loc, v);
      return;
    }
    switch (in.op) {
      case Opcode::Const:
        set_reg(s, in.result, ExpInterval::of(in.imm));
        return;
      case Opcode::Set:
        set_reg(s, in.result, reg_in(s, in.a));
        return;
      case Opcode::Ret:
        if (in.a >= 0) result_.ret = result_.ret.join(reg_in(s, in.a));
        return;
      case Opcode::Call:
        step_call(in, s, record_pass);
        return;
      default:
        return;  // branches do not touch registers
    }
  }

  void step_call(const Inst& in, State& s, bool record_pass) {
    // Runtime shims: model as the underlying op clamped to the target format.
    if (const Shim* so = find_shim(in.callee)) {
      const auto arg_reg = [&](int k) {
        return k < static_cast<int>(in.call_args.size()) &&
                       in.call_args[static_cast<std::size_t>(k)].kind == Arg::Kind::Reg
                   ? reg_in(s, in.call_args[static_cast<std::size_t>(k)].reg)
                   : ExpInterval::top();
      };
      const ExpInterval a = arg_reg(0);
      const ExpInterval b = so->operands == 2 ? arg_reg(1) : ExpInterval::bottom();
      int to_exp = 0;
      if (so->operands < static_cast<int>(in.call_args.size()) &&
          in.call_args[static_cast<std::size_t>(so->operands)].kind == Arg::Kind::Imm) {
        to_exp = static_cast<int>(in.call_args[static_cast<std::size_t>(so->operands)].imm);
      }
      const ExpInterval v = exp_clamp_to_format(exp_transfer(so->op, a, b), to_exp);
      set_reg(s, in.result, v);
      if (record_pass) record(in.loc, v);
      return;
    }
    if (is_runtime_call(in.callee)) {
      // alloc_scratch handle (or an unknown shim): not an FP value.
      set_reg(s, in.result, ExpInterval::top());
      return;
    }
    const int ci = cg_.index_of(in.callee);
    if (ci < 0) {
      set_reg(s, in.result, ExpInterval::top());  // external: anything
      return;
    }
    if (record_pass) {
      State args;
      for (const Arg& a : in.call_args) {
        if (a.kind == Arg::Kind::Reg) {
          args.push_back(reg_in(s, a.reg));
        } else if (a.kind == Arg::Kind::Imm) {
          args.push_back(ExpInterval::of(a.imm));
        }
      }
      for (auto& [idx, acc] : result_.callee_args) {
        if (idx == ci) {
          for (std::size_t k = 0; k < acc.size() && k < args.size(); ++k) {
            acc[k] = acc[k].join(args[k]);
          }
          args.clear();
          break;
        }
      }
      if (!args.empty()) result_.callee_args.emplace_back(ci, std::move(args));
    }
    set_reg(s, in.result, summaries_[static_cast<std::size_t>(ci)].ret);
  }

  const Module& mod_;
  const Function& f_;
  const CallGraph& cg_;
  const std::vector<FunctionExpSummary>& summaries_;
  const ExpRangeOptions& opts_;
  Cfg cfg_;
  IntraResult result_;
};

}  // namespace

ModuleExpAnalysis analyze_exp_ranges(const Module& m, const ExpRangeOptions& opts) {
  ModuleExpAnalysis out;
  out.funcs.resize(m.funcs.size());
  for (std::size_t i = 0; i < m.funcs.size(); ++i) out.funcs[i].name = m.funcs[i].name;
  if (m.funcs.empty()) return out;

  const CallGraph cg = build_call_graph(m);
  std::vector<State> contexts(m.funcs.size());
  std::vector<char> seeded(m.funcs.size(), 0);
  std::vector<int> ctx_joins(m.funcs.size(), 0);
  std::vector<int> ret_joins(m.funcs.size(), 0);

  const auto seed = [&](int f, const State& params) {
    auto& ctx = contexts[static_cast<std::size_t>(f)];
    ctx.assign(static_cast<std::size_t>(m.funcs[static_cast<std::size_t>(f)].num_params),
               ExpInterval::top());
    for (std::size_t p = 0; p < params.size() && p < ctx.size(); ++p) ctx[p] = params[p];
    seeded[static_cast<std::size_t>(f)] = 1;
  };

  std::vector<int> worklist;
  std::vector<char> queued(m.funcs.size(), 0);
  const auto enqueue = [&](int f) {
    if (queued[static_cast<std::size_t>(f)] == 0) {
      queued[static_cast<std::size_t>(f)] = 1;
      worklist.push_back(f);
    }
  };

  for (const int r : cg.roots()) {
    seed(r, {});
    enqueue(r);
  }
  for (const auto& [name, params] : opts.entry_params) {
    const int f = cg.index_of(name);
    if (f >= 0) {
      seed(f, params);
      enqueue(f);
    }
  }

  int passes = 0;
  while (!worklist.empty() && passes++ < opts.max_passes) {
    const int f = worklist.back();
    worklist.pop_back();
    queued[static_cast<std::size_t>(f)] = 0;
    const Function& fn = m.funcs[static_cast<std::size_t>(f)];
    if (fn.blocks.empty()) continue;  // verifier territory

    if (contexts[static_cast<std::size_t>(f)].size() !=
        static_cast<std::size_t>(fn.num_params)) {
      contexts[static_cast<std::size_t>(f)].resize(static_cast<std::size_t>(fn.num_params));
    }
    IntraResult r =
        IntraAnalyzer(m, fn, cg, out.funcs, opts).run(contexts[static_cast<std::size_t>(f)]);

    FunctionExpSummary& s = out.funcs[static_cast<std::size_t>(f)];
    s.analyzed = true;
    s.params = ExpInterval::bottom();
    for (const auto& p : contexts[static_cast<std::size_t>(f)]) s.params = s.params.join(p);
    for (const auto& [loc, iv] : r.at_loc) {
      bool found = false;
      for (auto& [l, acc] : s.at_loc) {
        if (l == loc) {
          acc = acc.join(iv);
          found = true;
          break;
        }
      }
      if (!found) s.at_loc.emplace_back(loc, iv);
    }

    ExpInterval new_ret = s.ret.join(r.ret);
    if (cg.recursive(f) && !(new_ret == s.ret) &&
        ++ret_joins[static_cast<std::size_t>(f)] > opts.widen_after) {
      new_ret = new_ret.widen(s.ret);
    }
    const bool ret_changed = !(new_ret == s.ret);
    s.ret = new_ret;

    for (auto& [callee, args] : r.callee_args) {
      auto& ctx = contexts[static_cast<std::size_t>(callee)];
      const auto nparams =
          static_cast<std::size_t>(m.funcs[static_cast<std::size_t>(callee)].num_params);
      if (ctx.size() != nparams) ctx.resize(nparams);
      bool ctx_changed = seeded[static_cast<std::size_t>(callee)] == 0;
      for (std::size_t p = 0; p < ctx.size(); ++p) {
        ExpInterval nv = p < args.size() ? ctx[p].join(args[p]) : ctx[p];
        if (!(nv == ctx[p])) {
          if (cg.recursive(callee) &&
              ctx_joins[static_cast<std::size_t>(callee)] > opts.widen_after) {
            nv = nv.widen(ctx[p]);
          }
          ctx[p] = nv;
          ctx_changed = true;
        }
      }
      if (ctx_changed) {
        if (cg.recursive(callee)) ++ctx_joins[static_cast<std::size_t>(callee)];
        seeded[static_cast<std::size_t>(callee)] = 1;
        enqueue(callee);
      }
    }
    if (ret_changed) {
      for (const int caller : cg.callers[static_cast<std::size_t>(f)]) {
        if (seeded[static_cast<std::size_t>(caller)] != 0) enqueue(caller);
      }
    }
  }

  for (auto& s : out.funcs) {
    s.all_fp = ExpInterval::bottom();
    for (const auto& [loc, iv] : s.at_loc) s.all_fp = s.all_fp.join(iv);
  }
  return out;
}

std::vector<trace::Recommendation> exp_hints(const ModuleExpAnalysis& a, bool per_loc) {
  std::vector<trace::Recommendation> recs;
  const auto rec_of = [](const std::string& label, const ExpInterval& iv) {
    trace::Recommendation r;
    r.label = label;
    r.min_exp = iv.lo;
    r.max_exp = iv.hi;
    r.exp_bits = iv.non_finite ? 11 : trace::min_exp_bits(iv.lo, iv.hi);
    r.man_bits = 52;  // statically unknowable; the search bisects it
    return r;
  };
  for (const auto& s : a.funcs) {
    if (!s.analyzed || s.all_fp.empty()) continue;
    recs.push_back(rec_of(s.name, s.all_fp));
  }
  if (per_loc) {
    // Join per loc across functions: clones share locs with their originals.
    std::map<std::string, ExpInterval> by_loc;
    for (const auto& s : a.funcs) {
      if (!s.analyzed) continue;
      for (const auto& [loc, iv] : s.at_loc) {
        const auto [it, fresh] = by_loc.emplace(loc, iv);
        if (!fresh) it->second = it->second.join(iv);
      }
    }
    std::vector<std::pair<std::string, ExpInterval>> locs(by_loc.begin(), by_loc.end());
    // "ir:9" before "ir:10": order by the numeric part when both have one.
    std::sort(locs.begin(), locs.end(), [](const auto& x, const auto& y) {
      const auto num = [](const std::string& l) {
        const auto colon = l.find(':');
        if (colon == std::string::npos) return -1;
        int v = -1;
        try {
          v = std::stoi(l.substr(colon + 1));
        } catch (...) {
        }
        return v;
      };
      const int nx = num(x.first);
      const int ny = num(y.first);
      if (nx >= 0 && ny >= 0 && nx != ny) return nx < ny;
      return x.first < y.first;
    });
    for (const auto& [loc, iv] : locs) {
      if (iv.empty()) continue;
      recs.push_back(rec_of(loc, iv));
    }
  }
  return recs;
}

std::vector<std::pair<std::string, int>> to_search_hints(
    const std::vector<trace::Recommendation>& recs) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.emplace_back(r.label, r.exp_bits);
  return out;
}

}  // namespace raptor::ir::analysis
