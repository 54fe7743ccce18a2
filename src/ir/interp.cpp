#include "ir/interp.hpp"

#include <cmath>
#include <stdexcept>

#include "ir/runtime_abi.hpp"

namespace raptor::ir {

namespace {

double apply_native(Opcode op, double a, double b) {
  switch (op) {
    case Opcode::FAdd: return a + b;
    case Opcode::FSub: return a - b;
    case Opcode::FMul: return a * b;
    case Opcode::FDiv: return a / b;
    case Opcode::FSqrt: return std::sqrt(a);
    case Opcode::FNeg: return -a;
    case Opcode::FExp: return std::exp(a);
    case Opcode::FLog: return std::log(a);
    case Opcode::FSin: return std::sin(a);
    case Opcode::FCos: return std::cos(a);
    default: RAPTOR_REQUIRE(false, "not an FP op"); return 0;
  }
}

bool apply_cmp(CmpKind k, double a, double b) {
  switch (k) {
    case CmpKind::Lt: return a < b;
    case CmpKind::Le: return a <= b;
    case CmpKind::Gt: return a > b;
    case CmpKind::Ge: return a >= b;
    case CmpKind::Eq: return a == b;
    case CmpKind::Ne: return a != b;
  }
  return false;
}

}  // namespace

bool Interpreter::builtin(const std::string& name, const std::vector<double>& argv,
                          const std::vector<std::string>& strs, double& result) {
  if (!is_runtime_call(name)) return false;
  ++stats_.builtin_calls[name];
  const char* loc = strs.empty() ? nullptr : strs.front().c_str();
  // Op shims: (operands..., e, m, loc [, scratch]). Scratch cookies ride
  // along as ordinary values to honour the Fig. 4b calling convention; the
  // library runtime keeps the actual pad thread-local.
  const auto e_of = [&](std::size_t i) { return static_cast<int>(argv.at(i)); };
  if (const Shim* shim = find_shim(name)) {
    const auto n = static_cast<std::size_t>(shim->operands);
    result = n == 2 ? shim->binary(argv.at(0), argv.at(1), e_of(n), e_of(n + 1), loc)
                    : shim->unary(argv.at(0), e_of(n), e_of(n + 1), loc);
  } else if (name == kAllocScratch) {
    scratch_handles_.emplace_back(capi::_raptor_alloc_scratch(e_of(0), e_of(1)),
                                  &capi::_raptor_free_scratch);
    result = static_cast<double>(scratch_handles_.size());  // opaque handle
  } else if (name == kFreeScratch) {
    const auto idx = static_cast<std::size_t>(argv.at(0));
    RAPTOR_REQUIRE(idx >= 1 && idx <= scratch_handles_.size(), "bad scratch handle");
    scratch_handles_[idx - 1].reset();
    result = 0.0;
  } else {
    throw std::runtime_error("unknown RAPTOR builtin @" + name);
  }
  return true;
}

double Interpreter::call(std::string_view name, const std::vector<double>& args) {
  const Function* f = mod_.find(name);
  if (f == nullptr) throw std::runtime_error("no such function @" + std::string(name));
  if (static_cast<int>(args.size()) != f->num_params) {
    throw std::runtime_error("arity mismatch calling @" + std::string(name));
  }
  std::vector<double> regs(f->num_regs(), 0.0);
  std::copy(args.begin(), args.end(), regs.begin());
  return exec(*f, std::move(regs), 0);
}

double Interpreter::exec(const Function& f, std::vector<double> regs, int depth) {
  if (depth > 200) throw std::runtime_error("call depth exceeded in @" + f.name);
  int bi = 0;
  std::size_t ii = 0;
  while (true) {
    if (bi < 0 || bi >= static_cast<int>(f.blocks.size())) {
      throw std::runtime_error("fell off blocks in @" + f.name);
    }
    const Block& blk = f.blocks[bi];
    if (ii >= blk.insts.size()) {
      throw std::runtime_error("block " + blk.label + " in @" + f.name +
                               " has no terminator");
    }
    const Inst& in = blk.insts[ii];
    if (++stats_.insts_executed > max_insts_) {
      throw std::runtime_error("instruction budget exhausted in @" + f.name);
    }
    switch (in.op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
        regs[in.result] = apply_native(in.op, regs[in.a], regs[in.b]);
        ++ii;
        break;
      case Opcode::FSqrt:
      case Opcode::FNeg:
      case Opcode::FExp:
      case Opcode::FLog:
      case Opcode::FSin:
      case Opcode::FCos:
        regs[in.result] = apply_native(in.op, regs[in.a], 0.0);
        ++ii;
        break;
      case Opcode::FCmp:
        regs[in.result] = apply_cmp(in.cmp, regs[in.a], regs[in.b]) ? 1.0 : 0.0;
        ++ii;
        break;
      case Opcode::Const:
        regs[in.result] = in.imm;
        ++ii;
        break;
      case Opcode::Set:
        regs[in.result] = regs[in.a];
        ++ii;
        break;
      case Opcode::Ret:
        return in.a >= 0 ? regs[in.a] : 0.0;
      case Opcode::Br:
        bi = in.t0;
        ii = 0;
        break;
      case Opcode::BrCond:
        bi = regs[in.a] != 0.0 ? in.t0 : in.t1;
        ii = 0;
        break;
      case Opcode::Call: {
        std::vector<double> argv;
        std::vector<std::string> strs;
        argv.reserve(in.call_args.size());
        for (const auto& a : in.call_args) {
          switch (a.kind) {
            case Arg::Kind::Reg: argv.push_back(regs[a.reg]); break;
            case Arg::Kind::Imm: argv.push_back(a.imm); break;
            case Arg::Kind::Str: strs.push_back(a.str); break;
          }
        }
        double result = 0.0;
        if (!builtin(in.callee, argv, strs, result)) {
          const Function* callee = mod_.find(in.callee);
          if (callee == nullptr) {
            throw std::runtime_error("call to undefined @" + in.callee);
          }
          if (static_cast<int>(argv.size()) != callee->num_params) {
            throw std::runtime_error("arity mismatch calling @" + in.callee);
          }
          std::vector<double> cregs(callee->num_regs(), 0.0);
          std::copy(argv.begin(), argv.end(), cregs.begin());
          result = exec(*callee, std::move(cregs), depth + 1);
        }
        if (in.result >= 0) regs[in.result] = result;
        ++ii;
        break;
      }
    }
  }
}

}  // namespace raptor::ir
