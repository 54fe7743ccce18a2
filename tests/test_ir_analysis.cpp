// Tests for the RIR static-analysis layer (DESIGN.md §14): CFG/dominator
// infrastructure, def-use chains, the call graph, every verifier rule id
// (including the seeded-defect corpus in tests/fixtures/rir), static
// exponent-range inference, and the auto-instrumentation driver. The two
// headline tests compare static exponent hints against PR-5 trace-derived
// recommendations on the HLL wave-speed kernel (they must agree within one
// exponent bit) and feed the hints into PrecisionSearch via
// SearchOptions::exp_hints.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ir/analysis/auto_instrument.hpp"
#include "ir/analysis/callgraph.hpp"
#include "ir/analysis/cfg.hpp"
#include "ir/analysis/exp_range.hpp"
#include "ir/analysis/verifier.hpp"
#include "ir/instrument.hpp"
#include "ir/interp.hpp"
#include "ir/parser.hpp"
#include "runtime/runtime.hpp"
#include "search/precision_search.hpp"
#include "support/rng.hpp"
#include "trace/analysis.hpp"

namespace raptor {
namespace {

namespace fs = std::filesystem;
using namespace ir::analysis;
using ir::Module;
using ir::Opcode;
using ir::parse_clone_name;
using rt::Runtime;

Module parse(std::string_view text) { return ir::parse_module(text); }

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Module load(const fs::path& p) { return parse(slurp(p)); }

// Line numbers below matter: inst.loc is "ir:<line>" captured at parse time.
constexpr const char* kDiamond = R"(func @d(%x) -> f64 {
entry:
  %c = fcmp ge %x, %x
  brcond %c, a, b
a:
  %t = fadd %x, %x
  br join
b:
  %u = fmul %x, %x
  br join
join:
  ret %x
}
)";

constexpr const char* kLeafTop = R"(func @leaf(%x) -> f64 {
entry:
  %y = fmul %x, %x
  ret %y
}
func @top(%a, %b) -> f64 {
entry:
  %t = call @leaf(%a)
  %r = fadd %t, %b
  ret %r
}
)";

// ---------------------------------------------------------------------------
// CFG, dominators, loop headers, def-use
// ---------------------------------------------------------------------------

TEST(Cfg, DiamondEdgesDominatorsNoLoops) {
  const Module m = parse(kDiamond);
  const Cfg cfg = build_cfg(m.funcs[0]);
  ASSERT_EQ(cfg.num_blocks(), 4);
  const int entry = 0, a = 1, b = 2, join = 3;
  EXPECT_EQ(cfg.succ[entry], (std::vector<int>{a, b}));
  EXPECT_EQ(cfg.succ[a], (std::vector<int>{join}));
  EXPECT_EQ(cfg.pred[join], (std::vector<int>{a, b}));
  ASSERT_EQ(cfg.rpo.size(), 4u);
  EXPECT_EQ(cfg.rpo.front(), entry);
  // Entry dominates everything; neither diamond arm dominates the join.
  EXPECT_EQ(cfg.idom[join], entry);
  EXPECT_TRUE(cfg.dominates(entry, join));
  EXPECT_FALSE(cfg.dominates(a, join));
  EXPECT_FALSE(cfg.dominates(b, join));
  EXPECT_TRUE(cfg.loop_headers().empty());
}

TEST(Cfg, LoopHeaderAndBackEdge) {
  const Module m = load(fs::path(RAPTOR_RIR_EXAMPLE_DIR) / "harmonic.rir");
  const Cfg cfg = build_cfg(m.funcs[0]);
  const int head = m.funcs[0].find_block("head");
  const int body = m.funcs[0].find_block("body");
  ASSERT_GE(head, 0);
  EXPECT_EQ(cfg.loop_headers(), (std::vector<int>{head}));
  EXPECT_TRUE(cfg.is_back_edge(body, head));
  EXPECT_FALSE(cfg.is_back_edge(head, body));
}

TEST(Cfg, ToleratesMalformedFunctions) {
  // Unterminated block: no successors, no crash — rejection is the
  // verifier's job (terminator rule), not the CFG builder's.
  const Module m = parse(
      "func @u(%x) -> f64 {\nentry:\n  %t = fadd %x, %x\n}\n");
  const Cfg cfg = build_cfg(m.funcs[0]);
  ASSERT_EQ(cfg.num_blocks(), 1);
  EXPECT_TRUE(cfg.succ[0].empty());
  EXPECT_TRUE(cfg.reachable(0));
}

TEST(DefUse, ChainsInOperandOrder) {
  const Module m = parse(kDiamond);
  const ir::Function& f = m.funcs[0];
  const DefUse du = build_def_use(f);
  ASSERT_EQ(du.num_regs(), f.num_regs());
  const int x = f.find_reg("x");
  const int t = f.find_reg("t");
  ASSERT_GE(x, 0);
  ASSERT_GE(t, 0);
  // Parameters have no definition site; %x is read in every block.
  EXPECT_TRUE(du.defs[static_cast<std::size_t>(x)].empty());
  EXPECT_GE(du.uses[static_cast<std::size_t>(x)].size(), 4u);
  // %t is defined once (block a, inst 0) and never read.
  ASSERT_EQ(du.defs[static_cast<std::size_t>(t)].size(), 1u);
  EXPECT_EQ(du.defs[static_cast<std::size_t>(t)][0], (InstRef{1, 0}));
  EXPECT_TRUE(du.uses[static_cast<std::size_t>(t)].empty());
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

TEST(CallGraph, SccsRootsReachabilityExternals) {
  const Module m = parse(R"(func @even(%n) -> f64 {
entry:
  %r = call @odd(%n)
  ret %r
}
func @odd(%n) -> f64 {
entry:
  %r = call @even(%n)
  ret %r
}
func @main(%n) -> f64 {
entry:
  %a = call @even(%n)
  %b = call @ext_sink(%a)
  ret %b
}
func @orphan(%n) -> f64 {
entry:
  ret %n
}
)");
  const CallGraph cg = build_call_graph(m);
  ASSERT_EQ(cg.num_funcs(), 4);
  const int even = cg.index_of("even"), odd = cg.index_of("odd");
  const int main_i = cg.index_of("main"), orphan = cg.index_of("orphan");
  // even/odd form one recursive SCC; main and orphan are trivial SCCs.
  EXPECT_EQ(cg.scc_id[static_cast<std::size_t>(even)],
            cg.scc_id[static_cast<std::size_t>(odd)]);
  EXPECT_TRUE(cg.recursive(even));
  EXPECT_FALSE(cg.recursive(main_i));
  // Reverse-topological ids: callee SCC id <= caller SCC id.
  EXPECT_LE(cg.scc_id[static_cast<std::size_t>(even)],
            cg.scc_id[static_cast<std::size_t>(main_i)]);
  // Roots: caller-less functions (main, orphan); the cycle has a caller.
  const std::vector<int> roots = cg.roots();
  EXPECT_EQ(roots.size(), 2u);
  EXPECT_NE(std::find(roots.begin(), roots.end(), main_i), roots.end());
  EXPECT_NE(std::find(roots.begin(), roots.end(), orphan), roots.end());
  // Reachability and externals.
  const std::vector<int> r = cg.reachable_from({main_i});
  EXPECT_EQ(r.size(), 3u);  // main, even, odd
  EXPECT_EQ(std::find(r.begin(), r.end(), orphan), r.end());
  ASSERT_EQ(cg.externals[static_cast<std::size_t>(main_i)].size(), 1u);
  EXPECT_EQ(cg.externals[static_cast<std::size_t>(main_i)][0], "ext_sink");
}

TEST(CallGraph, CallerLessCycleStillYieldsARoot) {
  const Module m = parse(R"(func @a(%n) -> f64 {
entry:
  %r = call @b(%n)
  ret %r
}
func @b(%n) -> f64 {
entry:
  %r = call @a(%n)
  ret %r
}
)");
  const CallGraph cg = build_call_graph(m);
  const std::vector<int> roots = cg.roots();
  ASSERT_EQ(roots.size(), 1u);  // one representative for the cycle
  EXPECT_EQ(cg.reachable_from(roots).size(), 2u);
}

// ---------------------------------------------------------------------------
// Verifier: structural rules
// ---------------------------------------------------------------------------

TEST(Verifier, AcceptsWellFormedModule) {
  const VerifyResult vr = verify_module(parse(kLeafTop));
  EXPECT_TRUE(vr.ok()) << vr.to_string();
  EXPECT_EQ(vr.warnings(), 0u);
}

TEST(Verifier, BranchTargetOutOfRange) {
  // The parser resolves labels, so an out-of-range target can only be built
  // by hand — exactly what the rule guards against in programmatic IR.
  Module m = parse(kDiamond);
  m.funcs[0].blocks[0].insts.back().t1 = 99;
  const VerifyResult vr = verify_module(m);
  EXPECT_FALSE(vr.ok());
  EXPECT_TRUE(vr.has("target")) << vr.to_string();
}

TEST(Verifier, RegisterIndexOutOfRange) {
  Module m = parse(kDiamond);
  m.funcs[0].blocks[1].insts[0].a = 42;
  const VerifyResult vr = verify_module(m);
  EXPECT_FALSE(vr.ok());
  EXPECT_TRUE(vr.has("reg-bounds")) << vr.to_string();
}

TEST(Verifier, DuplicateFunctionAndBlockLabel) {
  // The parser rejects both, so hand-build the duplicates.
  Module m = parse(kLeafTop);
  m.funcs.push_back(m.funcs[0]);  // second @leaf
  VerifyResult vr = verify_module(m);
  EXPECT_TRUE(vr.has("duplicate")) << vr.to_string();

  Module m2 = parse(kDiamond);
  m2.funcs[0].blocks[2].label = "a";  // second block named 'a'
  vr = verify_module(m2);
  EXPECT_TRUE(vr.has("duplicate")) << vr.to_string();
}

TEST(Verifier, UnreachableBlockIsAWarningNotAnError) {
  const Module m = parse(R"(func @f(%x) -> f64 {
entry:
  ret %x
island:
  ret %x
}
)");
  const VerifyResult vr = verify_module(m);
  EXPECT_TRUE(vr.ok());
  EXPECT_TRUE(vr.has("unreachable")) << vr.to_string();
  // And the warning is suppressible.
  VerifyOptions opts;
  opts.flag_unreachable = false;
  EXPECT_FALSE(verify_module(m, opts).has("unreachable"));
}

TEST(Verifier, UndefUseOnlyOnTheOffendingPath) {
  // %t is defined on the a-path only; the join read may see it undefined.
  const Module bad = parse(R"(func @f(%x) -> f64 {
entry:
  %c = fcmp ge %x, %x
  brcond %c, a, b
a:
  %t = fadd %x, %x
  br join
b:
  br join
join:
  %r = fadd %t, %x
  ret %r
}
)");
  const VerifyResult vr = verify_module(bad);
  EXPECT_FALSE(vr.ok());
  ASSERT_TRUE(vr.has("undef-use")) << vr.to_string();
  EXPECT_NE(vr.find("undef-use")->message.find("t"), std::string::npos);

  // Same shape but defined on both arms: clean (must-assign, not syntactic).
  const Module good = parse(R"(func @f(%x) -> f64 {
entry:
  %c = fcmp ge %x, %x
  brcond %c, a, b
a:
  %t = fadd %x, %x
  br join
b:
  %t = fmul %x, %x
  br join
join:
  %r = fadd %t, %x
  ret %r
}
)");
  EXPECT_TRUE(verify_module(good).ok()) << verify_module(good).to_string();
}

TEST(Verifier, RuleTableCoversEveryEmittedRule) {
  const auto& rules = verifier_rules();
  ASSERT_GE(rules.size(), 13u);
  for (const char* id : {"terminator", "target", "reg-bounds", "undef-use",
                         "arity", "duplicate", "shim-args", "clone-fp",
                         "clone-call", "scratch-thread", "scratch-free",
                         "unreachable", "external-call"}) {
    bool found = false;
    for (const auto& r : rules) found |= std::string_view(r.id) == id;
    EXPECT_TRUE(found) << "missing rule in table: " << id;
  }
}

TEST(Verifier, ParseCloneName) {
  const auto c = parse_clone_name("_sound_speed_trunc_f64_to_5_10");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->base, "sound_speed");
  EXPECT_EQ(c->to_exp, 5);
  EXPECT_EQ(c->to_man, 10);
  EXPECT_FALSE(parse_clone_name("sound_speed").has_value());
  EXPECT_FALSE(parse_clone_name("_x_trunc_f64_to_five_10").has_value());
}

// ---------------------------------------------------------------------------
// Verifier: instrumentation invariants over real pass output
// ---------------------------------------------------------------------------

ir::Inst* find_call(ir::Function& f, std::string_view callee) {
  for (auto& b : f.blocks)
    for (auto& in : b.insts)
      if (in.op == Opcode::Call && in.callee == callee) return &in;
  return nullptr;
}

TEST(InstrumentationVerify, PassOutputVerifiesCleanInEveryMode) {
  const Module m = parse(kLeafTop);
  // Function scope, scratch on and off; then whole-module.
  for (const bool scratch : {true, false}) {
    ir::TruncPassOptions o;
    o.root = "top";
    o.scratch_opt = scratch;
    const ir::TruncPassResult r = ir::run_trunc_pass(m, o);
    EXPECT_TRUE(verify_module(r.module).ok()) << verify_module(r.module).to_string();
    InstrumentationInfo info;
    info.transformed = r.transformed;
    info.scratch_opt = scratch;
    const VerifyResult vi = verify_instrumentation(r.module, info);
    EXPECT_TRUE(vi.ok()) << vi.to_string();
  }
  ir::TruncPassOptions whole;  // root="" = whole-module
  const ir::TruncPassResult r = ir::run_trunc_pass(m, whole);
  InstrumentationInfo info;
  info.transformed = r.transformed;
  info.whole_module = true;
  const VerifyResult vi = verify_instrumentation(r.module, info);
  EXPECT_TRUE(vi.ok()) << vi.to_string();
}

TEST(InstrumentationVerify, MutatedPassOutputTripsEachRule) {
  ir::TruncPassOptions o;
  o.root = "top";
  const ir::TruncPassResult r = ir::run_trunc_pass(parse(kLeafTop), o);
  const std::string leaf_clone = "_leaf_trunc_f64_to_8_23";
  const std::string top_clone = "_top_trunc_f64_to_8_23";

  {  // clone-fp: a raw FP op survives in a clone
    Module m = r.module;
    ir::Inst* shim = find_call(*m.find(leaf_clone), "_raptor_mul_f64");
    ASSERT_NE(shim, nullptr);
    shim->op = Opcode::FMul;
    shim->a = shim->b = 0;
    shim->callee.clear();
    shim->call_args.clear();
    EXPECT_TRUE(verify_module(m).has("clone-fp")) << verify_module(m).to_string();
  }
  {  // clone-call: intra-set call pointed back at the original
    Module m = r.module;
    ir::Inst* call = find_call(*m.find(top_clone), leaf_clone);
    ASSERT_NE(call, nullptr);
    call->callee = "leaf";
    EXPECT_TRUE(verify_module(m).has("clone-call")) << verify_module(m).to_string();
  }
  {  // scratch-thread: trailing scratch register dropped from a clone call
    Module m = r.module;
    ir::Inst* call = find_call(*m.find(top_clone), leaf_clone);
    ASSERT_NE(call, nullptr);
    ASSERT_FALSE(call->call_args.empty());
    call->call_args.pop_back();
    EXPECT_TRUE(verify_module(m).has("scratch-thread")) << verify_module(m).to_string();
  }
  {  // scratch-free: the pad leaks on the return path
    Module m = r.module;
    ir::Function& f = *m.find(top_clone);
    bool erased = false;
    for (auto& b : f.blocks)
      for (std::size_t i = 0; i < b.insts.size(); ++i)
        if (b.insts[i].op == Opcode::Call && b.insts[i].callee == "_raptor_free_scratch") {
          b.insts.erase(b.insts.begin() + static_cast<std::ptrdiff_t>(i));
          erased = true;
          break;
        }
    ASSERT_TRUE(erased);
    EXPECT_TRUE(verify_module(m).has("scratch-free")) << verify_module(m).to_string();
  }
  {  // shim-args: format immediates disagree with the clone's target format
    Module m = r.module;
    ir::Inst* shim = find_call(*m.find(leaf_clone), "_raptor_mul_f64");
    ASSERT_NE(shim, nullptr);
    for (auto& a : shim->call_args)
      if (a.kind == ir::Arg::Kind::Imm && a.imm == 8.0) a.imm = 5.0;
    EXPECT_TRUE(verify_module(m).has("shim-args")) << verify_module(m).to_string();
  }
}

TEST(InstrumentationVerify, ExternalCallsAreWarnings) {
  const Module m = parse(R"(func @top(%x) -> f64 {
entry:
  %t = call @library_fn(%x)
  %r = fadd %t, %x
  ret %r
}
)");
  ir::TruncPassOptions o;
  o.root = "top";
  const ir::TruncPassResult r = ir::run_trunc_pass(m, o);
  ASSERT_FALSE(r.warnings.empty());
  InstrumentationInfo info;
  info.transformed = r.transformed;
  const VerifyResult vi = verify_instrumentation(r.module, info);
  EXPECT_TRUE(vi.ok()) << vi.to_string();
  EXPECT_TRUE(vi.has("external-call")) << vi.to_string();
}

TEST(PassVerifyHook, RejectsBrokenInputAndCanBeDisabled) {
  // %t may be uninitialized on the b-path: structurally invalid input.
  const Module bad = parse(R"(func @f(%x) -> f64 {
entry:
  %c = fcmp ge %x, %x
  brcond %c, a, b
a:
  %t = fadd %x, %x
  br join
b:
  br join
join:
  %r = fadd %t, %x
  ret %r
}
)");
  ir::TruncPassOptions o;
  o.root = "f";
  EXPECT_THROW((void)ir::run_trunc_pass(bad, o), std::invalid_argument);
  o.verify = false;
  EXPECT_NO_THROW((void)ir::run_trunc_pass(bad, o));
}

// ---------------------------------------------------------------------------
// Seeded-defect corpus + in-tree examples
// ---------------------------------------------------------------------------

TEST(Corpus, EveryFixtureRejectedWithItsManifestRule) {
  int checked = 0;
  for (const auto& e : fs::directory_iterator(RAPTOR_RIR_FIXTURE_DIR)) {
    if (e.path().extension() != ".rir") continue;
    const std::string text = slurp(e.path());
    // Manifest: the first line is `# expect-fail: <rule>`.
    const std::string first = text.substr(0, text.find('\n'));
    const std::string key = "expect-fail:";
    const std::size_t pos = first.find(key);
    ASSERT_NE(pos, std::string::npos) << e.path() << " lacks an expect-fail manifest";
    std::string rule = first.substr(pos + key.size());
    rule.erase(0, rule.find_first_not_of(" \t"));
    rule.erase(rule.find_last_not_of(" \t\r") + 1);
    SCOPED_TRACE(e.path().filename().string() + " expects rule '" + rule + "'");
    try {
      const Module m = parse(text);
      const VerifyResult vr = verify_module(m);
      EXPECT_FALSE(vr.ok()) << "fixture unexpectedly verified clean";
      EXPECT_TRUE(vr.has(rule)) << vr.to_string();
    } catch (const ir::ParseError& pe) {
      EXPECT_EQ(rule, "parse") << pe.what();
    }
    ++checked;
  }
  EXPECT_GE(checked, 14);
}

TEST(Corpus, EveryInTreeExampleVerifiesClean) {
  int checked = 0;
  for (const auto& e : fs::directory_iterator(RAPTOR_RIR_EXAMPLE_DIR)) {
    if (e.path().extension() != ".rir") continue;
    SCOPED_TRACE(e.path().filename().string());
    const VerifyResult vr = verify_module(load(e.path()));
    EXPECT_TRUE(vr.ok()) << vr.to_string();
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

// ---------------------------------------------------------------------------
// Parser diagnostics: line and column
// ---------------------------------------------------------------------------

TEST(ParserDiag, UnknownOpcodeCarriesLineAndColumn) {
  try {
    (void)parse("func @f(%x) -> f64 {\nentry:\n  %t = frobnicate %x\n  ret %t\n}\n");
    FAIL() << "expected ParseError";
  } catch (const ir::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.col(), 8);
    EXPECT_NE(std::string(e.what()).find("rir:3:8"), std::string::npos) << e.what();
  }
}

TEST(ParserDiag, DuplicateLabelAndFunctionAreLocated) {
  try {
    (void)parse("func @f(%x) -> f64 {\nentry:\n  br next\nentry:\n  ret %x\n}\n");
    FAIL() << "expected ParseError";
  } catch (const ir::ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.col(), 1);
  }
  try {
    (void)parse(
        "func @f(%x) -> f64 {\nentry:\n  ret %x\n}\n"
        "func @f(%x) -> f64 {\nentry:\n  ret %x\n}\n");
    FAIL() << "expected ParseError";
  } catch (const ir::ParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_GT(e.col(), 0);
  }
}

// ---------------------------------------------------------------------------
// Static exponent-range analysis
// ---------------------------------------------------------------------------

TEST(ExpInterval, OfJoinAndFlags) {
  EXPECT_EQ(ExpInterval::of(1.5), ExpInterval::range(0, 0));
  EXPECT_EQ(ExpInterval::of(0.75), ExpInterval::range(-1, -1));
  const ExpInterval z = ExpInterval::of(0.0);
  EXPECT_TRUE(z.empty());
  EXPECT_TRUE(z.zero);
  EXPECT_FALSE(z.is_bottom());
  const ExpInterval inf = ExpInterval::of(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(inf.non_finite);
  const ExpInterval j = ExpInterval::range(-2, 0).join(ExpInterval::range(1, 3));
  EXPECT_EQ(j, ExpInterval::range(-2, 3));
  EXPECT_TRUE(ExpInterval::bottom().join(z) == z);
}

TEST(ExpInterval, WideningJumpsToThresholds) {
  // A bound creeping one binade per join must jump to a format threshold.
  const ExpInterval old = ExpInterval::range(0, 6);
  const ExpInterval grown = ExpInterval::range(0, 7);
  const ExpInterval w = grown.widen(old);
  EXPECT_EQ(w.lo, 0);
  EXPECT_GE(w.hi, 14);     // next threshold past 7
  EXPECT_LE(w.hi, kExpMax);
  // Unchanged bounds are left alone.
  EXPECT_EQ(old.widen(old), old);
}

TEST(ExpTransfer, ArithmeticBounds) {
  const ExpInterval a = ExpInterval::range(0, 1);   // |x| in [1, 4)
  const ExpInterval b = ExpInterval::range(-2, 0);  // |y| in [0.25, 2)
  const ExpInterval mul = exp_transfer(Opcode::FMul, a, b);
  EXPECT_EQ(mul.lo, -2);
  EXPECT_EQ(mul.hi, 2);  // 1 + 0 + 1 carry binade
  const ExpInterval div = exp_transfer(Opcode::FDiv, a, b);
  EXPECT_EQ(div.lo, -1);  // 0 - 0 - 1
  EXPECT_EQ(div.hi, 4);   // 1 - (-2) + 1
  const ExpInterval add = exp_transfer(Opcode::FAdd, a, b);
  EXPECT_EQ(add.lo, -2);  // optimistic: cancellation ignored (see header)
  EXPECT_EQ(add.hi, 2);   // max(1, 0) + 1
  const ExpInterval sqrt = exp_transfer(Opcode::FSqrt, ExpInterval::range(-3, 3), {});
  EXPECT_EQ(sqrt.lo, -2);
  EXPECT_EQ(sqrt.hi, 2);
  // Division by a possibly-zero denominator may produce non-finite.
  ExpInterval zb = b;
  zb.zero = true;
  EXPECT_TRUE(exp_transfer(Opcode::FDiv, a, zb).non_finite);
}

TEST(ExpTransfer, ClampToFormatFlushesAndSaturates) {
  // fp8-style e=4 (bias 7): normals span [-6, 7].
  const ExpInterval wide = ExpInterval::range(-40, 40);
  const ExpInterval c = exp_clamp_to_format(wide, 4);
  EXPECT_LE(c.hi, 7);
  EXPECT_TRUE(c.zero);        // underflow flushes
  EXPECT_TRUE(c.non_finite);  // overflow saturates
  const ExpInterval inside = ExpInterval::range(-2, 3);
  const ExpInterval kept = exp_clamp_to_format(inside, 8);
  EXPECT_EQ(kept.lo, -2);
  EXPECT_EQ(kept.hi, 3);
}

TEST(ExpRange, StraightLinePerLocIntervals) {
  const Module m = parse(R"(func @axpy(%a, %x, %y) -> f64 {
entry:
  %t = fmul %a, %x
  %r = fadd %t, %y
  ret %r
}
)");
  ExpRangeOptions opts;
  opts.entry_params = {{"axpy",
                        {ExpInterval::range(1, 1), ExpInterval::range(0, 0),
                         ExpInterval::range(2, 2)}}};
  const ModuleExpAnalysis a = analyze_exp_ranges(m, opts);
  const FunctionExpSummary* s = a.find("axpy");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->analyzed);
  const ExpInterval* mul = s->find_loc("ir:3");
  const ExpInterval* add = s->find_loc("ir:4");
  ASSERT_NE(mul, nullptr);
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(*mul, ExpInterval::range(1, 2));  // 1+0 .. 1+0+1
  EXPECT_EQ(add->lo, 1);
  EXPECT_EQ(add->hi, 3);  // max(2,2)+1
  EXPECT_EQ(s->ret.lo, 1);
  EXPECT_EQ(s->ret.hi, 3);
}

TEST(ExpRange, LoopWideningConvergesOnSquaringLoop) {
  // x doubles its exponent every iteration; without widening the fixpoint
  // would creep one threshold at a time for thousands of iterations.
  const Module m = parse(R"(func @sq(%n) -> f64 {
entry:
  %x = const 2.0
  %i = const 0.0
  %one = const 1.0
  br head
head:
  %c = fcmp lt %i, %n
  brcond %c, body, done
body:
  %x2 = fmul %x, %x
  set %x, %x2
  %i2 = fadd %i, %one
  set %i, %i2
  br head
done:
  ret %x
}
)");
  const ModuleExpAnalysis a = analyze_exp_ranges(m);
  const FunctionExpSummary* s = a.find("sq");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->analyzed);
  EXPECT_GE(s->all_fp.hi, 1022);  // widened to the double-format threshold
}

TEST(ExpRange, InterproceduralSummariesOnWavespeed) {
  const Module m = load(fs::path(RAPTOR_RIR_EXAMPLE_DIR) / "hll_wavespeed.rir");
  ExpRangeOptions opts;
  // gamma=1.4, p in [0.4,1], rho in [0.5,1], u in [2,4].
  opts.entry_params = {{"wavespeed_r",
                        {ExpInterval::range(0, 0), ExpInterval::range(-2, 0),
                         ExpInterval::range(-1, 0), ExpInterval::range(1, 2),
                         ExpInterval::range(-2, 0), ExpInterval::range(-1, 0),
                         ExpInterval::range(1, 2)}}};
  const ModuleExpAnalysis a = analyze_exp_ranges(m, opts);
  const FunctionExpSummary* ss = a.find("sound_speed");
  const FunctionExpSummary* ws = a.find("wavespeed_r");
  ASSERT_NE(ss, nullptr);
  ASSERT_NE(ws, nullptr);
  ASSERT_TRUE(ss->analyzed);  // reached through call sites, not as a root
  // c = sqrt(gamma*p/rho): [-2,1] / [-1,0] -> [-3,3] -> sqrt -> [-2,2].
  EXPECT_EQ(ss->ret.lo, -2);
  EXPECT_EQ(ss->ret.hi, 2);
  // sr = max(u + c): [-2, 3] either side.
  EXPECT_EQ(ws->ret.lo, -2);
  EXPECT_EQ(ws->ret.hi, 3);
  // Hints in the trace-Recommendation shape, per call-site loc.
  const auto recs = exp_hints(a);
  std::map<std::string, int> by_label;
  for (const auto& r : recs) by_label[r.label] = r.exp_bits;
  EXPECT_EQ(by_label.at("ir:7"), 3);  // mul  [-2,1]
  EXPECT_EQ(by_label.at("ir:8"), 4);  // div  [-3,3]
  EXPECT_EQ(by_label.at("ir:9"), 3);  // sqrt [-2,2]
  EXPECT_EQ(by_label.at("ir:17"), 3);
  EXPECT_EQ(by_label.at("ir:18"), 3);
  EXPECT_EQ(by_label.at("wavespeed_r"), 3);  // function-scope hint
  // And as SearchOptions::exp_hints pairs.
  const auto pairs = to_search_hints(recs);
  ASSERT_EQ(pairs.size(), recs.size());
  EXPECT_EQ(pairs[0].second, by_label.at(pairs[0].first));
}

TEST(ExpRange, RecursiveSccWidensToAFixpoint) {
  const Module m = parse(R"(func @grow(%x, %n) -> f64 {
entry:
  %c = fcmp le %n, %n
  brcond %c, rec, done
rec:
  %x2 = fmul %x, %x
  %r = call @grow(%x2, %n)
  ret %r
done:
  ret %x
}
)");
  ExpRangeOptions opts;
  opts.entry_params = {{"grow", {ExpInterval::range(1, 1), ExpInterval::range(0, 0)}}};
  const ModuleExpAnalysis a = analyze_exp_ranges(m, opts);
  const FunctionExpSummary* s = a.find("grow");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->analyzed);  // terminated despite the recursive SCC
  EXPECT_GE(s->ret.hi, 14);  // widened past the seed exponent
}

// ---------------------------------------------------------------------------
// Auto-instrumentation driver
// ---------------------------------------------------------------------------

TEST(AutoInstrument, ConfigParseAndLocatedErrors) {
  const AutoInstrumentOptions o = parse_auto_config(
      "# roots\nroot top 5 10\ndefault 6 12\nscratch off\nhints on\nverify on\n");
  ASSERT_EQ(o.roots.size(), 1u);
  EXPECT_EQ(o.roots[0].name, "top");
  EXPECT_EQ(o.roots[0].to_exp, 5);
  EXPECT_EQ(o.roots[0].to_man, 10);
  EXPECT_EQ(o.to_exp, 6);
  EXPECT_FALSE(o.scratch_opt);
  EXPECT_TRUE(o.use_static_hints);
  try {
    (void)parse_auto_config("root\n");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
}

TEST(AutoInstrument, ExplicitRootProducesVerifiedCloneSet) {
  AutoInstrumentOptions o;
  o.roots = {{"top", 5, 10}};
  const AutoInstrumentResult r = auto_instrument(parse(kLeafTop), o);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].root, "top");
  EXPECT_EQ(r.entries[0].entry, "_top_trunc_f64_to_5_10");
  ASSERT_NE(r.module.find("_top_trunc_f64_to_5_10"), nullptr);
  ASSERT_NE(r.module.find("_leaf_trunc_f64_to_5_10"), nullptr);
  EXPECT_TRUE(verify_module(r.module).ok()) << verify_module(r.module).to_string();
}

TEST(AutoInstrument, UnknownRootIsSkippedWithAReason) {
  AutoInstrumentOptions o;
  o.roots = {{"nope", -1, -1}};
  const AutoInstrumentResult r = auto_instrument(parse(kLeafTop), o);
  EXPECT_TRUE(r.entries.empty());
  ASSERT_EQ(r.skipped.size(), 1u);
  EXPECT_EQ(r.skipped[0].root, "nope");
  EXPECT_FALSE(r.skipped[0].reason.empty());
}

TEST(AutoInstrument, CallGraphRootsPickedWhenNoConfig) {
  const AutoInstrumentResult r = auto_instrument(parse(kLeafTop), {});
  ASSERT_EQ(r.entries.size(), 1u);  // only @top is caller-less
  EXPECT_EQ(r.entries[0].root, "top");
}

TEST(AutoInstrument, StaticHintsChooseTheExponentWidth) {
  const Module m = load(fs::path(RAPTOR_RIR_EXAMPLE_DIR) / "hll_wavespeed.rir");
  AutoInstrumentOptions o;
  o.roots = {{"wavespeed_r", -1, -1}};
  o.use_static_hints = true;
  const AutoInstrumentResult r = auto_instrument(m, o);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_FALSE(r.hints.empty());
  // With top() entry params the closure join is unbounded -> exp stays wide;
  // what matters is that the hinted width came from the analysis and the
  // result still verifies.
  EXPECT_GE(r.entries[0].to_exp, 2);
  EXPECT_LE(r.entries[0].to_exp, 11);
  EXPECT_TRUE(verify_module(r.module).ok()) << verify_module(r.module).to_string();
}

// ---------------------------------------------------------------------------
// Static hints vs PR-5 dynamic tracing, and seeding PrecisionSearch
// ---------------------------------------------------------------------------

class IrAnalysisRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override { Runtime::instance().reset_all(); }
  Runtime& R = Runtime::instance();
};

TEST_F(IrAnalysisRuntimeTest, StaticHintsAgreeWithTraceWithinOneBit) {
  const Module m = load(fs::path(RAPTOR_RIR_EXAMPLE_DIR) / "hll_wavespeed.rir");

  // Static side: entry intervals matching the dynamic input distribution.
  ExpRangeOptions ro;
  ro.entry_params = {{"wavespeed_r",
                      {ExpInterval::range(0, 0), ExpInterval::range(-2, 0),
                       ExpInterval::range(-1, 0), ExpInterval::range(1, 2),
                       ExpInterval::range(-2, 0), ExpInterval::range(-1, 0),
                       ExpInterval::range(1, 2)}}};
  std::map<std::string, int> static_bits;
  for (const auto& r : exp_hints(analyze_exp_ranges(m, ro)))
    if (r.label.rfind("ir:", 0) == 0) static_bits[r.label] = r.exp_bits;
  ASSERT_GE(static_bits.size(), 5u);

  // Dynamic side: instrument at the identity format (11, 52) so the shims
  // run, push their "ir:<line>" regions, and feed the tracer undisturbed.
  ir::TruncPassOptions po;
  po.root = "wavespeed_r";
  po.to_exp = 11;
  po.to_man = 52;
  const ir::TruncPassResult tp = ir::run_trunc_pass(m, po);

  const char* kPath = "ir_analysis_agreement.rtrace";
  trace::TraceOptions to;
  to.path = kPath;
  to.sample_stride = 1;  // trace every op
  R.trace_start(to);
  {
    ir::Interpreter interp(tp.module);
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      const double gamma = 1.4;
      const double pl = rng.uniform(0.4, 1.0), pr = rng.uniform(0.4, 1.0);
      const double rl = rng.uniform(0.5, 1.0), rr = rng.uniform(0.5, 1.0);
      const double ul = rng.uniform(2.0, 4.0), ur = rng.uniform(2.0, 4.0);
      (void)interp.call(tp.entry, {gamma, pl, rl, ul, pr, rr, ur});
    }
  }
  (void)R.trace_stop();
  const trace::TraceData td = trace::read_rtrace(kPath);
  std::remove(kPath);

  std::map<std::string, int> traced_bits;
  for (const auto& r : trace::recommend(td))
    if (r.label.rfind("ir:", 0) == 0) traced_bits[r.label] = r.exp_bits;
  ASSERT_GE(traced_bits.size(), 4u);

  // Acceptance gate: every call site seen by both sides agrees within one
  // exponent bit (static analysis is conservative; tracing is exact for the
  // inputs it saw).
  int shared = 0;
  for (const auto& [label, tbits] : traced_bits) {
    const auto it = static_bits.find(label);
    if (it == static_bits.end()) continue;
    ++shared;
    EXPECT_LE(std::abs(it->second - tbits), 1)
        << label << ": static " << it->second << " vs traced " << tbits;
    // The static width must cover the dynamic range (never narrower).
    EXPECT_GE(it->second, tbits) << label;
  }
  EXPECT_GE(shared, 4);
}

TEST_F(IrAnalysisRuntimeTest, PrecisionSearchAcceptsStaticExpHints) {
  const Module m = load(fs::path(RAPTOR_RIR_EXAMPLE_DIR) / "hll_wavespeed.rir");

  ExpRangeOptions ro;
  ro.entry_params = {{"wavespeed_r",
                      {ExpInterval::range(0, 0), ExpInterval::range(-2, 0),
                       ExpInterval::range(-1, 0), ExpInterval::range(1, 2),
                       ExpInterval::range(-2, 0), ExpInterval::range(-1, 0),
                       ExpInterval::range(1, 2)}}};
  const auto hints = to_search_hints(exp_hints(analyze_exp_ranges(m, ro)));
  ASSERT_FALSE(hints.empty());

  // Identity-format instrumentation: the search's per-region overrides
  // decide the actual formats (region overrides beat shim scopes).
  ir::TruncPassOptions po;
  po.root = "wavespeed_r";
  po.to_exp = 11;
  po.to_man = 52;
  const ir::TruncPassResult tp = ir::run_trunc_pass(m, po);

  search::Workload w;
  w.name = "hll_wavespeed";
  w.run = [&tp]() {
    ir::Interpreter interp(tp.module);
    Rng rng(7);
    std::vector<double> out;
    for (int i = 0; i < 32; ++i) {
      const double pl = rng.uniform(0.4, 1.0), pr = rng.uniform(0.4, 1.0);
      const double rl = rng.uniform(0.5, 1.0), rr = rng.uniform(0.5, 1.0);
      const double ul = rng.uniform(2.0, 4.0), ur = rng.uniform(2.0, 4.0);
      out.push_back(interp.call(tp.entry, {1.4, pl, rl, ul, pr, rr, ur}));
    }
    return out;
  };

  search::SearchOptions so;
  so.tolerance = 1e-3;
  so.exp_hints = hints;
  const search::SearchResult res = search::PrecisionSearch(so).run(w);
  EXPECT_TRUE(res.within_tolerance);
  EXPECT_GT(res.evaluations, 0);
  // Every truncated region the static analysis hinted searches the hinted
  // exponent family, not the default 11-bit one.
  int hinted_choices = 0;
  for (const auto& c : res.choices) {
    if (!c.truncated) continue;
    for (const auto& [label, bits] : hints)
      if (label == c.region) {
        EXPECT_EQ(c.format.exp_bits, bits) << c.region;
        ++hinted_choices;
      }
  }
  EXPECT_GT(hinted_choices, 0);
}

}  // namespace
}  // namespace raptor
