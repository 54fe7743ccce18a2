// Tests for the per-region profile aggregation, the per-region format
// overrides, and the automated precision-search driver (DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "runtime/profile_config.hpp"
#include "search/precision_search.hpp"
#include "search/workloads.hpp"
#include "softfloat/bigfloat.hpp"
#include "telemetry/registry.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace raptor {
namespace {

using rt::Runtime;

class SearchTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override { Runtime::instance().reset_all(); }
  Runtime& R = Runtime::instance();
};

// ---------------------------------------------------------------------------
// Per-region profile aggregation
// ---------------------------------------------------------------------------

const rt::RegionProfileEntry* find_region(const std::vector<rt::RegionProfileEntry>& v,
                                          const std::string& label) {
  for (const auto& e : v) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

TEST_F(SearchTest, RegionProfilesAttributeOpsToInnermostRegion) {
  R.set_region_profiling(true);
  {
    Region a("alpha");
    (void)(Real(1.0) + Real(2.0));
    (void)(Real(1.0) * Real(2.0));
    {
      Region b("alpha/inner");
      (void)(Real(3.0) - Real(1.0));
    }
  }
  {
    Region b("beta");
    TruncScope scope(8, 10);
    (void)(Real(1.0) / Real(3.0));
    (void)(Real(1.0) / Real(5.0));
    R.count_mem(64);
  }
  (void)(Real(4.0) + Real(4.0));  // no region: <toplevel>

  const auto profs = R.region_profiles();
  const auto* alpha = find_region(profs, "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->profile.counters.full_flops, 2u);
  EXPECT_EQ(alpha->profile.counters.trunc_flops, 0u);
  const auto* inner = find_region(profs, "alpha/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->profile.counters.full_flops, 1u);
  const auto* beta = find_region(profs, "beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->profile.counters.trunc_flops, 2u);
  EXPECT_EQ(beta->profile.counters.full_flops, 0u);
  EXPECT_EQ(beta->profile.counters.trunc_bytes, 64u);
  const auto* top = find_region(profs, "<toplevel>");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->profile.counters.full_flops, 1u);
}

TEST_F(SearchTest, RegionProfilesSortByFlopsAndReset) {
  R.set_region_profiling(true);
  {
    Region a("few");
    (void)(Real(1.0) + Real(2.0));
  }
  {
    Region b("many");
    for (int i = 0; i < 10; ++i) (void)(Real(1.0) + Real(i));
  }
  auto profs = R.region_profiles();
  ASSERT_GE(profs.size(), 2u);
  EXPECT_EQ(profs[0].label, "many");  // sorted by total flops descending
  R.reset_region_profiles();
  EXPECT_TRUE(R.region_profiles().empty());
  // Aggregation continues against fresh slots after the reset.
  {
    Region a("few");
    (void)(Real(1.0) + Real(2.0));
  }
  profs = R.region_profiles();
  ASSERT_EQ(profs.size(), 1u);
  EXPECT_EQ(profs[0].profile.counters.full_flops, 1u);
}

TEST_F(SearchTest, RegionProfilingOffCollectsNothing) {
  {
    Region a("quiet");
    (void)(Real(1.0) + Real(2.0));
  }
  EXPECT_TRUE(R.region_profiles().empty());
  EXPECT_EQ(R.counters().full_flops, 1u);  // plain counters still work
}

TEST_F(SearchTest, RegionProfilesCountBatchOpsInBulk) {
  R.set_region_profiling(true);
  double a[8], out[8];
  for (int i = 0; i < 8; ++i) a[i] = i + 1.0;
  {
    Region r("batched");
    R.op2_batch(rt::OpKind::Mul, a, a, out, 8);
  }
  const auto profs = R.region_profiles();
  const auto* e = find_region(profs, "batched");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->profile.counters.full_flops, 8u);
  EXPECT_EQ(e->profile.counters.full_by_kind[static_cast<int>(rt::OpKind::Mul)], 8u);
}

TEST_F(SearchTest, RegionProfilesRecordMemModeDeviation) {
  R.set_mode(rt::Mode::Mem);
  R.set_deviation_threshold(1e-6);
  R.set_region_profiling(true);
  {
    Region r("lossy");
    TruncScope scope(8, 4);
    Real x = Real(1.0) / Real(3.0);
    x.materialize();
  }
  R.set_mode(rt::Mode::Op);
  const auto profs = R.region_profiles();
  const auto* e = find_region(profs, "lossy");
  ASSERT_NE(e, nullptr);
  EXPECT_GT(e->profile.max_deviation, 0.0);
  EXPECT_GE(e->profile.flagged, 1u);
}

// ---------------------------------------------------------------------------
// Per-region format overrides
// ---------------------------------------------------------------------------

TEST_F(SearchTest, RegionFormatOverrideDrivesTruncation) {
  R.set_region_format("kern", rt::TruncationSpec::trunc64(8, 6));
  // Outside the region: native.
  EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), 1.0 / 3.0);
  {
    Region r("kern");
    EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), sf::trunc_div(1.0, 3.0, sf::Format{8, 6}));
    {
      Region nested("kern/sub");  // no own override: inherits
      EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(),
                       sf::trunc_div(1.0, 3.0, sf::Format{8, 6}));
    }
  }
  ASSERT_TRUE(R.region_format("kern").has_value());
  EXPECT_FALSE(R.region_format("other").has_value());
  R.clear_region_formats();
  {
    Region r("kern");
    EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), 1.0 / 3.0);
  }
}

TEST_F(SearchTest, NestedRegionOwnOverrideWinsOverInherited) {
  R.set_region_format("outer", rt::TruncationSpec::trunc64(8, 6));
  R.set_region_format("inner", rt::TruncationSpec::trunc64(11, 20));
  Region outer("outer");
  Region inner("inner");
  EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), sf::trunc_div(1.0, 3.0, sf::Format{11, 20}));
}

TEST_F(SearchTest, OverridePrecedence) {
  R.set_region_format("kern", rt::TruncationSpec::trunc64(8, 6));
  {
    // Region override beats an enclosing scope...
    TruncScope scope(11, 40);
    Region r("kern");
    EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), sf::trunc_div(1.0, 3.0, sf::Format{8, 6}));
  }
  {
    // ...and exclusion beats the override.
    R.exclude_region("kern");
    Region r("kern");
    EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), 1.0 / 3.0);
  }
}

TEST_F(SearchTest, OverrideAppliesToBatchDispatch) {
  R.set_region_format("kern", rt::TruncationSpec::trunc64(8, 6));
  double a[4] = {1.0, 1.0, 1.0, 1.0};
  double b[4] = {3.0, 5.0, 7.0, 9.0};
  double out[4];
  {
    Region r("kern");
    R.op2_batch(rt::OpKind::Div, a, b, out, 4);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i], sf::trunc_div(a[i], b[i], sf::Format{8, 6})) << i;
  }
  EXPECT_EQ(R.counters().trunc_flops, 4u);
}

TEST_F(SearchTest, OverrideRespectsConfigEpochMidRegion) {
  // Overrides resolve at region entry: a change applies from the next
  // region entry, like exclusions.
  R.set_region_format("kern", rt::TruncationSpec::trunc64(8, 6));
  {
    Region r("kern");
    EXPECT_NE((Real(1.0) / Real(3.0)).value(), 1.0 / 3.0);
  }
  R.clear_region_formats();
  {
    Region r("kern");
    EXPECT_DOUBLE_EQ((Real(1.0) / Real(3.0)).value(), 1.0 / 3.0);
  }
}

// ---------------------------------------------------------------------------
// Precision-search driver
// ---------------------------------------------------------------------------

/// Synthetic workload: two regions with very different precision demands.
/// "bulk" (a harmonic sum) tolerates narrow mantissas; "delicate" resolves
/// a 2^-44 perturbation and needs nearly full precision.
search::Workload synthetic_workload() {
  search::Workload w;
  w.name = "synthetic";
  w.regions = {"bulk", "delicate"};
  w.run = []() {
    std::vector<double> out;
    {
      Region r("bulk");
      Real acc(0.0);
      for (int i = 1; i <= 300; ++i) acc += Real(1.0) / Real(i);
      out.push_back(acc.value());
    }
    {
      Region r("delicate");
      const double delta = std::ldexp(1.0, -44);
      const Real probe = (Real(1.0) + Real(delta)) - Real(1.0);
      out.push_back((probe / Real(delta)).value());
    }
    return out;
  };
  return w;
}

TEST_F(SearchTest, DriverFindsPerRegionFormats) {
  search::SearchOptions opts;
  opts.tolerance = 1e-3;
  opts.min_man = 4;
  opts.min_flop_share = 0.0;
  const search::PrecisionSearch driver(opts);
  const auto result = driver.run(synthetic_workload());

  ASSERT_EQ(result.choices.size(), 2u);
  // The harmonic sum truncates comfortably below fp64...
  EXPECT_EQ(result.choices[0].region, "bulk");
  ASSERT_TRUE(result.choices[0].truncated);
  EXPECT_LT(result.choices[0].format.man_bits, 40);
  EXPECT_GE(result.choices[0].format.man_bits, opts.min_man);
  // ...the perturbation probe needs (nearly) everything.
  EXPECT_EQ(result.choices[1].region, "delicate");
  if (result.choices[1].truncated) {
    EXPECT_GE(result.choices[1].format.man_bits, 44);
  }
  EXPECT_TRUE(result.within_tolerance);
  EXPECT_LE(result.final_error, opts.tolerance);
  // Most flops live in the bulk region, so most flops end up truncated.
  EXPECT_GT(result.trunc_fraction, 0.5);
  EXPECT_EQ(result.trunc_share, search::flop_weighted_trunc_share(result.choices));
  EXPECT_GT(result.trunc_share, 0.0);
  EXPECT_GT(result.evaluations, 0);
  // The reference profile saw both regions.
  EXPECT_NE(find_region(result.reference_profile, "bulk"), nullptr);
  EXPECT_NE(find_region(result.reference_profile, "delicate"), nullptr);
  // The driver leaves the runtime clean.
  EXPECT_FALSE(R.region_format("bulk").has_value());
  EXPECT_FALSE(R.truncate_all().has_value());
}

TEST_F(SearchTest, DriverEmissionRoundTripsAndReapplies) {
  search::SearchOptions opts;
  opts.tolerance = 1e-3;
  opts.min_flop_share = 0.0;
  const search::PrecisionSearch driver(opts);
  const auto w = synthetic_workload();
  const auto result = driver.run(w);
  ASSERT_FALSE(result.config.region_formats.empty());

  // Round trip: emitted text parses back to the identical config.
  const std::string text = rt::emit_profile(result.config);
  EXPECT_EQ(rt::parse_profile(text), result.config);

  // Re-apply through the standard machinery: the workload reproduces the
  // verification error.
  R.reset_all();
  const auto ref = w.run();
  rt::apply_profile(R, rt::parse_profile(text));
  const auto cand = w.run();
  EXPECT_LE(search::scaled_max_error(ref, cand), opts.tolerance);
  EXPECT_DOUBLE_EQ(search::scaled_max_error(ref, cand), result.final_error);
}

TEST_F(SearchTest, DriverSkipsTinyRegions) {
  search::SearchOptions opts;
  opts.tolerance = 1e-3;
  opts.min_flop_share = 0.5;  // "delicate" is far below half the flops
  const search::PrecisionSearch driver(opts);
  const auto result = driver.run(synthetic_workload());
  ASSERT_EQ(result.choices.size(), 2u);
  EXPECT_TRUE(result.choices[0].truncated);
  EXPECT_FALSE(result.choices[1].truncated);  // skipped, stays native
  EXPECT_EQ(result.choices[1].error, 0.0);
}

TEST_F(SearchTest, ProgressGaugesCountRegionsLeftNative) {
  // An exponent hint forfeits the free identity format, so the search pays
  // a feasibility run at Format{5, 52} — which overflows "wide" (1e6 is
  // beyond e5's range) and leaves it native. The live progress gauges
  // must still count it as decided.
  search::Workload w;
  w.name = "hinted";
  w.regions = {"bulk", "wide"};
  w.run = []() {
    std::vector<double> out;
    {
      Region r("bulk");
      Real acc(0.0);
      for (int i = 1; i <= 300; ++i) acc += Real(1.0) / Real(i);
      out.push_back(acc.value());
    }
    {
      Region r("wide");
      out.push_back((Real(1e6) * Real(3.0) / Real(1e6)).value());
    }
    return out;
  };
  search::SearchOptions opts;
  opts.tolerance = 1e-3;
  opts.min_flop_share = 0.0;
  opts.exp_hints = {{"wide", 5}};
  const auto result = search::PrecisionSearch(opts).run(w);
  ASSERT_EQ(result.choices.size(), 2u);
  EXPECT_TRUE(result.choices[0].truncated);
  EXPECT_FALSE(result.choices[1].truncated);

  double done = -1.0, total = -1.0, share = -1.0;
  for (const auto& sample : telemetry::Registry::instance().snapshot().samples) {
    if (sample.name == "raptor_search_regions_done") done = sample.value;
    if (sample.name == "raptor_search_regions_total") total = sample.value;
    if (sample.name == "raptor_search_trunc_share") share = sample.value;
  }
  EXPECT_EQ(total, 2.0);
  EXPECT_EQ(done, total);
  EXPECT_EQ(share, search::flop_weighted_trunc_share(result.choices));
  EXPECT_GT(share, 0.0);
}

// ---------------------------------------------------------------------------
// Workload registry and the per-level-vs-flat mesh search (DESIGN.md §15)
// ---------------------------------------------------------------------------

TEST_F(SearchTest, NewWorkloadsResolveThroughRegistry) {
  search::WorkloadOptions quick;
  quick.quick = true;
  for (const char* name : {"dmr", "rayleigh_taylor", "shock_bubble", "sod_amr"}) {
    const auto w = search::builtin_workload(name, quick);
    EXPECT_EQ(w.name, name);
    EXPECT_TRUE(static_cast<bool>(w.run));
    EXPECT_FALSE(w.regions.empty());
  }
  // The sod_amr knobs are the per-level guard labels, coarsest first.
  const auto mesh = search::builtin_workload("sod_amr", quick);
  EXPECT_EQ(mesh.regions.front(), "amr/L1/guard");
  // Smoke one of the new setups end to end.
  const auto w = search::builtin_workload("shock_bubble", quick);
  const auto obs = w.run();
  ASSERT_FALSE(obs.empty());
  for (const double v : obs) ASSERT_TRUE(std::isfinite(v));
}

TEST_F(SearchTest, PerLevelMeshSearchBeatsFlatAtEqualBudget) {
  // The ISSUE acceptance experiment: searching each AMR level's guard
  // traffic independently must eliminate more mantissa work than the best
  // single flat format at the same error tolerance — the flat format is
  // pinned to the most sensitive level.
  search::WorkloadOptions wo;
  wo.quick = true;
  const auto w = search::make_sod_amr_workload(wo);
  search::SearchOptions opts;
  opts.tolerance = 1e-7;
  opts.min_flop_share = 0.0;  // mesh flops are tiny next to the hydro total
  const auto per_level = search::PrecisionSearch(opts).run(w);
  const auto flat = search::flat_format_search(w, opts);
  EXPECT_TRUE(per_level.within_tolerance);
  EXPECT_TRUE(flat.within_tolerance);
  const double s_per = search::flop_weighted_trunc_share(per_level.choices);
  const double s_flat = search::flop_weighted_trunc_share(flat.choices);
  EXPECT_GT(s_per, s_flat);
  EXPECT_GT(s_per, 0.0);
  // Both drivers report that share themselves. The guard regions do their
  // truncated work in bytes, so the per-level search's flop fraction reads
  // ~0% while its share does not.
  EXPECT_EQ(per_level.trunc_share, s_per);
  EXPECT_EQ(flat.trunc_share, s_flat);
  EXPECT_LT(per_level.trunc_fraction, 0.01);
}

// ---------------------------------------------------------------------------
// The inert-group rule (DESIGN.md §10)
// ---------------------------------------------------------------------------

/// Options whose log callback appends each line to `log`.
search::SearchOptions logging_to(std::vector<std::string>& log, search::SearchOptions opts = {}) {
  opts.log = [&log](const std::string& line) { log.push_back(line); };
  return opts;
}

/// The mantissa width of every evaluation of `region`, in order, read from
/// the driver's log lines "  region <region>: m=<m> err ..." (a reused
/// result logs no err).
std::vector<int> probes_of(const std::vector<std::string>& log, const std::string& region) {
  std::vector<int> out;
  const std::string head = "  region " + region + ": m=";
  for (const auto& line : log) {
    if (line.rfind(head, 0) != 0) continue;
    const std::size_t end = line.find(' ', head.size());
    if (end == std::string::npos || line.compare(end, 5, " err ") != 0) continue;
    out.push_back(std::stoi(line.substr(head.size(), end - head.size())));
  }
  return out;
}

/// The log line of the evaluation of `region` at m (empty if none).
std::string probe_line(const std::vector<std::string>& log, const std::string& region, int m) {
  const std::string head = "  region " + region + ": m=" + std::to_string(m) + " err ";
  for (const auto& line : log) {
    if (line.rfind(head, 0) == 0) return line;
  }
  return {};
}

/// Harmonic sum of n terms under `label`.
Real harmonic(const char* label, int n) {
  Region r(label);
  Real acc(0.0);
  for (int i = 1; i <= n; ++i) acc += Real(1.0) / Real(i);
  return acc;
}

TEST_F(SearchTest, InertGroupIsDecidedAtItsBottomInTwoEvaluations) {
  // "dead" does as much work as "bulk" but its result never reaches the
  // observable: its first probe leaves the accepting run of "bulk" bit for
  // bit unchanged, so the next probe is min_man, which passes.
  search::Workload w;
  w.name = "inert";
  w.regions = {"bulk", "dead"};
  w.run = [] {
    const Real bulk = harmonic("bulk", 300);
    (void)harmonic("dead", 300);
    return std::vector<double>{bulk.value()};
  };
  std::vector<std::string> log;
  search::SearchOptions opts = logging_to(log);
  opts.min_flop_share = 0.0;
  const auto result = search::PrecisionSearch(opts).run(w);
  ASSERT_EQ(result.choices.size(), 2u);
  // "bulk" moves the output at every probe, so it bisects as before.
  const std::vector<int> bulk = probes_of(log, "bulk");
  EXPECT_EQ(bulk, (std::vector<int>{28, 16, 10, 13, 12, 11}));
  EXPECT_EQ(result.choices[0].format.man_bits, 11);
  EXPECT_EQ(probes_of(log, "dead"), (std::vector<int>{28, 4}));
  EXPECT_NE(probe_line(log, "dead", 4).find("[inert-bottom]"), std::string::npos);
  EXPECT_EQ(result.evaluations, static_cast<int>(bulk.size()) + 2);
  ASSERT_TRUE(result.choices[1].truncated);
  EXPECT_EQ(result.choices[1].format.man_bits, opts.min_man);
  // Measured, not assumed: the bottom's run reads the error "bulk" left.
  EXPECT_EQ(result.choices[1].error, result.choices[0].error);
  EXPECT_EQ(result.final_error, result.choices[0].error);

  // The flat search is one group under the same rule.
  w.regions = {"dead"};
  log.clear();
  const auto flat = search::flat_format_search(w, opts);
  EXPECT_EQ(probes_of(log, "dead"), (std::vector<int>{28, 4}));
  EXPECT_EQ(flat.evaluations, 2);
  ASSERT_TRUE(flat.choices[0].truncated);
  EXPECT_EQ(flat.choices[0].format.man_bits, opts.min_man);

  // An exponent-hinted group pays a feasibility probe at the top of its
  // family; an inert top sends the next probe to the bottom as well.
  log.clear();
  opts.exp_hints = {{"dead", 8}};
  const auto hinted = search::PrecisionSearch(opts).run(w);
  EXPECT_EQ(probes_of(log, "dead"), (std::vector<int>{52, 4}));
  EXPECT_NE(probe_line(log, "dead", 52).find("ok [top]"), std::string::npos);
  EXPECT_EQ(hinted.evaluations, 2);
  ASSERT_TRUE(hinted.choices[0].truncated);
  EXPECT_EQ(hinted.choices[0].format, (sf::Format{8, opts.min_man}));
}

TEST_F(SearchTest, LogPrintsEveryProbeErrorExactly) {
  // At m = 28 a harmonic sum is off by ~1e-8, which six fixed decimals
  // print as 0.000000. The log prints %.17g: nonzero, and parsed back it is
  // exactly the error of that evaluation, which the metric records.
  search::Workload w;
  w.name = "fine";
  w.regions = {"sum"};
  w.run = [] { return std::vector<double>{harmonic("sum", 300).value()}; };
  std::vector<std::string> log;
  search::SearchOptions opts = logging_to(log);
  opts.min_flop_share = 0.0;
  std::vector<double> errors;  // one per metric call, in evaluation order
  opts.metric = [&errors](const std::vector<double>& ref, const std::vector<double>& cand) {
    errors.push_back(search::scaled_max_error(ref, cand));
    return errors.back();
  };
  (void)search::PrecisionSearch(opts).run(w);
  ASSERT_FALSE(errors.empty());
  ASSERT_EQ(probes_of(log, "sum").front(), 28);
  ASSERT_GT(errors.front(), 0.0);
  ASSERT_LT(errors.front(), 5e-7);
  const std::string line = probe_line(log, "sum", 28);
  const std::string head = "  region sum: m=28 err ";
  const std::size_t end = line.find(' ', head.size());
  ASSERT_NE(end, std::string::npos) << line;
  const double logged = std::stod(line.substr(head.size(), end - head.size()));
  EXPECT_NE(logged, 0.0) << line;
  EXPECT_EQ(logged, errors.front()) << line;
  EXPECT_NE(line.find(" ok [bisect]"), std::string::npos) << line;
}

TEST_F(SearchTest, QuantizedGroupKeepsPlainBisectionsAnswer) {
  // The harmonic sum reaches the output through a native quantizer (round
  // to 1/scale): a truncation either leaves the output bit-identical or
  // moves it by at least 1/scale, over the tolerance. Every accepted probe
  // is inert, the bottom probe fails, and the answer and the probes are
  // plain bisection's (recorded with the rule absent) plus that one probe,
  // whose result a midpoint at the bottom reuses.
  struct Case {
    int terms;
    double scale;
    std::vector<int> plain_probes;  // plain bisection, m = 28 first
    int answer;
  };
  // In the second case plain bisection ends by probing min_man below an
  // accepted min_man + 1: the bottom probe's result stands in for it.
  for (const Case& c : {Case{300, 64.0, {28, 16, 10, 13, 12, 11}, 11},
                        Case{8, 4.0, {28, 16, 10, 7, 5, 4}, 5}}) {
    SCOPED_TRACE(c.terms);
    search::Workload w;
    w.name = "quantized";
    w.regions = {"coarse"};
    w.run = [c] {
      const double h = harmonic("coarse", c.terms).value();
      return std::vector<double>{std::nearbyint(h * c.scale) / c.scale};
    };
    std::vector<std::string> log;
    search::SearchOptions opts = logging_to(log);
    opts.min_flop_share = 0.0;
    const auto result = search::PrecisionSearch(opts).run(w);
    ASSERT_EQ(result.choices.size(), 1u);
    ASSERT_TRUE(result.choices[0].truncated);
    EXPECT_EQ(result.choices[0].format.man_bits, c.answer);
    EXPECT_EQ(result.final_error, 0.0);
    // Plain bisection's probes with the bottom probe after the first; a
    // plain probe of the bottom is not made again.
    std::vector<int> expected = {c.plain_probes.front(), opts.min_man};
    for (std::size_t k = 1; k < c.plain_probes.size(); ++k) {
      if (c.plain_probes[k] != opts.min_man) expected.push_back(c.plain_probes[k]);
    }
    EXPECT_EQ(probes_of(log, "coarse"), expected);
    EXPECT_EQ(result.evaluations, static_cast<int>(expected.size()));
    EXPECT_NE(probe_line(log, "coarse", opts.min_man).find("too coarse [inert-bottom]"),
              std::string::npos);
  }
}

/// One searched region's probe sequence and answer in a quick builtin.
struct ProbePin {
  const char* region;
  std::vector<int> probes;
  int answer;
};

struct PinCase {
  const char* workload;
  double min_flop_share;
  std::vector<ProbePin> pins;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.workload; }

class SearchProbePins : public ::testing::TestWithParam<PinCase> {
 protected:
  void TearDown() override { Runtime::instance().reset_all(); }
};

TEST_P(SearchProbePins, ProbeSequencesAndAnswersHold) {
  const PinCase& pc = GetParam();
  search::WorkloadOptions quick;
  quick.quick = true;
  std::vector<std::string> log;
  search::SearchOptions opts = logging_to(log);
  opts.min_flop_share = pc.min_flop_share;
  const auto result = search::PrecisionSearch(opts).run(search::builtin_workload(pc.workload, quick));
  EXPECT_TRUE(result.within_tolerance);
  std::size_t evaluations = 0;
  for (const ProbePin& pin : pc.pins) {
    SCOPED_TRACE(pin.region);
    EXPECT_EQ(probes_of(log, pin.region), pin.probes);
    evaluations += pin.probes.size();
    const auto choice = std::find_if(result.choices.begin(), result.choices.end(),
                                     [&](const auto& c) { return c.region == pin.region; });
    ASSERT_NE(choice, result.choices.end());
    ASSERT_TRUE(choice->truncated);
    EXPECT_EQ(choice->format.man_bits, pin.answer);
  }
  EXPECT_EQ(result.evaluations, static_cast<int>(evaluations));
}

// bubble's diffuse and sod_amr's L1 guard are inert (their m = 28 output is
// bit-identical to the run they start from); burn's hydro and burn and
// rayleigh_taylor's gravity reproduce the previous acceptance's error at
// m = 28 with a different output, so they keep every probe.
INSTANTIATE_TEST_SUITE_P(
    QuickBuiltins, SearchProbePins,
    ::testing::Values(
        PinCase{"bubble", 0.01,
                {{"incomp/advect", {28, 16, 10, 7, 9, 8}, 9}, {"incomp/diffuse", {28, 4}, 4}}},
        PinCase{"sod_amr", 0.0,
                {{"amr/L1/guard", {28, 4}, 4}, {"amr/L2/guard", {28, 16, 10, 7, 5, 6}, 7}}},
        PinCase{"burn", 0.01,
                {{"eos", {28, 16, 10, 13, 15}, 16},
                 {"hydro", {28, 16, 10, 13, 12}, 13},
                 {"burn", {28, 16, 10, 13, 12}, 13}}},
        PinCase{"rayleigh_taylor", 0.01,
                {{"hydro/recon", {28, 16, 10, 13, 12, 11}, 11},
                 {"hydro/riemann", {28, 16, 10, 13, 12, 11}, 12},
                 {"hydro/update", {28, 16, 10, 13, 12, 11}, 12},
                 {"hydro/gravity", {28, 16, 22, 19, 18}, 19}}}),
    [](const ::testing::TestParamInfo<PinCase>& info) { return std::string(info.param.workload); });

TEST(ScaledMaxError, HandlesNaNAndScale) {
  using search::scaled_max_error;
  EXPECT_DOUBLE_EQ(scaled_max_error({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(scaled_max_error({0.0, 2.0}, {0.0, 2.002}), 0.001, 1e-12);
  const double nan = std::nan("");
  EXPECT_TRUE(std::isinf(scaled_max_error({1.0, 2.0}, {1.0, nan})));
  EXPECT_DOUBLE_EQ(scaled_max_error({nan, 2.0}, {nan, 2.0}), 0.0);  // both diverged
  EXPECT_TRUE(std::isinf(scaled_max_error({1.0}, {1.0, 2.0})));     // size mismatch
}

}  // namespace
}  // namespace raptor
