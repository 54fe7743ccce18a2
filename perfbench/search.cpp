// search_bubble: time to a precision-search answer. PrecisionSearch with
// default SearchOptions (tolerance 1e-3, the Format{11,m} family) on the
// non-quick builtin "bubble" workload, one OpenMP thread. The batch entry
// points and PrecisionSearch itself do the work: the batched WENO advection
// dominates each evaluation, and every answer costs a dozen evaluations
// plus the reference and verify runs. (The Poisson search takes ~15 s per
// answer through BigFloat, too long to repeat.)
#include <cstdio>

#include "bench.hpp"
#include "incomp/bubble.hpp"
#include "runtime/profile_config.hpp"
#include "runtime/runtime.hpp"
#include "search/precision_search.hpp"
#include "search/workloads.hpp"

namespace perfbench {

namespace {

namespace rt = raptor::rt;
namespace search = raptor::search;
namespace incomp = raptor::incomp;

/// The builtin bubble workload's problem on plain double: the native
/// baseline of slowdown_x (search time in native runs).
double native_bubble(bool quick, u64& checksum) {
  incomp::BubbleConfig bc;
  const int n = quick ? 12 : 20;
  bc.nx = n;
  bc.ny = 2 * n;
  bc.poisson_max_iter = 300;
  const int steps = quick ? 6 : 15;
  const Stopwatch run;
  incomp::BubbleSim<double> sim(bc);
  for (int s = 0; s < steps; ++s) sim.step();
  const double t = run.seconds();
  const auto phi = sim.phi_field();
  checksum = fnv_doubles(phi.v.data(), phi.v.size());
  return t;
}

/// Per-layer record of the evaluations inside the traced searches, gathered
/// by wrapping Workload::run.
struct EvalLog {
  std::vector<double> seconds;  ///< every Workload::run, in call order
  RegionDeltas regions;
  rt::CounterSnapshot counters;
  std::vector<double> counters_us, profiles_us;  ///< live reads between runs
};

search::Workload traced_workload(const search::Workload& inner, EvalLog& log) {
  search::Workload w = inner;
  w.run = [run = inner.run, &log]() {
    auto& R = rt::Runtime::instance();
    Span span("search.eval");
    // PrecisionSearch profiles only its reference run; profile every run here.
    const bool was_profiling = R.region_profiling();
    if (!was_profiling) R.set_region_profiling(true);
    const Stopwatch read_profiles;
    const auto prof0 = R.region_profiles();
    log.profiles_us.push_back(1e6 * read_profiles.seconds());
    const Stopwatch read_counters;
    const rt::CounterSnapshot c0 = R.counters();
    log.counters_us.push_back(1e6 * read_counters.seconds());
    const Stopwatch t;
    std::vector<double> out = run();
    log.seconds.push_back(t.seconds());
    const rt::CounterSnapshot d = counter_delta(R.counters(), c0);
    log.counters.merge(d);
    accumulate(log.regions, region_delta(R.region_profiles(), prof0));
    if (!was_profiling) R.set_region_profiling(false);
    return out;
  };
  return w;
}

/// Everything an answer must reproduce exactly across repetitions.
u64 answer_checksum(const search::SearchResult& r) {
  const std::string text = rt::emit_profile(r.config);
  u64 h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::vector<double> v = {r.final_error, static_cast<double>(r.evaluations)};
  for (int k = 0; k < rt::kNumOpKinds; ++k) {
    v.push_back(static_cast<double>(r.final_counters.trunc_by_kind[k]));
    v.push_back(static_cast<double>(r.final_counters.full_by_kind[k]));
  }
  return fnv_doubles(v.data(), v.size(), h);
}

}  // namespace

void run_search(const Options& opt, Result& res) {
  auto& R = rt::Runtime::instance();
  search::WorkloadOptions wo;
  wo.quick = opt.tiny;
  const search::SearchOptions so;  // tolerance 1e-3, Format{11, m}
  const bool spans = SpanRecorder::instance().enabled();
  SpanRecorder::instance().enable(false);

  {
    R.reset_all();
    const search::Workload w = search::builtin_workload("bubble", wo);
    const Stopwatch t;
    (void)w.run();
    u64 cs = 0;
    const double n = native_bubble(opt.tiny, cs);
    std::printf("# warm-up (not in run_s): one bubble evaluation %.4f s, native %.4f s\n",
                t.seconds(), n);
    R.reset_all();
  }

  // Native runs are interleaved with the searches (a batch before the first
  // and after each) so both sides of slowdown_x see the same machine state.
  std::vector<double> native_t;
  u64 native_first = 0;
  const auto natives = [&] {
    for (int k = 0; k < (opt.tiny ? 2 : 6); ++k) {
      u64 cs = 0;
      native_t.push_back(native_bubble(opt.tiny, cs));
      if (native_t.size() == 1) native_first = cs;
      res.check(cs == native_first, "bubble native rep: checksum differs from the first");
    }
  };
  natives();

  std::vector<double> setup_t, run_t, run_traced_t, trunc_share;
  u64 first = 0;
  EvalLog log;
  int traced_searches = 0;
  search::SearchResult last;
  const Stopwatch clock;
  for (int rep = 0; rep < 2 || clock.seconds() < opt.seconds; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    SpanRecorder::instance().enable(spans && traced);
    // Set-up is building the workload and the PrecisionSearch on a reset runtime:
    // microseconds, so it is repeated and its median taken.
    std::vector<double> setups;
    for (int k = 0; k < 100; ++k) {
      const Stopwatch t;
      R.reset_all();
      const search::Workload w = search::builtin_workload("bubble", wo);
      const search::PrecisionSearch ps(so);
      setups.push_back(t.seconds());
    }
    setup_t.insert(setup_t.end(), setups.begin(), setups.end());

    const search::Workload base = search::builtin_workload("bubble", wo);
    const search::PrecisionSearch ps(so);
    const std::size_t runs_before = log.seconds.size();
    const search::Workload w = traced ? traced_workload(base, log) : base;
    search::SearchResult r;
    double secs = 0.0;
    {
      Span span("search.run");
      const Stopwatch t;
      r = ps.run(w);
      secs = t.seconds();
    }
    std::printf("# search %d%s: %.4f s\n", rep, traced ? " (traced)" : "", secs);
    (traced ? run_traced_t : run_t).push_back(secs);
    if (traced) {
      ++traced_searches;
      res.check(log.seconds.size() - runs_before == static_cast<std::size_t>(r.evaluations) + 2,
                "search: evaluations + reference + verify != Workload::run calls");
    }

    // Output checks: the answer is within tolerance, its config round-trips
    // through emit_profile/parse_profile, and it repeats exactly.
    res.check(r.within_tolerance && r.final_error <= so.tolerance &&
                  !r.config.region_formats.empty(),
              "search rep " + std::to_string(rep) + ": answer error " +
                  std::to_string(r.final_error) + " not within tolerance");
    res.check(rt::parse_profile(rt::emit_profile(r.config)) == r.config,
              "search rep " + std::to_string(rep) + ": config does not round-trip");
    const u64 cs = opt.corrupt && rep == 1 ? answer_checksum(r) ^ 1u : answer_checksum(r);
    if (rep == 0) first = cs;
    res.check(cs == first, "search rep " + std::to_string(rep) +
                               ": answer, error or op counts differ from rep 0");
    trunc_share.push_back(search::flop_weighted_trunc_share(r.choices));
    last = r;
    SpanRecorder::instance().enable(false);
    natives();
  }
  SpanRecorder::instance().enable(spans);
  R.reset_all();

  const double run_s = fast_end(run_t), native_s = fast_end(native_t);
  std::printf("# search_bubble: %zu searches, run_s (time to answer) %.4f s (median %.4f s), %d "
              "evaluations, error %.3e, trunc_share %.4f; %zu native bubble runs, native_s %.5f s "
              "(median %.5f s)\n",
              run_t.size() + run_traced_t.size(), run_s, median(run_t), last.evaluations,
              last.final_error, median(trunc_share), native_t.size(), native_s, median(native_t));
  res.set("setup_s", median(setup_t), "s");
  res.set("run_s", run_s, "s");
  res.set("slowdown_x", run_s / native_s, "x");
  res.set("trunc_share", median(trunc_share), "ratio");
  res.set("bench.native_s", native_s, "s");
  if (!opt.trace) return;

  // Per-layer: every figure per Workload::run unless it says otherwise.
  const double runs = static_cast<double>(log.seconds.size());
  set_region_metrics(res, "incomp.advect", log.regions["incomp/advect"], runs);
  res.set("incomp.diffuse_s", log.regions["incomp/diffuse"].seconds / runs, "s");
  res.set("incomp.poisson_s", log.regions["poisson"].seconds / runs, "s");
  res.set("runtime.ops", static_cast<double>(log.counters.total_flops()) / traced_searches,
          "count");
  res.set("runtime.trunc_ops", static_cast<double>(log.counters.trunc_flops) / traced_searches,
          "count");
  res.set("search.evals", last.evaluations, "count");
  res.set("search.trunc_fraction_flops", last.trunc_fraction, "ratio");

  // Evaluation spans: the first of each search is the reference run, the
  // last the verify run; the search's own time is the search span's self time.
  const std::vector<SpanRecord> spans_now = SpanRecorder::instance().snapshot();
  const std::vector<double> self = SpanRecorder::self_times(spans_now);
  std::vector<double> evals, refs, own;
  for (std::size_t i = 0; i < spans_now.size(); ++i) {
    if (spans_now[i].name != "search.run") continue;
    own.push_back(self[i]);
    std::vector<double> kids;
    for (const SpanRecord& c : spans_now) {
      if (c.parent == spans_now[i].id && c.name == "search.eval") kids.push_back(c.t1 - c.t0);
    }
    if (kids.size() < 2) continue;
    refs.push_back(kids.front());
    evals.insert(evals.end(), kids.begin() + 1, kids.end() - 1);
  }
  res.set("search.eval_s", median(evals), "s");
  res.set("search.reference_s", median(refs), "s");
  res.set("search.driver_s", median(own), "s");

  // Live reads, timed inside the wrapper between two Workload::run calls
  // (the search is single-threaded, so that is "mid-run").
  res.set("runtime.counters_us", median(log.counters_us), "us");
  res.set("runtime.region_profiles_us", median(log.profiles_us), "us");
  double region_total = 0.0, wall = 0.0;
  for (const auto& [label, d] : log.regions) {
    if (label != "<toplevel>") region_total += d.seconds;
  }
  for (const double t : log.seconds) wall += t;
  res.set("bench.unexplained_share", wall > 0.0 ? 1.0 - region_total / wall : 0.0, "ratio");
  res.set("bench.trace_overhead", fast_end(run_traced_t) / run_s, "x");
  probe_layers(opt, raptor::sf::Format{11, 12}, true, res);
  res.set("bench.spans", static_cast<double>(SpanRecorder::instance().snapshot().size()), "count");
}

}  // namespace perfbench
