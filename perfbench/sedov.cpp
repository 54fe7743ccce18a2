// sedov_e11m12: the paper's Table 3 shape. Sedov at level 3, fixed dt,
// regrid every 4 steps, op-mode with counting and batch on, Format{11,12}
// on every level, one OpenMP thread. e11 lies outside the fast-kernel
// envelope, so scalar dispatch and BigFloat do the work; search, trace and
// telemetry do not run.
#include <cstdio>

#include "hydro/setups.hpp"
#include "mesh.hpp"
#include "runtime/runtime.hpp"
#include "trunc/scope.hpp"

namespace perfbench {

namespace {

namespace rt = raptor::rt;
namespace amr = raptor::amr;
namespace hydro = raptor::hydro;
using raptor::Real;

template <class T>
void sedov_ic(amr::AmrGrid<T>& grid) {
  const hydro::SedovParams sp;
  grid.build_with_ic(
      [&sp](double x, double y, std::span<T> v) { hydro::sedov_init(sp, x, y, v); });
}

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  u64 checksum = 0;
  rt::CounterSnapshot counters;
  int leaves = 0;
  std::vector<rt::RegionProfileEntry> profiles;  ///< with region profiling on
};

/// One instrumented repetition. Set-up (runtime configuration, grid and
/// initial conditions, solver) is timed apart from the steps.
Rep instrumented(const Schedule& s, bool batch, bool profile, std::vector<double>* live_reads_us) {
  auto& R = rt::Runtime::instance();
  Rep out;
  const Stopwatch setup;
  R.reset_all();
  R.set_mode(rt::Mode::Op);
  R.set_alloc_strategy(rt::AllocStrategy::Scratch);
  R.set_counting(true);
  R.set_hw_fastpath(false);
  R.set_region_profiling(profile);
  amr::AmrGrid<Real> grid(hydro::sedov_grid_config(s.level));
  sedov_ic(grid);
  hydro::HydroConfig hc;
  hc.trunc = rt::TruncationSpec::trunc64(11, 12);
  hc.batch = batch;
  hydro::HydroSolver<Real> solver(hc);
  R.reset_counters();
  R.reset_region_profiles();
  out.setup_s = setup.seconds();

  {
    Span span("sedov.run");
    const Stopwatch run;
    // The traced run times the two live-read calls once, mid-run.
    const auto mid = [&](int st) {
      if (live_reads_us == nullptr || st != s.steps / 2) return;
      Span read_span("runtime.live_read");
      const Stopwatch a;
      (void)R.counters();
      live_reads_us[0].push_back(1e6 * a.seconds());
      const Stopwatch b;
      (void)R.region_profiles();
      live_reads_us[1].push_back(1e6 * b.seconds());
    };
    advance(grid, solver, s, mid);
    out.run_s = run.seconds();
  }
  out.counters = R.counters();
  if (profile) out.profiles = R.region_profiles();
  out.checksum = grid_checksum(grid);
  out.leaves = grid.num_leaves();
  R.reset_all();
  return out;
}

/// The same schedule on plain double: the native baseline of slowdown_x.
double native(const Schedule& s, u64& checksum) {
  amr::AmrGrid<double> grid(hydro::sedov_grid_config(s.level));
  sedov_ic(grid);
  hydro::HydroSolver<double> solver(hydro::HydroConfig{});
  const Stopwatch run;
  advance(grid, solver, s);
  const double t = run.seconds();
  checksum = grid_checksum(grid);
  return t;
}

}  // namespace

void run_sedov(const Options& opt, Result& res) {
  Schedule s;
  s.level = opt.tiny ? 2 : 3;
  s.steps = opt.tiny ? 5 : 12;
  {
    amr::AmrGrid<double> probe(hydro::sedov_grid_config(s.level));
    sedov_ic(probe);
    const hydro::HydroSolver<double> solver(hydro::HydroConfig{});
    s.dt = 0.5 * solver.compute_dt(probe);
  }
  // The native run takes ~4 ms against ~0.35 s instrumented: interleave
  // many native repetitions per instrumented one so its baseline is steady.
  const int natives_per_rep = opt.tiny ? 2 : 12;
  const bool spans = SpanRecorder::instance().enabled();

  {
    SpanRecorder::instance().enable(false);
    const Rep w = instrumented(s, true, false, nullptr);
    u64 cs = 0;
    double wn = 0.0;
    for (int k = 0; k < natives_per_rep; ++k) wn += native(s, cs);
    std::printf("# warm-up (not in run_s): instrumented %.4f s, %d native %.4f s\n", w.run_s,
                natives_per_rep, wn);
  }

  std::vector<double> setup_t, run_t, run_traced_t, native_t;
  std::vector<double> live_reads_us[2];
  RegionDeltas regions;
  Rep first;
  u64 native_first = 0;
  const Stopwatch clock;
  for (int rep = 0; rep < 2 || clock.seconds() < opt.seconds; ++rep) {
    // The traced run alternates traced and untraced repetitions so the
    // tracing overhead comes out of one invocation.
    const bool traced = opt.trace && rep % 2 == 1;
    SpanRecorder::instance().enable(spans && traced);
    const Rep r = instrumented(s, true, traced, traced ? live_reads_us : nullptr);
    std::printf("# rep %d%s: setup %.5f s, run %.4f s\n", rep, traced ? " (traced)" : "",
                r.setup_s, r.run_s);
    setup_t.push_back(r.setup_s);
    (traced ? run_traced_t : run_t).push_back(r.run_s);
    if (traced) accumulate(regions, region_delta(r.profiles, {}));
    if (rep == 0) {
      first = r;
      res.check(r.counters.total_flops() > 0 && r.counters.trunc_flops > 0,
                "sedov rep 0 counted no truncated operations");
    } else {
      const u64 cs = opt.corrupt && rep == 1 ? r.checksum ^ 1u : r.checksum;
      res.check(cs == first.checksum && same_op_counts(r.counters, first.counters),
                "sedov rep " + std::to_string(rep) + ": checksum or op counts differ from rep 0");
    }
    SpanRecorder::instance().enable(false);
    for (int k = 0; k < natives_per_rep; ++k) {
      u64 cs = 0;
      native_t.push_back(native(s, cs));
      if (rep == 0 && k == 0) native_first = cs;
      res.check(cs == native_first, "sedov native rep: checksum differs from the first");
    }
  }

  // Once per invocation: the batched run equals scalar dispatch bitwise.
  // The scalar run is profiled for the configured work-weighted share.
  const Rep scalar = instrumented(s, false, true, nullptr);
  res.check(scalar.checksum == first.checksum && same_op_counts(scalar.counters, first.counters),
            "sedov: batch=false (scalar dispatch) checksum or op counts differ from batch=true");
  SpanRecorder::instance().enable(spans);

  const double run_s = fast_end(run_t), native_s = fast_end(native_t);
  std::printf("# sedov_e11m12: %zu instrumented reps, run_s %.4f s (median %.4f s), %zu native "
              "reps, native_s %.5f s (median %.5f s), slowdown %.1fx\n",
              run_t.size() + run_traced_t.size(), run_s, median(run_t), native_t.size(), native_s,
              median(native_t), run_s / native_s);
  res.set("setup_s", median(setup_t), "s");
  res.set("run_s", run_s, "s");
  res.set("slowdown_x", run_s / native_s, "x");
  res.set("trunc_share", configured_trunc_share(scalar.profiles, raptor::sf::Format{11, 12}),
          "ratio");
  res.set("bench.native_s", native_s, "s");
  if (!opt.trace) return;

  const double reps = static_cast<double>(run_traced_t.size());
  set_mesh_metrics(res, regions, reps);
  double wall = 0.0;
  for (const double t : run_traced_t) wall += t;
  res.set("bench.unexplained_share", 1.0 - mesh_self_seconds(regions) / wall, "ratio");
  res.set("runtime.ops", static_cast<double>(first.counters.total_flops()), "count");
  res.set("runtime.trunc_ops", static_cast<double>(first.counters.trunc_flops), "count");
  res.set("runtime.counters_us", median(live_reads_us[0]), "us");
  res.set("runtime.region_profiles_us", median(live_reads_us[1]), "us");
  res.set("amr.leaves", first.leaves, "count");
  res.set("bench.trace_overhead", fast_end(run_traced_t) / run_s, "x");
  const std::vector<SpanRecord> recorded = SpanRecorder::instance().snapshot();
  res.set("hydro.step_s", median(span_durations(recorded, "hydro.step")), "s");
  res.set("amr.regrid_s", median(span_durations(recorded, "amr.regrid")), "s");
  probe_layers(opt, raptor::sf::Format{11, 12}, false, res);
  res.set("bench.spans", static_cast<double>(SpanRecorder::instance().snapshot().size()), "count");
}

}  // namespace perfbench
