// live_sod_e8m12: the observability workload. Sod at level 3 (fixed dt,
// regrid every 4 steps) under set_truncate_all(Format{8,12}) with
// hw_fastpath on, so every op stays inside the fast-kernel envelope and
// none goes through BigFloat. Region profiling is on and every repetition
// is a sampled trace session (stride 64) writing an .rtrace file.
//
// Threads: the workload runs on a worker thread with its OpenMP team, the
// main thread pumps a loopback telemetry::Server carrying the runtime
// endpoints, and one client thread scrapes /metrics, /profile and /report
// in a closed loop (each reply awaited, then a fixed pause plus seeded
// jitter). This is the only workload where the trace and telemetry layers
// run, and where scrapes read the accumulators the workers write.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hydro/setups.hpp"
#include "mesh.hpp"
#include "runtime/live_telemetry.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/server.hpp"

namespace perfbench {

namespace {

namespace rt = raptor::rt;
namespace amr = raptor::amr;
namespace hydro = raptor::hydro;
namespace telemetry = raptor::telemetry;
namespace fs = std::filesystem;
using raptor::Real;

constexpr const char* kEndpoints[3] = {"/metrics", "/profile", "/report"};
constexpr const char* kHydroRegions[3] = {"hydro/recon", "hydro/riemann", "hydro/update"};

template <class T>
void sod_ic(amr::AmrGrid<T>& grid) {
  const hydro::SodParams sp;
  grid.build_with_ic([&sp](double x, double y, std::span<T> v) { hydro::sod_init(sp, x, y, v); });
}

/// What the workload thread measures.
struct WorkerLog {
  Result checks;
  std::vector<double> setup_s, run_s, run_traced_s, stop_s, events, dropped, bytes, native_s;
  RegionDeltas regions;
  int timed_reps = 0;
  u64 ops = 0, trunc_ops = 0;
  int leaves = 0;
};

/// What the scrape client measures.
struct ClientLog {
  Result checks;
  std::vector<double> ms[3], bytes[3];
};

struct Flags {
  std::atomic<bool> warm{false};         ///< warm-up repetitions done
  std::atomic<bool> done{false};         ///< every repetition done
  std::atomic<bool> client_done{false};  ///< final scrape done
};

/// The same schedule on plain double with the same OpenMP team size.
double native(const Schedule& s, u64& checksum) {
  amr::AmrGrid<double> grid(hydro::sod_grid_config(s.level));
  sod_ic(grid);
  hydro::HydroSolver<double> solver(hydro::HydroConfig{});
  const Stopwatch run;
  advance(grid, solver, s);
  const double t = run.seconds();
  checksum = grid_checksum(grid);
  return t;
}

void worker(const Options& opt, const Schedule& s, Flags& flags, WorkerLog& log) {
  auto& R = rt::Runtime::instance();
  const bool spans = SpanRecorder::instance().enabled();
  const int warmups = opt.tiny ? 1 : 2;
  u64 first_checksum = 0, first_native = 0;
  rt::CounterSnapshot first_counters;
  std::vector<fs::path> files;
  std::optional<Stopwatch> clock;
  for (int rep = -warmups;; ++rep) {
    if (rep == 0) {
      flags.warm = true;
      clock.emplace();
    }
    if (rep >= 2 && clock->seconds() >= opt.seconds) break;
    const bool traced = opt.trace && rep >= 0 && rep % 2 == 1;
    SpanRecorder::instance().enable(spans && traced);

    // Set-up: grid and initial conditions, solver, trace session.
    const Stopwatch setup;
    amr::AmrGrid<Real> grid(hydro::sod_grid_config(s.level));
    sod_ic(grid);
    hydro::HydroSolver<Real> solver(hydro::HydroConfig{});
    files.push_back(fs::path(opt.workdir) / ("live_" + std::to_string(files.size()) + ".rtrace"));
    raptor::trace::TraceOptions to;
    to.path = files.back().string();
    to.sample_stride = 64;
    R.trace_start(to);
    const auto prof0 = R.region_profiles();
    const rt::CounterSnapshot c0 = R.counters();
    const double setup_s = setup.seconds();

    double run_s = 0.0, stop_s = 0.0;
    raptor::trace::TraceStats ts;
    {
      Span span("live.run");
      const Stopwatch run;
      advance(grid, solver, s);
      Span stop_span("trace.stop");
      const Stopwatch stop;
      ts = R.trace_stop();
      stop_s = stop.seconds();
      run_s = run.seconds();
    }
    const rt::CounterSnapshot d = counter_delta(R.counters(), c0);
    const RegionDeltas regions = region_delta(R.region_profiles(), prof0);
    const u64 checksum = grid_checksum(grid);
    const double bytes = static_cast<double>(fs::file_size(files.back()));
    // Keep the two newest captures: /report may still be reading the last one.
    if (files.size() > 2) fs::remove(files[files.size() - 3]);
    // Native runs interleave with the repetitions, on this thread and its
    // OpenMP team, while the scrapes go on.
    SpanRecorder::instance().enable(false);
    std::vector<double> natives;
    for (int k = 0; k < 2; ++k) {
      u64 cs = 0;
      natives.push_back(native(s, cs));
      if (rep < 0) continue;
      if (log.native_s.empty()) first_native = cs;
      log.native_s.push_back(natives.back());
      log.checks.check(cs == first_native, "sod native rep: checksum differs from the first");
    }
    if (rep < 0) {
      std::printf("# warm-up %d (not in run_s): %.4f s, native %.4f s\n", rep + warmups, run_s,
                  natives[0]);
      continue;
    }
    std::printf("# rep %d%s: setup %.5f s, run %.4f s\n", rep, traced ? " (traced)" : "", setup_s,
                run_s);

    ++log.timed_reps;
    log.setup_s.push_back(setup_s);
    (traced ? log.run_traced_s : log.run_s).push_back(run_s);
    log.stop_s.push_back(stop_s);
    log.events.push_back(static_cast<double>(ts.events));
    log.dropped.push_back(static_cast<double>(ts.dropped));
    log.bytes.push_back(bytes);
    accumulate(log.regions, regions);
    if (rep == 0) {
      first_checksum = checksum;
      first_counters = d;
      log.ops = d.total_flops();
      log.trunc_ops = d.trunc_flops;
      log.leaves = grid.num_leaves();
      log.checks.check(d.trunc_flops > 0 && ts.events > 0,
                       "live rep 0 counted no truncated operations or traced no events");
    } else {
      const u64 cs = opt.corrupt && rep == 1 ? checksum ^ 1u : checksum;
      log.checks.check(cs == first_checksum && same_op_counts(d, first_counters),
                       "live rep " + std::to_string(rep) +
                           ": checksum or op counts differ from rep 0");
    }
  }
  SpanRecorder::instance().enable(false);
  for (const fs::path& f : files) fs::remove(f);
}

bool scrape_ok(int endpoint, const std::string& body) {
  if (endpoint == 0) {
    for (const auto& s : telemetry::parse_prometheus(body)) {
      if (s.name == "raptor_ops_total") return true;
    }
    return false;
  }
  return json_valid(body) && body.front() == (endpoint == 1 ? '[' : '{');
}

void client(const Options& opt, std::uint16_t port, Flags& flags, ClientLog& log) {
  raptor::Rng rng(opt.seed);
  while (!flags.warm && !flags.done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (!flags.done) {
    for (int e = 0; e < 3; ++e) {
      Span span("telemetry.scrape");
      const Stopwatch t;
      const std::optional<std::string> body = telemetry::http_get(port, kEndpoints[e], 2000);
      const double ms = 1e3 * t.seconds();
      if (log.checks.check(body && scrape_ok(e, *body),
                           std::string("scrape ") + kEndpoints[e] + " failed or did not parse")) {
        log.ms[e].push_back(ms);
        log.bytes[e].push_back(static_cast<double>(body->size()));
      }
    }
    // Fixed 5 ms pause plus 0-2 ms of seeded jitter between scrape rounds.
    std::this_thread::sleep_for(std::chrono::microseconds(5000 + rng.next_below(2000)));
  }

  // After the run: /metrics agrees with counters() exactly and /report
  // lists every hydro stage.
  const std::optional<std::string> metrics = telemetry::http_get(port, "/metrics", 2000);
  double ops = 0.0;
  if (metrics) {
    for (const auto& s : telemetry::parse_prometheus(*metrics)) {
      if (s.name == "raptor_ops_total") ops += s.value;
    }
  }
  const double expect = static_cast<double>(rt::Runtime::instance().counters().total_flops());
  log.checks.check(metrics && ops == expect,
                   "/metrics raptor_ops_total sum " + std::to_string(ops) +
                       " != counters().total_flops() " + std::to_string(expect));
  const std::optional<std::string> report = telemetry::http_get(port, "/report", 2000);
  bool all = report.has_value();
  for (const char* region : kHydroRegions) {
    all = all && report->find(std::string("\"") + region + "\"") != std::string::npos;
  }
  log.checks.check(all, "/report does not list every hydro/* region");
}

}  // namespace

void run_live(const Options& opt, Result& res) {
  auto& R = rt::Runtime::instance();
  const bool spans = SpanRecorder::instance().enabled();
  Schedule s;
  s.level = opt.tiny ? 2 : 3;
  s.steps = opt.tiny ? 5 : 12;
  {
    amr::AmrGrid<double> probe(hydro::sod_grid_config(s.level));
    sod_ic(probe);
    const hydro::HydroSolver<double> solver(hydro::HydroConfig{});
    s.dt = 0.5 * solver.compute_dt(probe);
  }

  R.reset_all();
  R.set_hw_fastpath(true);
  R.set_truncate_all(rt::TruncationSpec::trunc64(8, 12));
  R.set_region_profiling(true);
  rt::register_runtime_metrics();
  telemetry::Server server;
  rt::add_runtime_endpoints(server);
  if (!res.check(server.listen(0), "telemetry server could not bind: " + server.error())) return;

  Flags flags;
  WorkerLog wlog;
  ClientLog clog;
  std::vector<double> counters_us, profiles_us;
  {
    // An exception on either thread is a failed operation; the flags are
    // still raised so the other threads and the pump loop finish.
    std::thread work([&] {
      try {
        worker(opt, s, flags, wlog);
      } catch (const std::exception& e) {
        wlog.checks.check(false, std::string("workload thread: ") + e.what());
      }
      flags.done = true;
    });
    std::thread scrape([&] {
      try {
        client(opt, server.port(), flags, clog);
      } catch (const std::exception& e) {
        clog.checks.check(false, std::string("scrape thread: ") + e.what());
      }
      flags.client_done = true;
    });
    // The main thread serves the scrapes; the traced run also times the two
    // live-read calls from here while the workload runs.
    Stopwatch since_read;
    while (!flags.client_done) {
      server.poll(2);
      if (opt.trace && flags.warm && !flags.done && since_read.seconds() > 0.02) {
        const Stopwatch a;
        (void)R.counters();
        counters_us.push_back(1e6 * a.seconds());
        const Stopwatch b;
        (void)R.region_profiles();
        profiles_us.push_back(1e6 * b.seconds());
        since_read = Stopwatch();
      }
    }
    work.join();
    scrape.join();
  }
  server.stop();
  res.absorb(wlog.checks);
  res.absorb(clog.checks);
  const std::vector<rt::RegionProfileEntry> profiles = R.region_profiles();
  R.reset_all();

  SpanRecorder::instance().enable(spans);

  const double run_s = fast_end(wlog.run_s), native_s = fast_end(wlog.native_s);
  std::size_t scrapes = 0;
  for (const auto& m : clog.ms) scrapes += m.size();
  std::printf("# live_sod_e8m12: %d reps, run_s %.4f s (median %.4f s), native_s %.5f s (median "
              "%.5f s), slowdown %.1fx, %zu scrapes (p50 /metrics %.3f ms, /profile %.3f ms, "
              "/report %.3f ms)\n",
              wlog.timed_reps, run_s, median(wlog.run_s), native_s, median(wlog.native_s),
              run_s / native_s, scrapes, median(clog.ms[0]),
              median(clog.ms[1]), median(clog.ms[2]));
  res.set("setup_s", median(wlog.setup_s), "s");
  res.set("run_s", run_s, "s");
  res.set("slowdown_x", run_s / native_s, "x");
  res.set("trunc_share", configured_trunc_share(profiles, raptor::sf::Format{8, 12}), "ratio");
  res.set("bench.native_s", native_s, "s");
  if (!opt.trace) return;

  const double reps = static_cast<double>(wlog.timed_reps);
  set_mesh_metrics(res, wlog.regions, reps);
  double wall = 0.0;
  for (const double t : wlog.run_s) wall += t;
  for (const double t : wlog.run_traced_s) wall += t;
#ifdef _OPENMP
  wall *= omp_get_max_threads();  // region time accrues on every team thread
#endif
  res.set("bench.unexplained_share", 1.0 - mesh_self_seconds(wlog.regions) / wall, "ratio");
  res.set("runtime.ops", static_cast<double>(wlog.ops), "count");
  res.set("runtime.trunc_ops", static_cast<double>(wlog.trunc_ops), "count");
  res.set("runtime.counters_us", median(counters_us), "us");
  res.set("runtime.region_profiles_us", median(profiles_us), "us");
  res.set("amr.leaves", wlog.leaves, "count");
  double events = 0.0, dropped = 0.0;
  for (const double e : wlog.events) events += e;
  for (const double d : wlog.dropped) dropped += d;
  res.set("trace.events", median(wlog.events), "count");
  res.set("trace.dropped", median(wlog.dropped), "count");
  res.set("trace.drop_share", events + dropped > 0.0 ? dropped / (events + dropped) : 0.0, "ratio");
  res.set("trace.bytes", median(wlog.bytes), "B");
  res.set("trace.stop_s", median(wlog.stop_s), "s");
  res.set("telemetry.scrapes", static_cast<double>(scrapes), "count");
  const char* names[3] = {"metrics", "profile", "report"};
  for (int e = 0; e < 3; ++e) {
    const std::string base = std::string("telemetry.") + names[e];
    res.set(base + "_ms", median(clog.ms[e]), "ms");
    res.set(base + "_max_ms", max_of(clog.ms[e]), "ms");
    res.set(base + "_bytes", median(clog.bytes[e]), "B");
  }
  res.set("bench.trace_overhead", fast_end(wlog.run_traced_s) / run_s, "x");
  const std::vector<SpanRecord> recorded = SpanRecorder::instance().snapshot();
  res.set("hydro.step_s", median(span_durations(recorded, "hydro.step")), "s");
  res.set("amr.regrid_s", median(span_durations(recorded, "amr.regrid")), "s");
  probe_layers(opt, raptor::sf::Format{8, 12}, true, res);
  res.set("bench.spans", static_cast<double>(SpanRecorder::instance().snapshot().size()), "count");
}

}  // namespace perfbench
