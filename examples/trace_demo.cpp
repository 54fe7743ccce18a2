// End-to-end numerical event tracing demo (DESIGN.md §12): the acceptance
// flow of the trace subsystem.
//
//   1. run a built-in workload (Sod by default) with tracing active at a
//      1/64 sampling stride -> produces a `.rtrace` file;
//   2. read the trace back and print the per-region analysis (op mix,
//      dynamic exponent range, deviation quantiles) — what
//      `tools/raptor_trace` does offline;
//   3. derive per-region format recommendations from the observed dynamic
//      range, emit them as a profile config, and check rt::parse_profile
//      accepts it;
//   4. feed the exponent hints to PrecisionSearch and verify the resulting
//      configuration holds tolerance end to end.
//
// Exits nonzero if any stage fails, so CI can run it as a smoke test.
//
// With --serve[=PORT] (DESIGN.md §16) the demo additionally serves the live
// telemetry endpoints (/metrics, /profile, /report) on loopback while the
// traced run executes — the workload moves to a worker thread and the main
// thread drives the server's poll loop — and keeps serving for up to
// --serve-linger=MS afterwards (GET /stop ends the linger early), so an
// external scraper can poll a complete capture. --port-file=PATH writes the
// bound port for scripts. CI curls /metrics, /profile and /report against
// this.
//
// Run: ./trace_demo [--workload=sod|sedov|bubble|poisson|burn] [--stride=64]
//                   [--out=trace_demo.rtrace] [--tol=1e-3] [--quick]
//                   [--serve[=PORT]] [--port-file=PATH] [--serve-linger=MS]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "runtime/live_telemetry.hpp"
#include "runtime/profile_config.hpp"
#include "search/workloads.hpp"
#include "support/cli.hpp"
#include "trace/analysis.hpp"
#include "trunc/scope.hpp"

using namespace raptor;

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  search::WorkloadOptions wopts;
  wopts.quick = cli.has("quick");
  const std::string name = cli.get("workload", "sod");
  const std::string path = cli.get("out", "trace_demo.rtrace");
  const int stride = cli.get_int("stride", 64);
  const double tol = cli.get_double("tol", 1e-3);
  search::Workload workload = search::builtin_workload(name, wopts);

  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_hw_fastpath(true);
  // Region profiling accrues per-region wall-clock self-time, which
  // trace_stop persists as 'T' blocks — the time column in the analysis.
  R.set_region_profiling(true);

  // Optional live telemetry endpoints (served while the traced run executes).
  telemetry::Server server;
  std::atomic<bool> stop_requested{false};
  const bool serving = cli.has("serve");
  if (serving) {
    const int port = cli.get_port("serve");
    rt::register_runtime_metrics();
    rt::add_runtime_endpoints(server, path);
    server.handle("/stop", [&stop_requested](const telemetry::HttpRequest&) {
      stop_requested.store(true);
      return telemetry::HttpResponse{200, "text/plain; charset=utf-8", "stopping\n"};
    });
    if (!server.listen(static_cast<std::uint16_t>(port))) {
      std::fprintf(stderr, "FAIL: --serve could not bind: %s\n", server.error().c_str());
      return 1;
    }
    std::printf("serving /metrics /profile /report on 127.0.0.1:%u\n", server.port());
    if (cli.has("port-file")) {
      std::ofstream pf(cli.get("port-file", ""));
      pf << server.port() << '\n';
    }
  }

  // 1. Traced reference run (native precision).
  trace::TraceOptions topts;
  topts.path = path;
  topts.sample_stride = static_cast<u32>(stride);
  R.trace_start(topts);
  if (serving) {
    // The workload runs on a worker so the main thread can answer scrapes
    // mid-run — live counters advancing between polls is the point.
    std::atomic<bool> done{false};
    std::thread worker([&] {
      workload.run();
      done.store(true);
    });
    while (!done.load()) server.poll(20);
    worker.join();
  } else {
    workload.run();
  }
  const trace::TraceStats stats = R.trace_stop();
  R.set_region_profiling(false);
  std::printf("traced %s at 1/%d sampling: %llu events from %u thread(s), %llu dropped -> %s\n",
              name.c_str(), stride, static_cast<unsigned long long>(stats.events),
              stats.threads, static_cast<unsigned long long>(stats.dropped), path.c_str());
  if (stats.events == 0) {
    std::fprintf(stderr, "FAIL: trace captured no events\n");
    return 1;
  }

  // 2. Offline analysis of the capture.
  const trace::TraceData td = trace::read_rtrace(path);
  std::printf("\nper-region analysis (sampled):\n");
  std::printf("  %-16s %12s %8s %9s %9s %10s\n", "region", "sampled_ops", "trunc%", "exp_min",
              "exp_max", "dev_p99");
  const auto reports = trace::build_reports(td);
  for (const auto& r : reports) {
    const double trunc_pct =
        r.ops > 0 ? 100.0 * static_cast<double>(r.trunc_ops) / static_cast<double>(r.ops) : 0.0;
    std::printf("  %-16s %12llu %7.1f%% %9s %9s %10.2e\n", r.label.c_str(),
                static_cast<unsigned long long>(r.ops), trunc_pct,
                r.exp.has_range() ? trace::exp_class_str(r.exp.min_exp).c_str() : "-",
                r.exp.has_range() ? trace::exp_class_str(r.exp.max_exp).c_str() : "-",
                r.dev.quantile(0.99));
  }

  // 3. Recommendation -> profile config -> parse round trip.
  const auto recs = trace::recommend(td);
  const std::string cfg_text = trace::recommendations_to_profile(recs);
  std::printf("\nrecommended starting formats:\n%s", cfg_text.c_str());
  rt::ProfileConfig cfg;
  try {
    cfg = rt::parse_profile(cfg_text);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "FAIL: parse_profile rejected the recommendation: %s\n", ex.what());
    return 1;
  }

  // 4. Exponent-informed precision search, verified end to end.
  search::SearchOptions sopts;
  sopts.tolerance = tol;
  for (const auto& rec : recs) {
    if (rec.label != "<toplevel>") sopts.exp_hints.emplace_back(rec.label, rec.exp_bits);
  }
  const search::SearchResult result = search::PrecisionSearch(sopts).run(workload);
  std::printf("\nsearch with exponent hints: err %.3e (tol %.0e), %.1f%% of flops truncated, "
              "work-weighted share %.3f, %d evaluations\n",
              result.final_error, tol, 100.0 * result.trunc_fraction, result.trunc_share,
              result.evaluations);
  for (const auto& c : result.choices) {
    std::printf("  %-16s %s\n", c.region.c_str(),
                c.truncated ? c.format.to_string().c_str() : "native");
  }
  const std::string emitted = rt::emit_profile(result.config);
  if (rt::parse_profile(emitted) != result.config) {
    std::fprintf(stderr, "FAIL: search recommendation does not round-trip emit/parse\n");
    return 1;
  }
  if (!result.within_tolerance) {
    std::fprintf(stderr, "FAIL: verified configuration missed tolerance\n");
    return 1;
  }
  std::printf("\nOK: recommendation verified within tolerance\n");

  // Keep serving the finished capture so an external scraper has a stable
  // window to poll; GET /stop ends the linger early. The search driver
  // leaves the runtime reset, so replay the workload once under the
  // verified recommendation first, region-profiled — the linger window then
  // serves the truncated-run totals and region rows instead of zeros.
  if (serving) {
    rt::apply_profile(R, result.config);
    R.set_region_profiling(true);
    workload.run();
    const int linger_ms = cli.get_int("serve-linger", 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(linger_ms);
    while (!stop_requested.load() && std::chrono::steady_clock::now() < deadline) {
      server.poll(50);
    }
  }
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
