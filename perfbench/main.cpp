// raptor_perfbench: one workload per invocation, end-to-end metrics with
// --trace=0 and per-layer metrics with --trace=1; the last stdout line is
// the JSON result. perfbench/run.py builds this binary, fixes the thread
// environment per workload and passes the options through:
//
//   raptor_perfbench --workload=sedov_e11m12|search_bubble|live_sod_e8m12
//                    --seed=N --seconds=S --trace=0|1 [--tiny] [--corrupt]
//                    [--workdir=DIR] [--spans=FILE] [--commit=ID]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "support/cli.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json names (perfbench/selftest.py checks the
// two agree). Every workload prints every metric of its mode; a layer the
// workload does not run reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"run_s", "s"},          {"slowdown_x", "x"},
    {"trunc_share", "ratio"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"softfloat.bigfloat_ns", "ns"},
    {"softfloat.fast_ns", "ns"},
    {"softfloat.simd_ns_per_el", "ns"},
    {"softfloat.simd_portable_ns_per_el", "ns"},
    {"runtime.op2_ns", "ns"},
    {"runtime.op2_batch_ns_per_el", "ns"},
    {"runtime.trunc_array_ns_per_el", "ns"},
    {"runtime.counters_us", "us"},
    {"runtime.region_profiles_us", "us"},
    {"runtime.ops", "count"},
    {"runtime.trunc_ops", "count"},
    {"hydro.riemann_s", "s"},
    {"hydro.riemann_ops", "count"},
    {"hydro.riemann_ns_per_op", "ns"},
    {"hydro.recon_s", "s"},
    {"hydro.recon_ops", "count"},
    {"hydro.recon_ns_per_op", "ns"},
    {"hydro.update_s", "s"},
    {"hydro.update_ops", "count"},
    {"hydro.update_ns_per_op", "ns"},
    {"hydro.prim_s", "s"},
    {"hydro.prim_ops", "count"},
    {"hydro.prim_ns_per_op", "ns"},
    {"hydro.step_s", "s"},
    {"hydro.riemann_share", "ratio"},
    {"amr.guard_s", "s"},
    {"amr.guard_ops", "count"},
    {"amr.prolong_s", "s"},
    {"amr.restrict_s", "s"},
    {"amr.regrid_s", "s"},
    {"amr.leaves", "count"},
    {"incomp.advect_s", "s"},
    {"incomp.advect_ops", "count"},
    {"incomp.advect_ns_per_op", "ns"},
    {"incomp.diffuse_s", "s"},
    {"incomp.poisson_s", "s"},
    {"search.evals", "count"},
    {"search.eval_s", "s"},
    {"search.reference_s", "s"},
    {"search.driver_s", "s"},
    {"search.trunc_fraction_flops", "ratio"},
    {"trace.events", "count"},
    {"trace.dropped", "count"},
    {"trace.drop_share", "ratio"},
    {"trace.bytes", "B"},
    {"trace.stop_s", "s"},
    {"telemetry.scrapes", "count"},
    {"telemetry.metrics_ms", "ms"},
    {"telemetry.metrics_max_ms", "ms"},
    {"telemetry.profile_ms", "ms"},
    {"telemetry.profile_max_ms", "ms"},
    {"telemetry.report_ms", "ms"},
    {"telemetry.report_max_ms", "ms"},
    {"telemetry.metrics_bytes", "B"},
    {"telemetry.profile_bytes", "B"},
    {"telemetry.report_bytes", "B"},
    {"bench.native_s", "s"},
    {"bench.trace_overhead", "x"},
    {"bench.unexplained_share", "ratio"},
    {"bench.spans", "count"},
    {"bench.failed_share", "ratio"},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Threads the workload runs (OpenMP team plus the benchmark's own).
int bench_threads(const std::string& workload) {
  // live_sod_e8m12: the workload thread (with its OpenMP team), the server
  // pump on the main thread and one scrape client.
  return workload == "live_sod_e8m12" ? omp_threads() + 2 : omp_threads();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int run(int argc, char** argv) {
  const raptor::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get("workload", "");
  opt.seed = static_cast<u64>(std::stoull(cli.get("seed", "1")));
  opt.seconds = std::stod(cli.get("seconds", "10"));
  opt.trace = cli.get_int("trace", 0) != 0;
  opt.tiny = cli.has("tiny");
  opt.corrupt = cli.has("corrupt");
  opt.workdir = cli.get("workdir", opt.workdir);
  opt.spans_path = cli.get("spans", "");
  const std::string commit = cli.get("commit", "unknown");

  void (*body)(const Options&, Result&) = nullptr;
  if (opt.workload == "sedov_e11m12") body = run_sedov;
  if (opt.workload == "search_bubble") body = run_search;
  if (opt.workload == "live_sod_e8m12") body = run_live;
  if (body == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (sedov_e11m12|search_bubble|live_sod_e8m12)\n",
                 opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);

  std::printf("# meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"tiny\": %s, \"cpu\": %s, \"simd_path\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"omp_threads\": %d, \"bench_threads\": %d, \"commit\": %s}\n",
              json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "true" : "false",
              json_string(cpu_model()).c_str(),
              json_string(raptor::sf::simd::path_name(raptor::sf::simd::default_path())).c_str(),
              json_string(std::string("gcc ") + __VERSION__).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(), omp_threads(),
              bench_threads(opt.workload), json_string(commit).c_str());

  SpanRecorder::instance().enable(opt.trace);
  Result res;
  body(opt, res);
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_share =
      res.attempted() > 0 ? static_cast<double>(res.failed()) / static_cast<double>(res.attempted())
                          : 1.0;
  res.set("bench.failed_share", failed_share, "ratio");
  if (opt.trace && !opt.spans_path.empty()) SpanRecorder::instance().write_json(opt.spans_path);

  std::printf("# %s, %s run: %llu attempted, %llu failed, failed_share %.6f\n",
              opt.workload.c_str(), opt.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()), failed_share);
  // Every metric of the mode in table order. A per-layer metric nobody set
  // belongs to a layer the workload does not run and reads 0; a missing
  // end-to-end metric, a unit that differs from the table or a non-finite
  // value is a bug, and no result is printed.
  std::string metrics;
  const std::span<const MetricSpec> specs =
      opt.trace ? std::span<const MetricSpec>(kPerLayer) : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& m : specs) {
    const auto it = res.metrics().find(m.name);
    const bool found = it != res.metrics().end();
    const double value = found ? it->second.value : 0.0;
    if ((!found && !opt.trace) || (found && it->second.unit != m.unit) || !std::isfinite(value)) {
      std::fprintf(stderr, "metric %s: not measured, wrong unit or not finite\n", m.name);
      return 3;
    }
    char buf[160];
    std::printf("%-36s %18.6f %s\n", m.name, value, m.unit);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return raptor::cli_main(perfbench::run, argc, argv); }
