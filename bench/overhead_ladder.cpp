// The overhead ladder (DESIGN.md §12, §16): ns per element of tracing and
// live telemetry against counting-only on the batched dispatch path, for
// op2_batch add, op3_batch fma and a scalar op2 add loop at 4096 lanes and
// format (8, 12), each inside one region. The rows (kConfigs) are counting
// only, tracing at 1/64 (plain, and rotating + compacting segments, whose
// work lands on the drainer), tracing every span, the runtime metrics plus
// region timing, and the same with a full Prometheus render every 64 reps.
//
// One timing of a few ns per element is at the mercy of frequency scaling
// and cache state, so each row is measured three times, the rows
// interleaved so slow drift hits all alike, and keeps its best trial.
// Sampled tracing (plain and rotating) is gated at 2x counting-only and the
// metrics plus region timing at 1.2x; the other rows are context. Writes
// BENCH_overhead.json (bench/report.hpp's layout) and exits nonzero when a
// bound fails, unless --no-check.
//
// Options: --quick (200 reps instead of 2000), --json=PATH, --no-check.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "runtime/live_telemetry.hpp"
#include "runtime/runtime.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "trunc/scope.hpp"

using namespace raptor;

namespace {

constexpr std::size_t kLanes = 4096;
constexpr int kTrials = 3;
constexpr u64 kSegmentBytes = 1 << 16;
constexpr int kScrapeEvery = 64;
constexpr double kMaxTraceX = 2.0;
constexpr double kMaxTelemetryX = 1.2;
constexpr const char* kTracePath = "overhead_ladder.rtrace";

struct Config {
  const char* name;
  u32 stride;        ///< trace sample stride; 0 = not traced
  bool rotate;       ///< rotating, compacting capture segments
  bool telemetry;    ///< runtime metrics armed and region timing on
  int scrape_every;  ///< a full Prometheus render every that many reps; 0 = none
  double max_x;      ///< bound on the ratio to counting-only; 0 = not gated
};

constexpr Config kConfigs[] = {
    {"counting", 0, false, false, 0, 0.0},
    {"traced_1_64", 64, false, false, 0, kMaxTraceX},
    {"rotating_1_64", 64, true, false, 0, kMaxTraceX},
    {"traced_1_1", 1, false, false, 0, 0.0},
    {"telemetry", 0, false, true, 0, kMaxTelemetryX},
    {"telemetry_scrape", 0, false, true, kScrapeEvery, 0.0},
};

std::vector<double> make_data(u64 seed) {
  Rng rng(seed);
  std::vector<double> v(kLanes);
  for (double& x : v) x = rng.uniform(0.25, 4.0);  // positive, spread exponents
  return v;
}

constexpr const char* kShapes[] = {"batch_add", "batch_fma", "scalar_add"};

/// Runs `reps` repetitions of shape `k` over kLanes elements, rendering a
/// full Prometheus scrape every `scrape_every` reps (0: never); returns
/// seconds.
double run_shape(std::size_t k, int reps, int scrape_every) {
  auto& R = rt::Runtime::instance();
  static const std::vector<double> a = make_data(1), b = make_data(2), c = make_data(3);
  std::vector<double> out(kLanes);
  Timer t;
  for (int r = 0; r < reps; ++r) {
    if (k == 0) {
      R.op2_batch(rt::OpKind::Add, a.data(), b.data(), out.data(), kLanes, 64);
    } else if (k == 1) {
      R.op3_batch(rt::OpKind::Fma, a.data(), b.data(), c.data(), out.data(), kLanes, 64);
    } else {
      for (std::size_t i = 0; i < kLanes; ++i) out[i] = R.op2(rt::OpKind::Add, a[i], b[i], 64);
    }
    if (scrape_every > 0 && r % scrape_every == 0) {
      const std::string text =
          telemetry::to_prometheus(telemetry::Registry::instance().snapshot());
      volatile std::size_t sink = text.size();  // keep the render from being optimized out
      (void)sink;
    }
  }
  return t.seconds();
}

/// ns per element of shape `k` under `c`, from a clean runtime and registry.
double measure(std::size_t k, const Config& c, int reps) {
  auto& R = rt::Runtime::instance();
  auto& registry = telemetry::Registry::instance();
  R.reset_all();
  registry.reset();
  TruncScope scope(8, 12);
  if (c.telemetry) {
    rt::register_runtime_metrics();
    R.set_region_profiling(true);
  }
  if (c.stride > 0) {
    trace::TraceOptions topts;
    topts.path = kTracePath;
    topts.sample_stride = c.stride;
    if (c.rotate) {
      topts.segment_bytes = kSegmentBytes;
      topts.compact_segments = true;
    }
    R.trace_start(topts);
  }
  double sec = 0.0;
  {
    Region region("bench/overhead");
    run_shape(k, reps / 4, 0);  // warm-up (thread attach, page faults)
    sec = run_shape(k, reps, c.scrape_every);
  }
  if (c.stride > 0) R.trace_stop();
  R.reset_all();
  registry.reset();
  return 1e9 * sec / (static_cast<double>(kLanes) * reps);
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int reps = cli.has("quick") ? 200 : 2000;
  const bool check = !cli.has("no-check");
  const std::string json_path = cli.get("json", "BENCH_overhead.json");

  std::printf("overhead ladder on the batch dispatch path (n=%zu, reps=%d, best of %d "
              "interleaved trials, format (8,12))\n\n",
              kLanes, reps, kTrials);
  std::printf("%-12s %-18s %10s %12s %8s\n", "shape", "config", "ns/el", "x counting", "bound");

  bench::Report report("overhead_ladder");
  report.params.set("lanes", kLanes)
      .set("reps", reps)
      .set("trials", kTrials)
      .set("format", "e8m12")
      .set("segment_bytes", kSegmentBytes)
      .set("scrape_every", kScrapeEvery);
  bool pass = true;
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    double best[std::size(kConfigs)];
    for (int trial = 0; trial < kTrials; ++trial) {
      for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
        const double ns = measure(k, kConfigs[i], reps);
        best[i] = trial == 0 ? ns : std::min(best[i], ns);
      }
    }
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
      const Config& c = kConfigs[i];
      const double x = best[i] / best[0];
      bench::Row& row = report.row("ladder");
      row.set("shape", kShapes[k]).set("config", c.name).set("ns_per_el", best[i]);
      row.set("x_counting", x);
      std::printf("%-12s %-18s %10.2f %11.2fx", kShapes[k], c.name, best[i], x);
      if (c.max_x > 0.0) {
        row.set("max_x", c.max_x);
        pass = pass && x <= c.max_x;
        std::printf(" %7.2fx%s", c.max_x, x <= c.max_x ? "" : "  FAIL");
      }
      std::printf("\n");
    }
  }
  std::remove(kTracePath);
  for (u32 i = 1; std::remove(trace::segment_path(kTracePath, i).c_str()) == 0; ++i) {
  }

  report.gates.set("traced_max_x", kMaxTraceX)
      .set("telemetry_max_x", kMaxTelemetryX)
      .set("pass", pass);
  if (report.write(json_path)) std::printf("\nwrote %s\n", json_path.c_str());

  if (!check) return 0;
  if (!pass) {
    std::printf("FAIL: a gated configuration exceeds its bound against counting-only\n");
    return 1;
  }
  std::printf("OK: sampled tracing (plain and rotating) within %.1fx and registry + region "
              "timing within %.1fx of counting-only\n",
              kMaxTraceX, kMaxTelemetryX);
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
