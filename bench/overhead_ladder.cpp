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
// metrics plus region timing at 1.2x; the other rows are context.
//
// The `paths` table prices each execution path of the dispatch, counting
// only, in the same harness: the scalar op2 add loop and op2_batch add at 8,
// 72 and 4096 lanes, each with no scope (native), on the fp64 and fp32
// hardware types, on the fast kernels at (8, 12) (the scalar loop under
// hw_fastpath, the batch once per SIMD path the CPU has) and in BigFloat
// (the scalar loop at (8, 12) without hw_fastpath, the batch at (12, 12),
// outside the fast envelope). The scalar loop has four more rows: the same
// loop in plain `double` with no runtime (the native baseline), untruncated
// dispatch with counting off, BigFloat at (8, 12) under
// AllocStrategy::Naive (one new/delete per cell), and mem-mode add at
// (8, 12) over shadow handles, each result released so the shadow table
// stays bounded. Its rows are ungated.
//
// Writes BENCH_overhead.json (bench/report.hpp's layout) and exits nonzero
// when a bound fails, unless --no-check.
//
// Options: --quick (200 reps instead of 2000), --json=PATH, --no-check.
#include <algorithm>
#include <cstdio>
#include <optional>
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

const std::vector<double>& data(std::size_t i) {
  static const std::vector<double> d[] = {make_data(1), make_data(2), make_data(3)};
  return d[i];
}

/// How a scalar pass adds: through the runtime's op2, as a mem-mode op2
/// that releases each result, or in plain `double`.
enum class Drive { Runtime, Mem, Double };

/// One pass of op2 add over the first whole spans of `span` lanes in
/// kLanes (span 0: a scalar loop over all kLanes, added as `drive` says);
/// returns the number of elements added.
std::size_t add_pass(std::size_t span, double* out, Drive drive = Drive::Runtime,
                     const double* a = data(0).data(), const double* b = data(1).data()) {
  auto& R = rt::Runtime::instance();
  if (span == 0) {
    if (drive == Drive::Double) {
      for (std::size_t i = 0; i < kLanes; ++i) out[i] = a[i] + b[i];
      asm volatile("" : : "r"(out) : "memory");  // the stores are the result: keep them
    } else if (drive == Drive::Mem) {
      for (std::size_t i = 0; i < kLanes; ++i) {
        out[i] = R.op2(rt::OpKind::Add, a[i], b[i], 64);
        R.mem_release(out[i]);
      }
    } else {
      for (std::size_t i = 0; i < kLanes; ++i) out[i] = R.op2(rt::OpKind::Add, a[i], b[i], 64);
    }
    return kLanes;
  }
  std::size_t i = 0;
  for (; i + span <= kLanes; i += span) {
    R.op2_batch(rt::OpKind::Add, a + i, b + i, out + i, span, 64);
  }
  return i;
}

/// Runs `reps` repetitions of shape `k` over kLanes elements, rendering a
/// full Prometheus scrape every `scrape_every` reps (0: never); returns
/// seconds.
double run_shape(std::size_t k, int reps, int scrape_every) {
  auto& R = rt::Runtime::instance();
  std::vector<double> out(kLanes);
  Timer t;
  for (int r = 0; r < reps; ++r) {
    if (k == 1) {
      R.op3_batch(rt::OpKind::Fma, data(0).data(), data(1).data(), data(2).data(), out.data(),
                  kLanes, 64);
    } else {
      add_pass(k == 0 ? kLanes : 0, out.data());
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

/// A row of the paths table: the settings that put op2 add on one path.
struct PathRow {
  std::string name;
  std::optional<sf::Format> fmt;  ///< the scope's format; none: native
  bool hw = false;                ///< hw_fastpath
  std::optional<sf::simd::Path> simd;
  Drive drive = Drive::Runtime;
  bool counting = true;
  rt::AllocStrategy alloc = rt::AllocStrategy::Scratch;
};

/// The paths table's rows for the scalar loop (span 0) or a batch span.
std::vector<PathRow> path_rows(std::size_t span) {
  const sf::Format e8m12{8, 12};
  std::vector<PathRow> rows = {
      {"native", std::nullopt, false, std::nullopt},
      {"hw_fp64", sf::Format::fp64(), true, std::nullopt},
      {"hw_fp32", sf::Format::fp32(), true, std::nullopt},
  };
  if (span == 0) {
    rows.push_back({"fast", e8m12, true, std::nullopt});
    rows.push_back({"bigfloat", e8m12, false, std::nullopt});
    rows.push_back({"double", std::nullopt, false, std::nullopt, Drive::Double});
    rows.push_back({"native_uncounted", std::nullopt, false, std::nullopt, Drive::Runtime, false});
    rows.push_back({"bigfloat_naive", e8m12, false, std::nullopt, Drive::Runtime, true,
                    rt::AllocStrategy::Naive});
    rows.push_back({"mem", e8m12, false, std::nullopt, Drive::Mem});
    return rows;
  }
  for (const auto p : {sf::simd::Path::Portable, sf::simd::Path::Avx2, sf::simd::Path::Avx512}) {
    if (sf::simd::path_supported(p)) {
      rows.push_back({std::string("fast_") + sf::simd::path_name(p), e8m12, false, p});
    }
  }
  rows.push_back({"bigfloat", sf::Format{12, 12}, false, std::nullopt});
  return rows;
}

/// ns per element of op2 add in spans of `span` lanes on the path of `row`,
/// from a clean runtime.
double measure_path(std::size_t span, const PathRow& row, int reps) {
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_hw_fastpath(row.hw);
  R.force_simd_path(row.simd);
  R.set_counting(row.counting);
  R.set_alloc_strategy(row.alloc);
  std::vector<double> out(kLanes);
  double sec = 0.0;
  std::size_t elements = 0;
  {
    std::optional<TruncScope> scope;
    if (row.fmt) scope.emplace(row.fmt->exp_bits, row.fmt->man_bits);
    // Mem-mode adds shadow handles, made for the row and released after it.
    std::vector<double> ha, hb;
    if (row.drive == Drive::Mem) {
      R.set_mode(rt::Mode::Mem);
      for (const double x : data(0)) ha.push_back(R.mem_make(x));
      for (const double x : data(1)) hb.push_back(R.mem_make(x));
    }
    const double* a = ha.empty() ? data(0).data() : ha.data();
    const double* b = hb.empty() ? data(1).data() : hb.data();
    for (int r = 0; r < reps / 4; ++r) add_pass(span, out.data(), row.drive, a, b);  // warm-up
    Timer t;
    for (int r = 0; r < reps; ++r) elements += add_pass(span, out.data(), row.drive, a, b);
    sec = t.seconds();
    for (const double h : ha) R.mem_release(h);
    for (const double h : hb) R.mem_release(h);
  }
  R.reset_all();
  return 1e9 * sec / static_cast<double>(elements);
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

  std::printf("\nexecution paths of op2 add (ns/el, best of %d interleaved trials)\n\n",
              kTrials);
  std::printf("%-12s %6s %-16s %10s\n", "shape", "lanes", "path", "ns/el");
  for (const std::size_t span : {std::size_t{0}, std::size_t{8}, std::size_t{72}, kLanes}) {
    const std::vector<PathRow> rows = path_rows(span);
    std::vector<double> best(rows.size());
    for (int trial = 0; trial < kTrials; ++trial) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const double ns = measure_path(span, rows[i], reps);
        best[i] = trial == 0 ? ns : std::min(best[i], ns);
      }
    }
    const char* shape = span == 0 ? "scalar_add" : "batch_add";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      report.row("paths")
          .set("shape", shape)
          .set("lanes", std::max<std::size_t>(span, 1))
          .set("path", rows[i].name)
          .set("ns_per_el", best[i]);
      std::printf("%-12s %6zu %-16s %10.2f\n", shape, std::max<std::size_t>(span, 1),
                  rows[i].name.c_str(), best[i]);
    }
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
