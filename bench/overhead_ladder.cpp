// The overhead ladder (DESIGN.md §12, §16): ns per element of tracing and
// live telemetry against counting-only on the batched dispatch path, for
// op2_batch add, op3_batch fma and a scalar op2 add loop at 4096 lanes and
// format (8, 12), each inside one region. The rows (kConfigs) are counting
// only, tracing at 1/64 (plain, and rotating + compacting segments, whose
// work lands on the drainer), tracing every span, the runtime metrics plus
// region timing, and the same with a full Prometheus render every 64 reps.
// Sampled tracing (plain and rotating) is gated at 2x counting-only and the
// metrics plus region timing at 1.2x; the other rows are context.
//
// The `paths` table is the one per-op cost table: ns per element of one op
// on one execution path, counting only, keyed by (shape, op, format, lanes,
// path). Its shapes:
//   * scalar: a loop of op2 add over 4096 elements with no scope (native),
//     on the fp64 and fp32 hardware types, on the fast kernel at (8, 12)
//     under hw_fastpath and in BigFloat at (8, 12) without it; also the
//     same loop in plain `double` with no runtime (the native baseline),
//     untruncated dispatch with counting off, BigFloat under
//     AllocStrategy::Naive (one new/delete per cell), and mem-mode add at
//     (8, 12) over shadow handles, each result released so the shadow
//     table stays bounded.
//   * batch: op2_batch add in spans of 8, 72 and 4096 lanes, native, on the
//     hardware types, on the fast kernels at (8, 12) once per SIMD path the
//     CPU has, and in BigFloat at (12, 12), outside the fast envelope; and
//     the mantissa rows: op2_batch add, mul, div and op1_batch sqrt at
//     Format{11, m} for the nine m of kManBits, 4096 lanes, on every path,
//     pricing the double-rounding kernels (m <= 24) against the
//     tie-breaking ones (m > 24).
//   * vec: batch::Vec lane control at (8, 12) on the default path, at 8, 72
//     and 2016 lanes over operands of either sign: a plain op on gathered
//     operands (a + b), the same op on two results of ops in the scope
//     (c + d, whose exactness tags skip both operand rounds), an op with a
//     broadcast (a * 0.5), fabs, fmax, and branch with one op per arm
//     (a <= b ? a + b : a - b).
// Two ratios within the table are gated: every vector fast path at most
// fast_portable at the same (shape, op, format, lanes), and every fast row
// at most the bigfloat row of the same shape, op and lanes, where there is
// one.
//
// One timing of a few ns per element is at the mercy of frequency scaling
// and cache state, so every row is measured three times, the rows (each
// shape's configurations, and the whole paths table) interleaved so slow
// drift hits all alike, and keeps its best trial.
//
// Writes BENCH_overhead.json (bench/report.hpp's layout) and exits nonzero
// when a bound fails, unless --no-check.
//
// Options: --quick (200 reps instead of 2000), --json=PATH, --no-check.
#include <algorithm>
#include <cstdio>
#include <limits>
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
#include "trunc/span_ops.hpp"

using namespace raptor;

namespace {

constexpr std::size_t kLanes = 4096;
constexpr int kTrials = 3;
constexpr u64 kSegmentBytes = 1 << 16;
constexpr int kScrapeEvery = 64;
constexpr double kMaxTraceX = 2.0;
constexpr double kMaxTelemetryX = 1.2;
constexpr double kMaxSimdXPortable = 1.0;
constexpr double kMaxFastXBigfloat = 1.0;
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

std::vector<double> make_data(u64 seed, bool either_sign = false) {
  Rng rng(seed);
  std::vector<double> v(kLanes);
  for (double& x : v) {
    x = rng.uniform(0.25, 4.0);  // spread exponents
    if (either_sign && rng.next_below(2) == 1) x = -x;
  }
  return v;
}

constexpr const char* kShapes[] = {"batch_add", "batch_fma", "scalar_add"};

/// Operand sets: 0-2 positive (sqrt and the ladder's shapes), 3-4 of
/// either sign (the Vec rows, so fabs and branch see both signs).
const std::vector<double>& data(std::size_t i) {
  static const std::vector<double> d[] = {make_data(1), make_data(2), make_data(3),
                                          make_data(4, true), make_data(5, true)};
  return d[i];
}

/// The fastest of kTrials timings of each of `n` rows, the rows taking
/// turns so that slow drift of the host hits all alike.
template <class Measure>
std::vector<double> best_of_trials(std::size_t n, Measure&& measure) {
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  for (int trial = 0; trial < kTrials; ++trial) {
    for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], measure(i));
  }
  return best;
}

/// Runs `reps` repetitions of shape `k` over kLanes elements, rendering a
/// full Prometheus scrape every `scrape_every` reps (0: never); returns
/// seconds.
double run_shape(std::size_t k, int reps, int scrape_every) {
  auto& R = rt::Runtime::instance();
  const double *a = data(0).data(), *b = data(1).data();
  std::vector<double> out(kLanes);
  Timer t;
  for (int r = 0; r < reps; ++r) {
    if (k == 0) {
      R.op2_batch(rt::OpKind::Add, a, b, out.data(), kLanes, 64);
    } else if (k == 1) {
      R.op3_batch(rt::OpKind::Fma, a, b, data(2).data(), out.data(), kLanes, 64);
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

enum class Shape { Scalar, Batch, Vec };

constexpr const char* shape_name(Shape s) {
  return s == Shape::Scalar ? "scalar" : s == Shape::Batch ? "batch" : "vec";
}

/// The runtime ops of the scalar and batch shapes (sqrt: op1_batch).
struct RuntimeOp {
  const char* name;
  rt::OpKind kind;
};
constexpr RuntimeOp kRuntimeOps[] = {{"add", rt::OpKind::Add},
                                     {"mul", rt::OpKind::Mul},
                                     {"div", rt::OpKind::Div},
                                     {"sqrt", rt::OpKind::Sqrt}};
/// The lane-control ops of the vec shape, in vec_op's order.
constexpr const char* kVecOps[] = {"plain", "exact", "broadcast", "fabs", "fmax", "branch"};
/// The mantissas of the batch shape's Format{11, m} rows.
constexpr int kManBits[] = {12, 24, 25, 28, 36, 44, 50, 51, 52};

/// How the scalar loop adds: through the runtime's op2, as a mem-mode op2
/// that releases each result, or in plain `double`.
enum class Drive { Runtime, Mem, Double };

/// A row of the paths table: one op in one shape and the settings that put
/// it on one execution path.
struct PathRow {
  Shape shape = Shape::Scalar;
  std::size_t op = 0;     ///< index into kVecOps (vec shape), else kRuntimeOps
  std::size_t lanes = 1;  ///< span length; 1 for the scalar loop
  std::string path{};
  std::optional<sf::Format> fmt{};  ///< the scope's format; none: native
  bool hw = false;                  ///< hw_fastpath
  std::optional<sf::simd::Path> simd{};
  Drive drive = Drive::Runtime;
  bool counting = true;
  rt::AllocStrategy alloc = rt::AllocStrategy::Scratch;

  [[nodiscard]] const char* op_name() const {
    return shape == Shape::Vec ? kVecOps[op] : kRuntimeOps[op].name;
  }
  [[nodiscard]] std::string format() const { return fmt ? fmt->tag() : "none"; }
};

/// Every row of the paths table, in print order.
std::vector<PathRow> path_rows() {
  const sf::Format e8m12{8, 12};
  std::vector<sf::simd::Path> simd_paths;
  for (const auto p : {sf::simd::Path::Portable, sf::simd::Path::Avx2, sf::simd::Path::Avx512}) {
    if (sf::simd::path_supported(p)) simd_paths.push_back(p);
  }
  const auto fast = [](sf::simd::Path p) { return std::string("fast_") + sf::simd::path_name(p); };
  std::vector<PathRow> rows = {
      {.path = "native"},
      {.path = "hw_fp64", .fmt = sf::Format::fp64(), .hw = true},
      {.path = "hw_fp32", .fmt = sf::Format::fp32(), .hw = true},
      {.path = "fast", .fmt = e8m12, .hw = true},
      {.path = "bigfloat", .fmt = e8m12},
      {.path = "double", .drive = Drive::Double},
      {.path = "native_uncounted", .counting = false},
      {.path = "bigfloat_naive", .fmt = e8m12, .alloc = rt::AllocStrategy::Naive},
      {.path = "mem", .fmt = e8m12, .drive = Drive::Mem},
  };
  for (const std::size_t span : {std::size_t{8}, std::size_t{72}, kLanes}) {
    const Shape batch = Shape::Batch;
    rows.push_back({.shape = batch, .lanes = span, .path = "native"});
    rows.push_back(
        {.shape = batch, .lanes = span, .path = "hw_fp64", .fmt = sf::Format::fp64(), .hw = true});
    rows.push_back(
        {.shape = batch, .lanes = span, .path = "hw_fp32", .fmt = sf::Format::fp32(), .hw = true});
    for (const sf::simd::Path p : simd_paths) {
      rows.push_back({.shape = batch, .lanes = span, .path = fast(p), .fmt = e8m12, .simd = p});
    }
    rows.push_back({.shape = batch, .lanes = span, .path = "bigfloat", .fmt = sf::Format{12, 12}});
  }
  for (std::size_t op = 0; op < std::size(kRuntimeOps); ++op) {
    for (const int m : kManBits) {
      for (const sf::simd::Path p : simd_paths) {
        rows.push_back({.shape = Shape::Batch,
                        .op = op,
                        .lanes = kLanes,
                        .path = fast(p),
                        .fmt = sf::Format{11, m},
                        .simd = p});
      }
    }
  }
  for (const std::size_t n : {std::size_t{8}, std::size_t{72}, std::size_t{2016}}) {
    for (std::size_t op = 0; op < std::size(kVecOps); ++op) {
      rows.push_back({.shape = Shape::Vec,
                      .op = op,
                      .lanes = n,
                      .path = fast(sf::simd::default_path()),
                      .fmt = e8m12});
    }
  }
  return rows;
}

/// Vec lane-control op `k` (kVecOps) on a, b and the in-scope results c, d.
batch::Vec vec_op(std::size_t k, const batch::Vec& a, const batch::Vec& b, const batch::Vec& c,
                  const batch::Vec& d) {
  switch (k) {
    case 0: return a + b;
    case 1: return c + d;
    case 2: return a * batch::Vec(0.5);
    case 3: return fabs(a);
    case 4: return fmax(a, b);
    default:
      return batch::branch(
          a <= b, [&](auto pick) { return pick(a) + pick(b); },
          [&](auto pick) { return pick(a) - pick(b); });
  }
}

/// One pass of a scalar or batch row over the first whole spans of
/// row.lanes in kLanes elements (the scalar loop: one op at a time, as
/// row.drive says); returns the number of elements computed.
std::size_t runtime_pass(const PathRow& row, const double* a, const double* b, double* out) {
  auto& R = rt::Runtime::instance();
  const rt::OpKind kind = kRuntimeOps[row.op].kind;
  if (row.shape == Shape::Scalar) {
    if (row.drive == Drive::Double) {
      for (std::size_t i = 0; i < kLanes; ++i) out[i] = a[i] + b[i];
      asm volatile("" : : "r"(out) : "memory");  // the stores are the result: keep them
    } else if (row.drive == Drive::Mem) {
      for (std::size_t i = 0; i < kLanes; ++i) {
        out[i] = R.op2(kind, a[i], b[i], 64);
        R.mem_release(out[i]);
      }
    } else {
      for (std::size_t i = 0; i < kLanes; ++i) out[i] = R.op2(kind, a[i], b[i], 64);
    }
    return kLanes;
  }
  std::size_t i = 0;
  for (; i + row.lanes <= kLanes; i += row.lanes) {
    if (kind == rt::OpKind::Sqrt) {
      R.op1_batch(kind, a + i, out + i, row.lanes, 64);
    } else {
      R.op2_batch(kind, a + i, b + i, out + i, row.lanes, 64);
    }
  }
  return i;
}

/// ns per element of `row`, from a clean runtime.
double measure_path(const PathRow& row, int reps) {
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_hw_fastpath(row.hw);
  R.force_simd_path(row.simd);
  R.set_counting(row.counting);
  R.set_alloc_strategy(row.alloc);
  double sec = 0.0;
  std::size_t elements = 0;
  const auto timed = [&](auto&& pass) {
    for (int r = 0; r < reps / 4; ++r) pass();  // warm-up
    Timer t;
    for (int r = 0; r < reps; ++r) elements += pass();
    sec = t.seconds();
  };
  {
    std::optional<TruncScope> scope;
    if (row.fmt) scope.emplace(row.fmt->exp_bits, row.fmt->man_bits);
    if (row.shape == Shape::Vec) {
      // Built in the scope, so c and d carry exactness tags.
      const auto gather = [&](std::size_t set) {
        return batch::Vec::gather(row.lanes, [&](std::size_t i) { return data(set)[i]; });
      };
      const batch::Vec a = gather(3), b = gather(4), c = a * b, d = a - b;
      timed([&] {
        volatile double sink = 0.0;
        for (std::size_t n = 0; n + row.lanes <= kLanes; n += row.lanes) {
          sink = sink + vec_op(row.op, a, b, c, d)[0];
        }
        return kLanes / row.lanes * row.lanes;
      });
    } else {
      // Mem-mode adds shadow handles, made for the row and released after it.
      std::vector<double> ha, hb;
      if (row.drive == Drive::Mem) {
        R.set_mode(rt::Mode::Mem);
        for (const double x : data(0)) ha.push_back(R.mem_make(x));
        for (const double x : data(1)) hb.push_back(R.mem_make(x));
      }
      const double* a = ha.empty() ? data(0).data() : ha.data();
      const double* b = hb.empty() ? data(1).data() : hb.data();
      std::vector<double> out(kLanes);
      timed([&] { return runtime_pass(row, a, b, out.data()); });
      for (const double h : ha) R.mem_release(h);
      for (const double h : hb) R.mem_release(h);
    }
  }
  R.reset_all();
  return 1e9 * sec / static_cast<double>(elements);
}

/// The paths table's in-run gates: every vector fast path at most
/// fast_portable at the same (shape, op, format, lanes), and every fast row
/// at most the bigfloat row of the same shape, op and lanes. Prints each
/// failure; returns whether all held.
bool check_paths(const std::vector<PathRow>& rows, const std::vector<double>& ns) {
  bool pass = true;
  const auto gate = [&](std::size_t i, std::size_t j, double max_x) {
    if (ns[i] <= max_x * ns[j]) return;
    pass = false;
    std::printf("FAIL: %s %s %s %zu lanes: %s %.2f ns/el over %.2fx %s %s (%.2f ns/el)\n",
                shape_name(rows[i].shape), rows[i].op_name(), rows[i].format().c_str(),
                rows[i].lanes, rows[i].path.c_str(), ns[i], max_x, rows[j].path.c_str(),
                rows[j].format().c_str(), ns[j]);
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PathRow& r = rows[i];
    if (r.path.rfind("fast", 0) != 0) continue;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const PathRow& o = rows[j];
      if (o.shape != r.shape || o.op != r.op || o.lanes != r.lanes) continue;
      if (o.path == "bigfloat") gate(i, j, kMaxFastXBigfloat);
      if (r.path != "fast_portable" && o.path == "fast_portable" && o.fmt == r.fmt) {
        gate(i, j, kMaxSimdXPortable);
      }
    }
  }
  return pass;
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
  bool ladder_pass = true;
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    const std::vector<double> best = best_of_trials(
        std::size(kConfigs), [&](std::size_t i) { return measure(k, kConfigs[i], reps); });
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
      const Config& c = kConfigs[i];
      const double x = best[i] / best[0];
      bench::Row& row = report.row("ladder");
      row.set("shape", kShapes[k]).set("config", c.name).set("ns_per_el", best[i]);
      row.set("x_counting", x);
      std::printf("%-12s %-18s %10.2f %11.2fx", kShapes[k], c.name, best[i], x);
      if (c.max_x > 0.0) {
        row.set("max_x", c.max_x);
        ladder_pass = ladder_pass && x <= c.max_x;
        std::printf(" %7.2fx%s", c.max_x, x <= c.max_x ? "" : "  FAIL");
      }
      std::printf("\n");
    }
  }
  std::remove(kTracePath);
  for (u32 i = 1; std::remove(trace::segment_path(kTracePath, i).c_str()) == 0; ++i) {
  }

  std::printf("\nper-op cost by execution path (ns/el, counting only, best of %d interleaved "
              "trials)\n\n",
              kTrials);
  std::printf("%-6s %-9s %-6s %5s %-16s %10s\n", "shape", "op", "format", "lanes", "path",
              "ns/el");
  const std::vector<PathRow> rows = path_rows();
  const std::vector<double> ns =
      best_of_trials(rows.size(), [&](std::size_t i) { return measure_path(rows[i], reps); });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PathRow& r = rows[i];
    report.row("paths")
        .set("shape", shape_name(r.shape))
        .set("op", r.op_name())
        .set("format", r.format())
        .set("lanes", r.lanes)
        .set("path", r.path)
        .set("ns_per_el", ns[i]);
    std::printf("%-6s %-9s %-6s %5zu %-16s %10.2f\n", shape_name(r.shape), r.op_name(),
                r.format().c_str(), r.lanes, r.path.c_str(), ns[i]);
  }
  std::printf("\n");
  const bool paths_pass = check_paths(rows, ns);

  report.gates.set("traced_max_x", kMaxTraceX)
      .set("telemetry_max_x", kMaxTelemetryX)
      .set("simd_max_x_portable", kMaxSimdXPortable)
      .set("fast_max_x_bigfloat", kMaxFastXBigfloat)
      .set("pass", ladder_pass && paths_pass);
  if (report.write(json_path)) std::printf("wrote %s\n", json_path.c_str());

  if (!check) return 0;
  if (!ladder_pass) {
    std::printf("FAIL: a gated configuration exceeds its bound against counting-only\n");
  }
  if (!ladder_pass || !paths_pass) return 1;
  std::printf("OK: sampled tracing (plain and rotating) within %.1fx and registry + region "
              "timing within %.1fx of counting-only; every vector path within fast_portable "
              "and every fast row within bigfloat\n",
              kMaxTraceX, kMaxTelemetryX);
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
