// Shared pieces of the repository benchmark (see perfbench/README.md):
// the command-line options, the result record every workload fills, the
// benchmark-side span recorder, and small statistics and checksum helpers.
//
// The benchmark drives the system only through its public API; every
// measurement and span here lives in the benchmark's own files.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/counters.hpp"
#include "softfloat/format.hpp"

namespace perfbench {

using u64 = std::uint64_t;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;    ///< per-layer run: region profiling + spans + layer probes
  bool tiny = false;     ///< smallest problem sizes, one timed repetition (self-test)
  bool corrupt = false;  ///< perturb one observed checksum (self-test of the checks)
  std::string workdir = "perfbench-work";  ///< scratch files (trace captures, spans)
  std::string spans_path;                  ///< where the traced run writes its spans
};

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void set(const std::string& name, double value, const char* unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// One attempted operation (a repetition, a scrape, a one-off check).
  /// A failed one is printed with `what`.
  bool check(bool ok, const std::string& what);
  /// Add another thread's checks (attempted and failed counts).
  void absorb(const Result& o);
  [[nodiscard]] u64 attempted() const { return attempted_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans (name, start, end, parent), kept in memory and
// written out at exit. Off unless the traced run enables them.
// ---------------------------------------------------------------------------

struct SpanRecord {
  int id = 0;
  int parent = -1;  ///< -1: root span of its thread
  int thread = 0;
  std::string name;
  double t0 = 0.0, t1 = 0.0;  ///< seconds since the recorder's origin
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  int open(const char* name);
  void close(int id);
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// Self time of every span: its duration minus the union of its children.
  [[nodiscard]] static std::vector<double> self_times(const std::vector<SpanRecord>& spans);
  void write_json(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  bool on_ = false;
  clock::time_point origin_ = clock::now();
};

/// RAII span; a no-op while the recorder is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(SpanRecorder::instance().enabled() ? SpanRecorder::instance().open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) SpanRecorder::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Durations of every recorded span called `name`.
std::vector<double> span_durations(const std::vector<SpanRecord>& spans, const std::string& name);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

double median(std::vector<double> v);
double max_of(const std::vector<double>& v);

/// The 10th percentile: the estimator of run_s and of the native baseline
/// of slowdown_x. On a shared host the same repetition swings by up to 2x
/// in contention bursts lasting about a second, and the share of time under
/// contention drifts from minute to minute, which moves medians from run to
/// run; contention only ever adds time, so the fast end of many
/// repetitions stays put.
double fast_end(std::vector<double> v);

/// FNV-1a over the bit patterns of `n` doubles, chained from `h`.
inline u64 fnv_doubles(const double* p, std::size_t n, u64 h = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    u64 bits = 0;
    std::memcpy(&bits, &p[i], sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Per-OpKind counts (truncated and full) of a counter snapshot, for the
/// "same op counts every repetition" check.
inline bool same_op_counts(const raptor::rt::CounterSnapshot& a,
                           const raptor::rt::CounterSnapshot& b) {
  return a.trunc_by_kind == b.trunc_by_kind && a.full_by_kind == b.full_by_kind;
}

/// Counter difference after - before (the counters of one repetition).
raptor::rt::CounterSnapshot counter_delta(const raptor::rt::CounterSnapshot& after,
                                          const raptor::rt::CounterSnapshot& before);

/// Per-label region-profile difference after - before (seconds and flops).
struct RegionDelta {
  double seconds = 0.0;
  u64 flops = 0;
};
using RegionDeltas = std::map<std::string, RegionDelta>;
RegionDeltas region_delta(const std::vector<raptor::rt::RegionProfileEntry>& after,
                          const std::vector<raptor::rt::RegionProfileEntry>& before);
void accumulate(RegionDeltas& into, const RegionDeltas& d);

/// The hydro.* and amr.* region metrics of `runs` workload runs' regions.
void set_mesh_metrics(Result& res, const RegionDeltas& regions, double runs);
/// Summed self seconds of the hydro and amr regions.
double mesh_self_seconds(const RegionDeltas& regions);

/// search::flop_weighted_trunc_share of a fixed-format run: each profiled
/// region contributes its truncated work at `fmt` and its full work untruncated.
double configured_trunc_share(const std::vector<raptor::rt::RegionProfileEntry>& profiles,
                              raptor::sf::Format fmt);

/// Strict JSON syntax check (scrape bodies must parse).
bool json_valid(const std::string& text);

/// Layer probes of the traced run: per-call costs of the softfloat and
/// runtime entry points at `fmt` on seeded operands.
void probe_layers(const Options& opt, raptor::sf::Format fmt, bool hw_fastpath, Result& res);

/// Region self times, op counts and ns/op of one labelled region, per
/// workload run, as `<prefix>_s`, `<prefix>_ops`, `<prefix>_ns_per_op`.
void set_region_metrics(Result& res, const std::string& prefix, const RegionDelta& d, double runs);

void run_sedov(const Options& opt, Result& res);
void run_search(const Options& opt, Result& res);
void run_live(const Options& opt, Result& res);

}  // namespace perfbench
