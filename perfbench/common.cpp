#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "runtime/runtime.hpp"
#include "search/precision_search.hpp"
#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "support/rng.hpp"
#include "trunc/scope.hpp"

namespace perfbench {

namespace rt = raptor::rt;
namespace sf = raptor::sf;

void Result::absorb(const Result& o) {
  attempted_ += o.attempted_;
  failed_ += o.failed_;
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open;  // ids of this thread's open spans, innermost last
thread_local int t_thread = -1;
int g_next_thread = 0;  // guarded by SpanRecorder::mu_
}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder r;
  return r;
}

int SpanRecorder::open(const char* name) {
  const double now = std::chrono::duration<double>(clock::now() - origin_).count();
  std::lock_guard lock(mu_);
  if (t_thread < 0) t_thread = g_next_thread++;
  SpanRecord s;
  s.id = static_cast<int>(spans_.size());
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.thread = t_thread;
  s.name = name;
  s.t0 = now;
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(int id) {
  const double now = std::chrono::duration<double>(clock::now() - origin_).count();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = now;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0, end = spans[i].t0;
    for (const auto& [a, b] : c) {
      const double lo = std::max(a, end), hi = std::min(b, spans[i].t1);
      if (hi > lo) covered += hi - lo;
      end = std::max(end, hi);
    }
    self[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return self;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = snapshot();
  const std::vector<double> self = self_times(spans);
  std::ofstream out(path);
  out << "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %d, \"parent\": %d, \"thread\": %d, \"name\": \"%s\", "
                  "\"start\": %.9f, \"end\": %.9f, \"self\": %.9f}%s\n",
                  s.id, s.parent, s.thread, s.name.c_str(), s.t0, s.t1, self[i],
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

std::vector<double> span_durations(const std::vector<SpanRecord>& spans, const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics, counters, region profiles
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fast_end(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 10];
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

rt::CounterSnapshot counter_delta(const rt::CounterSnapshot& after,
                                  const rt::CounterSnapshot& before) {
  rt::CounterSnapshot d;
  d.trunc_flops = after.trunc_flops - before.trunc_flops;
  d.full_flops = after.full_flops - before.full_flops;
  d.trunc_bytes = after.trunc_bytes - before.trunc_bytes;
  d.full_bytes = after.full_bytes - before.full_bytes;
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    d.trunc_by_kind[i] = after.trunc_by_kind[i] - before.trunc_by_kind[i];
    d.full_by_kind[i] = after.full_by_kind[i] - before.full_by_kind[i];
  }
  return d;
}

RegionDeltas region_delta(const std::vector<rt::RegionProfileEntry>& after,
                          const std::vector<rt::RegionProfileEntry>& before) {
  RegionDeltas out;
  for (const auto& e : after) {
    out[e.label] = {e.profile.seconds, e.profile.counters.total_flops()};
  }
  for (const auto& e : before) {
    RegionDelta& d = out[e.label];
    d.seconds -= e.profile.seconds;
    d.flops -= e.profile.counters.total_flops();
  }
  return out;
}

void accumulate(RegionDeltas& into, const RegionDeltas& d) {
  for (const auto& [label, v] : d) {
    into[label].seconds += v.seconds;
    into[label].flops += v.flops;
  }
}

void set_region_metrics(Result& res, const std::string& prefix, const RegionDelta& d,
                        double runs) {
  const double n = runs > 0.0 ? runs : 1.0;
  res.set(prefix + "_s", d.seconds / n, "s");
  res.set(prefix + "_ops", static_cast<double>(d.flops) / n, "count");
  res.set(prefix + "_ns_per_op", d.flops > 0 ? 1e9 * d.seconds / static_cast<double>(d.flops) : 0.0,
          "ns");
}

namespace {

bool starts_with(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }
bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/// Sum of every per-level amr/L<k>/<phase> region.
RegionDelta amr_phase(const RegionDeltas& regions, const std::string& phase) {
  RegionDelta sum;
  for (const auto& [label, d] : regions) {
    if (starts_with(label, "amr/L") && ends_with(label, "/" + phase)) {
      sum.seconds += d.seconds;
      sum.flops += d.flops;
    }
  }
  return sum;
}

RegionDelta region_or_zero(const RegionDeltas& regions, const std::string& label) {
  const auto it = regions.find(label);
  return it == regions.end() ? RegionDelta{} : it->second;
}

}  // namespace

void set_mesh_metrics(Result& res, const RegionDeltas& regions, double runs) {
  const double n = runs > 0.0 ? runs : 1.0;
  set_region_metrics(res, "hydro.riemann", region_or_zero(regions, "hydro/riemann"), runs);
  set_region_metrics(res, "hydro.recon", region_or_zero(regions, "hydro/recon"), runs);
  set_region_metrics(res, "hydro.update", region_or_zero(regions, "hydro/update"), runs);
  // The bare "hydro" region is primitive recovery (load_prim) around the stages.
  set_region_metrics(res, "hydro.prim", region_or_zero(regions, "hydro"), runs);
  const RegionDelta guard = amr_phase(regions, "guard");
  res.set("amr.guard_s", guard.seconds / n, "s");
  res.set("amr.guard_ops", static_cast<double>(guard.flops) / n, "count");
  res.set("amr.prolong_s", amr_phase(regions, "prolong").seconds / n, "s");
  res.set("amr.restrict_s", amr_phase(regions, "restrict").seconds / n, "s");
  double total = 0.0;
  for (const auto& [label, d] : regions) total += d.seconds;
  res.set("hydro.riemann_share",
          total > 0.0 ? region_or_zero(regions, "hydro/riemann").seconds / total : 0.0, "ratio");
}

double mesh_self_seconds(const RegionDeltas& regions) {
  double s = 0.0;
  for (const auto& [label, d] : regions) {
    if (starts_with(label, "hydro") || starts_with(label, "amr/")) s += d.seconds;
  }
  return s;
}

double configured_trunc_share(const std::vector<rt::RegionProfileEntry>& profiles,
                              sf::Format fmt) {
  std::vector<raptor::search::RegionChoice> choices;
  for (const rt::RegionProfileEntry& e : profiles) {
    const rt::CounterSnapshot& c = e.profile.counters;
    raptor::search::RegionChoice t;
    t.region = e.label;
    t.truncated = true;
    t.format = fmt;
    t.flops = c.trunc_flops;
    t.bytes = c.trunc_bytes;
    raptor::search::RegionChoice f;
    f.region = e.label;
    f.flops = c.full_flops;
    f.bytes = c.full_bytes;
    choices.push_back(t);
    choices.push_back(f);
  }
  return raptor::search::flop_weighted_trunc_share(choices);
}

// ---------------------------------------------------------------------------
// JSON syntax check
// ---------------------------------------------------------------------------

namespace {

class JsonCheck {
 public:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool run() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' || s_[i_] == '\t')) ++i_;
  }
  bool lit(const char* w) {
    const std::size_t n = std::strlen(w);
    if (s_.compare(i_, n, w) != 0) return false;
    i_ += n;
    return true;
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') ++i_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
                              s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == close) {
        ++i_;
        return true;
      }
      while (true) {
        if (c == '{') {
          if (!string()) return false;
          ws();
          if (i_ >= s_.size() || s_[i_] != ':') return false;
          ++i_;
          ws();
        }
        if (!value(depth + 1)) return false;
        ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          ws();
          continue;
        }
        if (i_ < s_.size() && s_[i_] == close) {
          ++i_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') return string();
    if (c == 't') return lit("true");
    if (c == 'f') return lit("false");
    if (c == 'n') return lit("null");
    return number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) { return JsonCheck(text).run(); }

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kProbeN = 4096;
constexpr int kProbeTrials = 7;

/// Median over trials of `body`'s seconds per `per_trial` units of work,
/// in nanoseconds.
template <class F>
double ns_per(double per_trial, const F& body) {
  std::vector<double> t;
  for (int k = 0; k < kProbeTrials; ++k) {
    const Stopwatch w;
    body();
    t.push_back(w.seconds());
  }
  return 1e9 * median(t) / per_trial;
}

}  // namespace

void probe_layers(const Options& opt, sf::Format fmt, bool hw_fastpath, Result& res) {
  Span span("bench.probe_layers");
  raptor::Rng rng(opt.seed ^ 0x5eedULL);
  std::vector<double> a(kProbeN), b(kProbeN), out(kProbeN);
  for (std::size_t i = 0; i < kProbeN; ++i) {
    a[i] = rng.uniform(0.1, 10.0) * (rng.next_below(2) ? 1.0 : -1.0);
    b[i] = rng.uniform(0.1, 10.0);
  }
  volatile double sink = 0.0;
  const int reps_slow = opt.tiny ? 1 : 4;   // BigFloat and scalar dispatch: ~60 ns/op
  const int reps_fast = opt.tiny ? 4 : 64;  // fast kernels and spans: a few ns/op

  // softfloat: BigFloat at e11m12 (outside the fast-kernel envelope), the
  // scalar fast kernels at e8m12, and the SIMD span kernels on the default
  // and the portable path.
  const sf::Format big{11, 12};
  res.set("softfloat.bigfloat_ns", ns_per(3.0 * kProbeN * reps_slow, [&] {
            for (int r = 0; r < reps_slow; ++r) {
              for (std::size_t i = 0; i < kProbeN; ++i) {
                sink = sink + sf::trunc_add(a[i], b[i], big) + sf::trunc_mul(a[i], b[i], big) +
                       sf::trunc_div(a[i], b[i], big);
              }
            }
          }),
          "ns");
  const sf::RoundSpec fast(sf::Format{8, 12});
  res.set("softfloat.fast_ns", ns_per(3.0 * kProbeN * reps_fast, [&] {
            for (int r = 0; r < reps_fast; ++r) {
              for (std::size_t i = 0; i < kProbeN; ++i) {
                sink = sink + sf::fast_add(a[i], b[i], fast) + sf::fast_mul(a[i], b[i], fast) +
                       sf::fast_div(a[i], b[i], fast);
              }
            }
          }),
          "ns");
  const auto simd = [&](sf::simd::Path p) {
    return ns_per(3.0 * kProbeN * reps_fast, [&] {
      for (int r = 0; r < reps_fast; ++r) {
        for (const sf::simd::SpanOp op :
             {sf::simd::SpanOp::Add, sf::simd::SpanOp::Mul, sf::simd::SpanOp::Div}) {
          sf::simd::span_exec(p, op, a.data(), b.data(), nullptr, out.data(), kProbeN, fast);
          sink = sink + out[0];
        }
      }
    });
  };
  res.set("softfloat.simd_ns_per_el", simd(sf::simd::default_path()), "ns");
  res.set("softfloat.simd_portable_ns_per_el", simd(sf::simd::Path::Portable), "ns");

  // runtime: the scalar and batch entry points with counting on, at the
  // workload's format and fast-path setting.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_counting(true);
  R.set_hw_fastpath(hw_fastpath);
  {
    raptor::TruncScope scope(fmt.exp_bits, fmt.man_bits);
    res.set("runtime.op2_ns", ns_per(3.0 * kProbeN * reps_slow, [&] {
              for (int r = 0; r < reps_slow; ++r) {
                for (std::size_t i = 0; i < kProbeN; ++i) {
                  sink = sink + R.op2(rt::OpKind::Add, a[i], b[i]) +
                         R.op2(rt::OpKind::Mul, a[i], b[i]) + R.op2(rt::OpKind::Div, a[i], b[i]);
                }
              }
            }),
            "ns");
    res.set("runtime.op2_batch_ns_per_el", ns_per(3.0 * kProbeN * reps_fast, [&] {
              for (int r = 0; r < reps_fast; ++r) {
                for (const rt::OpKind k : {rt::OpKind::Add, rt::OpKind::Mul, rt::OpKind::Div}) {
                  R.op2_batch(k, a.data(), b.data(), out.data(), kProbeN);
                  sink = sink + out[0];
                }
              }
            }),
            "ns");
    res.set("runtime.trunc_array_ns_per_el", ns_per(1.0 * kProbeN * reps_fast, [&] {
              for (int r = 0; r < reps_fast; ++r) {
                R.trunc_array(a.data(), out.data(), kProbeN);
                sink = sink + out[0];
              }
            }),
            "ns");
  }
  R.reset_all();
}

}  // namespace perfbench
