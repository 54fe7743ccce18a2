#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>

#include "softfloat/fast_round.hpp"

namespace raptor::rt {

namespace {

double deviation_of(double t, double s) {
  const bool t_nan = std::isnan(t);
  const bool s_nan = std::isnan(s);
  // Both NaN: the truncated run diverged exactly as the reference did —
  // nothing new to flag. One-sided NaN is catastrophic divergence (e.g. a
  // narrow-format overflow turning inf - inf into NaN while the FP64 shadow
  // stays finite): report infinite deviation so the flag always fires.
  if (t_nan && s_nan) return 0.0;
  if (t_nan || s_nan) return std::numeric_limits<double>::infinity();
  // Infinities would otherwise produce NaN (inf - inf or inf / inf): the
  // same overflow on both sides is agreement, anything one-sided or
  // sign-flipped is catastrophic.
  if (std::isinf(t) || std::isinf(s)) {
    return t == s ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const double denom = std::max(std::fabs(s), 1e-300);
  return std::fabs(t - s) / denom;
}

int width_index(int width) { return width == 64 ? 0 : width == 32 ? 1 : 2; }

}  // namespace

struct Runtime::ThreadState {
  struct ScopeFrame {
    TruncationSpec spec;
    bool enabled = true;
  };
  struct RegionFrame {
    const char* label = "";
    bool excluded = false;
    /// Format override bound to this region label (or inherited from the
    /// enclosing region), resolved once at region entry like `excluded`.
    bool has_override = false;
    TruncationSpec override_spec;
  };

  /// Resolved truncation state for one operand width: what
  /// effective_format() would compute at the current scope/region/config
  /// point. Recomputed lazily after any scope/region push/pop (local
  /// invalidation) or global config change (epoch mismatch), so steady-state
  /// op dispatch costs one flag test instead of a stack walk.
  struct TruncCache {
    bool cached = false;
    bool active = false;
    sf::Format fmt;
  };

  std::vector<ScopeFrame> scopes;
  std::vector<RegionFrame> regions;
  TruncCache trunc_cache[3];  ///< widths 64 / 32 / 16
  u64 config_epoch = 0;
  /// The thread's accumulators (DESIGN.md §7): single-writer cells, which
  /// counters() and region_profiles() read under threads_mu_ while this
  /// thread keeps writing them.
  BasicCounters<Cell> counters;
  /// Per-region rows. The owner looks a label up without a lock and inserts
  /// a new one under threads_mu_ (profile_row), the lock every reader of
  /// the map holds. The slot pointer is resolved lazily; the map is
  /// node-based so cached pointers survive growth. `prof_cached` is
  /// invalidated together with the truncation cache — every op resolves its
  /// effective format first, which syncs the epoch, so a cleared map can
  /// never be reached through a stale pointer.
  std::map<std::string, ThreadProfile, std::less<>> region_profiles;
  ThreadProfile* region_prof = nullptr;
  bool prof_cached = false;
  /// Start of the innermost region's current wall-clock interval
  /// (DESIGN.md §16). Zero = no interval open (profiling just enabled, or
  /// reset): the next region boundary stamps it without accruing. Only the
  /// owning thread reads/writes it during execution; set_region_profiling
  /// and reset_region_profiles zero it under the quiescence contract.
  std::chrono::steady_clock::time_point region_t0{};
  /// Trace capture state (DESIGN.md §12): the thread's ring/histogram
  /// buffer for the current tracer session, the sampling countdown, and a
  /// cached (region slot, histogram) pair resolved like region_prof. The
  /// session stamp re-syncs everything across trace_start/trace_stop.
  trace::ThreadTrace* trace_buf = nullptr;
  u64 trace_session = 0;
  u64 trace_countdown = 0;
  u32 trace_slot = 0;
  trace::RegionHist* trace_hist = nullptr;
  bool trace_slot_cached = false;
  /// The scratch pad of emulation cells (Fig. 4b): each stands in for an
  /// MPFR variable, reused by every emulated op of the thread.
  sf::BigFloat scratch[4];
  /// Lanes of the broadcast operands of a batch call (one per position).
  std::vector<double> spread[3];
  Runtime* owner;

  void invalidate_trunc_cache() {
    for (TruncCache& c : trunc_cache) c.cached = false;
    prof_cached = false;
    trace_slot_cached = false;
  }

  explicit ThreadState(Runtime* o) : owner(o) { o->register_thread(this); }
  ~ThreadState() { owner->retire_thread(this); }
};

Runtime& Runtime::instance() {
  static Runtime* r = new Runtime;  // leaked: immune to shutdown-order issues
  return *r;
}

Runtime::ThreadState& Runtime::tls() {
  thread_local ThreadState ts(this);
  return ts;
}

void Runtime::register_thread(ThreadState* ts) {
  std::lock_guard lock(threads_mu_);
  threads_.push_back(ts);
}

void Runtime::retire_thread(ThreadState* ts) {
  // Close the thread's open wall-clock interval so a worker dying inside a
  // region doesn't silently drop that region's tail time.
  if (region_profiling_ && ts->region_t0.time_since_epoch().count() != 0) {
    const char* label = ts->regions.empty() ? "<toplevel>" : ts->regions.back().label;
    profile_row(*ts, label).seconds += std::chrono::duration<double>(
        std::chrono::steady_clock::now() - ts->region_t0).count();
  }
  // Trace flush first: merge the thread's histograms into the tracer's
  // retired aggregate (its undrained ring events are picked up by the
  // drainer). detach() ignores buffers from stale sessions.
  if (ts->trace_buf != nullptr) tracer_.detach(ts->trace_buf, ts->trace_session);
  std::lock_guard lock(threads_mu_);
  retired_.merge(ts->counters);
  for (const auto& [label, prof] : ts->region_profiles) retired_regions_[label].merge(prof);
  std::erase(threads_, ts);
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

void Runtime::set_truncate_all(const TruncationSpec& spec) {
  {
    std::lock_guard lock(config_mu_);
    global_spec_ = spec;
    have_global_ = true;
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_truncate_all() {
  {
    std::lock_guard lock(config_mu_);
    have_global_ = false;
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

std::optional<TruncationSpec> Runtime::truncate_all() const {
  std::lock_guard lock(config_mu_);
  if (!have_global_) return std::nullopt;
  return global_spec_;
}

void Runtime::exclude_region(const std::string& label) {
  {
    std::lock_guard lock(config_mu_);
    if (std::find(exclusions_.begin(), exclusions_.end(), label) == exclusions_.end()) {
      exclusions_.push_back(label);
    }
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_exclusions() {
  {
    std::lock_guard lock(config_mu_);
    exclusions_.clear();
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

bool Runtime::is_excluded(const std::string& label) const {
  std::lock_guard lock(config_mu_);
  return std::find(exclusions_.begin(), exclusions_.end(), label) != exclusions_.end();
}

void Runtime::set_region_format(const std::string& label, const TruncationSpec& spec) {
  {
    std::lock_guard lock(config_mu_);
    auto it = std::find_if(region_formats_.begin(), region_formats_.end(),
                           [&](const auto& e) { return e.first == label; });
    if (it != region_formats_.end()) {
      it->second = spec;
    } else {
      region_formats_.emplace_back(label, spec);
    }
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_region_formats() {
  {
    std::lock_guard lock(config_mu_);
    region_formats_.clear();
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

std::optional<TruncationSpec> Runtime::region_format(const std::string& label) const {
  std::lock_guard lock(config_mu_);
  for (const auto& [l, s] : region_formats_) {
    if (l == label) return s;
  }
  return std::nullopt;
}

void Runtime::set_region_profiling(bool on) {
  {
    std::lock_guard lock(config_mu_);
    region_profiling_ = on;
  }
  {
    // Discard any open wall-clock interval: a stale region_t0 from a
    // previous profiling session would otherwise accrue the whole gap to
    // whichever region is innermost at the next boundary. Quiescence
    // contract: no instrumented code is executing, so touching other
    // threads' state under threads_mu_ is safe.
    std::lock_guard lock(threads_mu_);
    for (ThreadState* ts : threads_) ts->region_t0 = {};
  }
  // Threads re-resolve their cached profile slot on the next epoch sync.
  config_epoch_.fetch_add(1, std::memory_order_release);
}

std::vector<RegionProfileEntry> Runtime::region_profiles() const {
  std::map<std::string, RegionProfile> merged;
  {
    std::lock_guard lock(threads_mu_);
    merged = retired_regions_;
    for (const ThreadState* ts : threads_) {
      for (const auto& [label, prof] : ts->region_profiles) merged[label].merge(prof);
    }
  }
  std::vector<RegionProfileEntry> out;
  out.reserve(merged.size());
  for (auto& [label, prof] : merged) out.push_back({label, prof});
  std::sort(out.begin(), out.end(), [](const RegionProfileEntry& a, const RegionProfileEntry& b) {
    return a.profile.counters.total_flops() > b.profile.counters.total_flops();
  });
  return out;
}

void Runtime::reset_region_profiles() {
  {
    std::lock_guard lock(threads_mu_);
    retired_regions_.clear();
    for (ThreadState* ts : threads_) {
      ts->region_profiles.clear();
      ts->region_t0 = {};  // the open interval belongs to the discarded data
    }
  }
  // Invalidate every thread's cached slot pointer (it aims into the cleared
  // map); the pointer is re-resolved after the next effective_format call.
  config_epoch_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Scoping
// ---------------------------------------------------------------------------

void Runtime::push_scope(const TruncationSpec& spec, bool enabled) {
  ThreadState& ts = tls();
  ts.scopes.push_back({spec, enabled});
  ts.invalidate_trunc_cache();
}

void Runtime::pop_scope() {
  ThreadState& ts = tls();
  RAPTOR_REQUIRE(!ts.scopes.empty(), "pop_scope without matching push_scope");
  ts.scopes.pop_back();
  ts.invalidate_trunc_cache();
}

void Runtime::push_region(const char* label) {
  ThreadState& ts = tls();
  // Time accrues to the *enclosing* region up to this entry point.
  if (region_profiling_) accrue_region_time(ts);
  // Exclusion and format overrides are decided at region entry (cheap
  // per-op reads afterwards); a region nested under an excluded one stays
  // excluded, and a region without its own override inherits the enclosing
  // region's.
  ThreadState::RegionFrame frame;
  frame.label = label;
  if (!ts.regions.empty()) {
    frame.excluded = ts.regions.back().excluded;
    frame.has_override = ts.regions.back().has_override;
    if (frame.has_override) frame.override_spec = ts.regions.back().override_spec;
  }
  {
    std::lock_guard lock(config_mu_);
    if (!frame.excluded) {
      frame.excluded = std::find(exclusions_.begin(), exclusions_.end(), label) !=
                       exclusions_.end();
    }
    auto it = std::find_if(region_formats_.begin(), region_formats_.end(),
                           [&](const auto& e) { return e.first == label; });
    if (it != region_formats_.end()) {
      frame.has_override = true;
      frame.override_spec = it->second;
    }
  }
  ts.regions.push_back(std::move(frame));
  ts.invalidate_trunc_cache();
}

void Runtime::pop_region() {
  ThreadState& ts = tls();
  RAPTOR_REQUIRE(!ts.regions.empty(), "pop_region without matching push_region");
  // The popped region is still innermost: close its interval first.
  if (region_profiling_) accrue_region_time(ts);
  ts.regions.pop_back();
  ts.invalidate_trunc_cache();
}

const char* Runtime::current_region() {
  ThreadState& ts = tls();
  return ts.regions.empty() ? "<toplevel>" : ts.regions.back().label;
}

void Runtime::sync_epoch(ThreadState& ts) const {
  const u64 epoch = config_epoch_.load(std::memory_order_acquire);
  if (ts.config_epoch != epoch) {
    ts.invalidate_trunc_cache();
    ts.config_epoch = epoch;
  }
}

const sf::Format* Runtime::effective_format(ThreadState& ts, int width) const {
  sync_epoch(ts);
  ThreadState::TruncCache& c = ts.trunc_cache[width_index(width)];
  if (!c.cached) {
    std::optional<sf::Format> f;
    if (ts.regions.empty() || !ts.regions.back().excluded) {
      if (!ts.regions.empty() && ts.regions.back().has_override) {
        // Per-region override (precision-search output): most specific
        // user intent, beaten only by exclusion.
        f = ts.regions.back().override_spec.for_width(width);
      } else if (!ts.scopes.empty()) {
        if (ts.scopes.back().enabled) f = ts.scopes.back().spec.for_width(width);
      } else {
        // Global spec: the only cross-thread input, read under config_mu_
        // once per invalidation rather than on every operation.
        std::lock_guard lock(config_mu_);
        if (have_global_) f = global_spec_.for_width(width);
      }
    }
    c.active = f.has_value();
    if (f) c.fmt = *f;
    c.cached = true;
  }
  return c.active ? &c.fmt : nullptr;
}

void Runtime::accrue_region_time(ThreadState& ts) {
  // Close the innermost region's open wall-clock interval and start a new
  // one. Called at region boundaries (before the stack mutates), so the
  // accrued time is exclusive self-time: a parent's clock pauses while a
  // child region is innermost. sync_epoch first — reset_region_profiles
  // cleared the per-thread maps and only an epoch sync invalidates the
  // cached slot pointer, which would otherwise dangle here.
  sync_epoch(ts);
  const auto now = std::chrono::steady_clock::now();
  if (ts.region_t0.time_since_epoch().count() != 0) {
    if (ThreadProfile* rp = region_prof(ts)) {
      rp->seconds += std::chrono::duration<double>(now - ts.region_t0).count();
    }
  }
  ts.region_t0 = now;
}

Runtime::ThreadProfile* Runtime::region_prof(ThreadState& ts) {
  if (!ts.prof_cached) {
    ts.region_prof = nullptr;
    if (region_profiling_) {
      ts.region_prof =
          &profile_row(ts, ts.regions.empty() ? "<toplevel>" : ts.regions.back().label);
    }
    ts.prof_cached = true;
  }
  return ts.region_prof;
}

Runtime::ThreadProfile& Runtime::profile_row(ThreadState& ts, const char* label) {
  // Only the owner inserts into its map, so its own lookup needs no lock;
  // the insert takes threads_mu_, which every other reader of the map holds.
  if (auto it = ts.region_profiles.find(std::string_view(label)); it != ts.region_profiles.end()) {
    return it->second;
  }
  std::lock_guard lock(threads_mu_);
  return ts.region_profiles.try_emplace(label).first->second;
}

bool Runtime::truncation_active(int width) { return effective_format(tls(), width) != nullptr; }

std::optional<sf::Format> Runtime::active_format(int width) {
  const sf::Format* f = effective_format(tls(), width);
  if (f == nullptr) return std::nullopt;
  return *f;
}

// ---------------------------------------------------------------------------
// Execution kernels: each written once for every operand count
// ---------------------------------------------------------------------------
//
// Every kernel reads its operands from x[0..op_arity(k)); the entry points
// check the arity before any of them runs.

namespace {

/// `k` in F arithmetic, widened back to double: untruncated execution
/// (F = double) and the hardware types under hw_fastpath (fp64: double,
/// fp32: float).
template <class F>
double native(OpKind k, const double* x) {
  const F a = static_cast<F>(x[0]);
  switch (k) {
    case OpKind::Add: return a + static_cast<F>(x[1]);
    case OpKind::Sub: return a - static_cast<F>(x[1]);
    case OpKind::Mul: return a * static_cast<F>(x[1]);
    case OpKind::Div: return a / static_cast<F>(x[1]);
    case OpKind::Pow: return std::pow(a, static_cast<F>(x[1]));
    case OpKind::Atan2: return std::atan2(a, static_cast<F>(x[1]));
    // One rounding in F, matching the BigFloat fused semantics.
    case OpKind::Fma: return std::fma(a, static_cast<F>(x[1]), static_cast<F>(x[2]));
    case OpKind::Neg: return -a;
    case OpKind::Sqrt: return std::sqrt(a);
    case OpKind::Exp: return std::exp(a);
    case OpKind::Log: return std::log(a);
    case OpKind::Log2: return std::log2(a);
    case OpKind::Log10: return std::log10(a);
    case OpKind::Sin: return std::sin(a);
    case OpKind::Cos: return std::cos(a);
    case OpKind::Tan: return std::tan(a);
    case OpKind::Atan: return std::atan(a);
    case OpKind::Tanh: return std::tanh(a);
    case OpKind::Cbrt: return std::cbrt(a);
    default: RAPTOR_REQUIRE(false, "bad op kind"); return 0;
  }
}

/// native<F> over n lanes of the operand spans p[0..N). The four arithmetic
/// kinds have loops of their own, which the compiler vectorizes.
template <class F, int N>
void native_lanes(OpKind k, const double* const* p, double* out, std::size_t n) {
  if constexpr (N == 2) {
    const double* a = p[0];
    const double* b = p[1];
    switch (k) {
      case OpKind::Add:
        for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<F>(a[i]) + static_cast<F>(b[i]);
        return;
      case OpKind::Sub:
        for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<F>(a[i]) - static_cast<F>(b[i]);
        return;
      case OpKind::Mul:
        for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<F>(a[i]) * static_cast<F>(b[i]);
        return;
      case OpKind::Div:
        for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<F>(a[i]) / static_cast<F>(b[i]);
        return;
      default: break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double v[N];
    for (int j = 0; j < N; ++j) v[j] = p[j][i];
    out[i] = native<F>(k, v);
  }
}

/// `k` over the cells *x[0..op_arity(k)) in BigFloat, correctly rounded into `f`
/// (the elementary functions faithfully, DESIGN.md §6): op-mode emulation
/// and mem-mode's truncated value.
sf::BigFloat bf_op(OpKind k, const sf::BigFloat* const* x, const sf::Format& f) {
  const sf::BigFloat& a = *x[0];
  switch (k) {
    case OpKind::Add: return sf::BigFloat::add(a, *x[1], f);
    case OpKind::Sub: return sf::BigFloat::sub(a, *x[1], f);
    case OpKind::Mul: return sf::BigFloat::mul(a, *x[1], f);
    case OpKind::Div: return sf::BigFloat::div(a, *x[1], f);
    case OpKind::Pow: return sf::bf_pow(a, *x[1], f);
    case OpKind::Atan2: return sf::bf_atan2(a, *x[1], f);
    case OpKind::Fma: return sf::BigFloat::fma(a, *x[1], *x[2], f);
    case OpKind::Neg: return a.negated();
    case OpKind::Sqrt: return sf::BigFloat::sqrt(a, f);
    case OpKind::Exp: return sf::bf_exp(a, f);
    case OpKind::Log: return sf::bf_log(a, f);
    case OpKind::Log2: return sf::bf_log2(a, f);
    case OpKind::Log10: return sf::bf_log10(a, f);
    case OpKind::Sin: return sf::bf_sin(a, f);
    case OpKind::Cos: return sf::bf_cos(a, f);
    case OpKind::Tan: return sf::bf_tan(a, f);
    case OpKind::Atan: return sf::bf_atan(a, f);
    case OpKind::Tanh: return sf::bf_tanh(a, f);
    case OpKind::Cbrt: return sf::bf_cbrt(a, f);
    default: RAPTOR_REQUIRE(false, "bad op kind"); return {};
  }
}

/// True when the fast kernels compute `k` in `f` bit-identically to the
/// BigFloat reference (fast_round.hpp): Add/Sub/Mul/Div/Neg/Sqrt inside
/// the fast_round envelope, Fma inside the narrower fast_fma one.
bool fast_ok(OpKind k, const sf::Format& f) {
  switch (k) {
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Div:
    case OpKind::Neg:
    case OpKind::Sqrt: return sf::fast_round_supports(f);
    case OpKind::Fma: return sf::fast_fma_supports(f);
    default: return false;
  }
}

/// The scalar fast kernel of `k` (fast_ok holds).
double fast(OpKind k, const double* x, const sf::Format& f) {
  const sf::RoundSpec s(f);
  switch (k) {
    case OpKind::Add: return sf::fast_add(x[0], x[1], s);
    case OpKind::Sub: return sf::fast_sub(x[0], x[1], s);
    case OpKind::Mul: return sf::fast_mul(x[0], x[1], s);
    case OpKind::Div: return sf::fast_div(x[0], x[1], s);
    case OpKind::Neg: return sf::fast_neg(x[0], s);
    case OpKind::Sqrt: return sf::fast_sqrt(x[0], s);
    default: return sf::fast_fma(x[0], x[1], x[2], s);
  }
}

/// The span kernel of `k` (fast_ok holds).
sf::simd::SpanOp span_op(OpKind k) {
  switch (k) {
    case OpKind::Add: return sf::simd::SpanOp::Add;
    case OpKind::Sub: return sf::simd::SpanOp::Sub;
    case OpKind::Mul: return sf::simd::SpanOp::Mul;
    case OpKind::Div: return sf::simd::SpanOp::Div;
    case OpKind::Neg: return sf::simd::SpanOp::Neg;
    case OpKind::Sqrt: return sf::simd::SpanOp::Sqrt;
    default: return sf::simd::SpanOp::Fma;
  }
}

/// `v` in n lanes of `buf` (a broadcast batch operand).
const double* spread(double v, std::size_t n, std::vector<double>& buf) {
  if (buf.size() < n) buf.resize(n);
  std::fill_n(buf.data(), n, v);
  return buf.data();
}

}  // namespace

template <int N>
double Runtime::emulate(ThreadState& ts, OpKind k, const double* x, const sf::Format& f) {
  // Cells 0..N-1 take the rounded operands (mpfr_set), cell N the result.
  const auto run = [&](sf::BigFloat* const* c) {
    for (int i = 0; i < N; ++i) *c[i] = sf::BigFloat::from_double_rounded(x[i], f);
    *c[N] = bf_op(k, c, f);
    return c[N]->to_double();  // mpfr_get
  };
  sf::BigFloat* c[N + 1];
  if (alloc_ == AllocStrategy::Naive) {
    for (sf::BigFloat*& cell : c) cell = new sf::BigFloat;  // mpfr_init2 per op
    const double r = run(c);
    for (sf::BigFloat* cell : c) delete cell;  // mpfr_clear per op
    return r;
  }
  for (int i = 0; i <= N; ++i) c[i] = &ts.scratch[i];
  return run(c);
}

// ---------------------------------------------------------------------------
// Mem-mode (Fig. 5b semantics with refcounting on top)
// ---------------------------------------------------------------------------

double Runtime::mem_op(ThreadState& ts, OpKind k, const double* args, int n, const sf::Format& f,
                       bool truncated) {
  sf::BigFloat t[3];
  double s[3];
  double dev[3];
  ShadowEntry e;
  for (int i = 0; i < n; ++i) {
    // One locked read per boxed operand: the generation check and the entry
    // copy share a single shard-locked section. A stale handle (surviving
    // mem_clear) fails the check and is promoted below as a NaN *value*.
    if (boxing::is_boxed(args[i]) &&
        shadow_.snapshot_if_current(boxing::unbox_id(args[i]),
                                    boxing::unbox_generation(args[i]), e)) {
      t[i] = e.trunc;
      s[i] = e.shadow;
      dev[i] = deviation_of(t[i].to_double(), s[i]);
    } else {
      // Constant / unconverted operand: promote on the fly. Rounding error
      // introduced here belongs to *this* operation (it is the _raptor_pre_c
      // step), so it does not disqualify the result from being "fresh".
      t[i] = truncated ? sf::BigFloat::from_double_rounded(args[i], f)
                       : sf::BigFloat::from_double(args[i]);
      s[i] = args[i];
      dev[i] = 0.0;
    }
  }

  const sf::BigFloat* const cells[3] = {&t[0], &t[1], &t[2]};
  const sf::BigFloat tr = bf_op(k, cells, f);
  const double sr = native<double>(k, s);

  const double dev_r = deviation_of(tr.to_double(), sr);
  if (ThreadProfile* rp = region_prof(ts)) {
    if (dev_r > rp->max_deviation) rp->max_deviation = dev_r;
    if (dev_r > dev_threshold_) rp->flagged += 1;
  }
  if (dev_r > dev_threshold_) {
    bool fresh = true;
    for (int i = 0; i < n; ++i) fresh = fresh && dev[i] <= dev_threshold_;
    const char* label = ts.regions.empty() ? "<toplevel>" : ts.regions.back().label;
    record_flag(label, k, dev_r, fresh);
  }
  // Mem-mode events carry the result's deviation bucket; the caller's trace
  // hook skips NaN-boxed results, so this is the only capture point.
  if (trace_on_) {
    const double rv = tr.to_double();
    trace_event(ts, k, &rv, 1, truncated ? &f : nullptr, /*span=*/false, /*mem=*/true,
                trace::DevHistogram::bucket_of(dev_r));
  }
  // One locked write for the result: alloc_boxed stamps the generation under
  // the same shard lock as the allocation.
  return shadow_.alloc_boxed(tr, sr);
}

// Handles carry the table generation; after mem_clear() (which bumps it),
// straggling handles become stale: reads return NaN, retain/release are
// ignored. This keeps long-lived instrumented data structures safe across
// experiment resets. Every accessor below folds the generation check into
// its single shard-locked section (the *_if_current ShadowTable calls).

double Runtime::mem_make(double v, int width) {
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  const sf::BigFloat t =
      f ? sf::BigFloat::from_double_rounded(v, *f) : sf::BigFloat::from_double(v);
  return shadow_.alloc_boxed(t, v);
}

double Runtime::mem_value(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.trunc.to_double();
}

double Runtime::mem_shadow(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.shadow;
}

double Runtime::mem_deviation(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return 0.0;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return 0.0;
  }
  return deviation_of(e.trunc.to_double(), e.shadow);
}

double Runtime::mem_materialize(double maybe_boxed) {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.take_if_current(boxing::unbox_id(maybe_boxed),
                               boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.trunc.to_double();
}

void Runtime::mem_retain(double boxed) {
  if (boxing::is_boxed(boxed)) {
    shadow_.retain_if_current(boxing::unbox_id(boxed), boxing::unbox_generation(boxed));
  }
}

void Runtime::mem_release(double maybe_boxed) {
  if (boxing::is_boxed(maybe_boxed)) {
    shadow_.release_if_current(boxing::unbox_id(maybe_boxed),
                               boxing::unbox_generation(maybe_boxed));
  }
}

// ---------------------------------------------------------------------------
// Instrumented entry points
// ---------------------------------------------------------------------------

inline void Runtime::count(ThreadState& ts, OpKind k, bool trunc, u64 n) {
  if (!counting_) return;
  // Per-vector bulk-bump audit (DESIGN.md §13): a batch call bumps once for
  // the whole span, before its loop body runs, so however that body chops
  // the span into vectors and scalar tail, `ops counted == elements
  // processed` holds exactly for every lane width. Pinned by
  // test_simd_parity's CounterConservation suite.
  ts.counters.bump_ops(k, trunc, n);
  if (ThreadProfile* rp = region_prof(ts)) rp->counters.bump_ops(k, trunc, n);
}

// ---------------------------------------------------------------------------
// Trace capture (DESIGN.md §12)
// ---------------------------------------------------------------------------
//
// Called from the op entry points only while a session is active. The
// steady-state cost is the session check plus one countdown decrement; the
// sampled slow path interns the region label (cached until the next scope/
// region/config change), updates the thread's per-region histograms — per
// element for batch spans — and pushes one event into the thread's SPSC
// ring (never blocking: a full ring counts a drop).

void Runtime::trace_event(ThreadState& ts, OpKind k, const double* vals, std::size_t n,
                          const sf::Format* f, bool span, bool mem, u8 dev_bucket) {
  const u64 session = tracer_.session();
  if (ts.trace_session != session || ts.trace_buf == nullptr) {
    ts.trace_buf = tracer_.attach();
    ts.trace_session = session;
    ts.trace_countdown = tracer_.stride();
    ts.trace_slot_cached = false;
  }
  if (--ts.trace_countdown != 0) return;
  ts.trace_countdown = tracer_.stride();
  if (!ts.trace_slot_cached) {
    const char* label = ts.regions.empty() ? "<toplevel>" : ts.regions.back().label;
    ts.trace_slot = tracer_.intern(label);
    ts.trace_hist = &ts.trace_buf->hists[ts.trace_slot];
    ts.trace_slot_cached = true;
  }
  // Span-event audit (DESIGN.md §13): batch callers pass the whole result
  // span here AFTER the loop body ran, so SIMD vectorization inside the body
  // cannot change what is recorded — still exactly one event per sampled
  // span (ev.count = n) with one histogram update per element, independent
  // of lane width. Pinned by test_simd_parity's trace-conservation tests.
  trace::ExpHistogram& eh = ts.trace_hist->exp;
  i32 mn = std::numeric_limits<i32>::max();
  i32 mx = std::numeric_limits<i32>::min();
  for (std::size_t i = 0; i < n; ++i) {
    const i32 cls = trace::exp_class(vals[i]);
    eh.add_class(cls);
    mn = std::min(mn, cls);
    mx = std::max(mx, cls);
  }
  if (dev_bucket != trace::kDevNone) ts.trace_hist->dev.add_bucket(dev_bucket);

  trace::Event ev;
  ev.kind = static_cast<u8>(k);
  ev.flags = static_cast<u8>((f != nullptr ? trace::kFlagTruncated : 0u) |
                             (span ? trace::kFlagSpan : 0u) | (mem ? trace::kFlagMem : 0u));
  ev.region = static_cast<u16>(ts.trace_slot);
  if (f != nullptr) {
    ev.fmt_exp = static_cast<u8>(f->exp_bits);
    ev.fmt_man = static_cast<u8>(f->man_bits);
  }
  ev.dev_bucket = dev_bucket;
  ev.exp_min = static_cast<i16>(mn);
  ev.exp_max = static_cast<i16>(mx);
  ev.count = static_cast<u32>(n);
  ts.trace_buf->ring.try_push(ev);
}

template <int N>
double Runtime::op(OpKind k, const double (&x)[N], int width) {
  RAPTOR_REQUIRE(op_arity(k) == N, "op kind does not match its operand count");
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  count(ts, k, f != nullptr, 1);
  if (mode_ == Mode::Mem &&
      (f != nullptr || std::any_of(std::begin(x), std::end(x), boxing::is_boxed))) {
    // A NaN-boxed handle, traced with its deviation bucket inside mem_op.
    return mem_op(ts, k, x, N, f != nullptr ? *f : sf::Format::fp64(), f != nullptr);
  }
  double r;
  if (f == nullptr || (hw_fastpath_ && *f == sf::Format::fp64())) {
    r = native<double>(k, x);
  } else if (hw_fastpath_ && *f == sf::Format::fp32()) {
    r = native<float>(k, x);
  } else if (hw_fastpath_ && fast_ok(k, *f)) {
    // Narrower formats execute on fp64 hardware + fast_round, never through
    // fp32 hardware: widening through fp32 double-rounds for man_bits > 11
    // (DESIGN.md §8; pinned by DoubleRoundingWitness in test_runtime).
    r = fast(k, x, *f);
  } else {
    r = emulate<N>(ts, k, x, *f);
  }
  if (trace_on_ && !boxing::is_boxed(r)) {
    trace_event(ts, k, &r, 1, f, /*span=*/false, /*mem=*/false, trace::kDevNone);
  }
  return r;
}

double Runtime::op1(OpKind k, double a, int width) { return op<1>(k, {a}, width); }

double Runtime::op2(OpKind k, double a, double b, int width) { return op<2>(k, {a, b}, width); }

double Runtime::op3(OpKind k, double a, double b, double c, int width) {
  return op<3>(k, {a, b, c}, width);
}

// ---------------------------------------------------------------------------
// Batched op-mode dispatch (DESIGN.md §8)
// ---------------------------------------------------------------------------
//
// Resolve the thread state, mode and effective format once, bump the
// counters with a single bulk add, then stream one of three loop bodies over
// the span: the fast_round kernels (every format with exp_bits <= 11; fma:
// exp_bits <= 9, man_bits <= 24) unless the hardware types apply, a native
// loop in double (no truncation, or fp64 under hw_fastpath) or float (fp32
// under hw_fastpath), or per-element BigFloat emulation.
// Every body is bit-identical to the scalar op loop it replaces; mem-mode
// delegates to the scalar entry point so handle ownership is unchanged.

template <int N>
const sf::Format* Runtime::lanes(OpKind k, const BatchArg* const (&x)[N], double* out,
                                 std::size_t n, int width) {
  RAPTOR_REQUIRE(op_arity(k) == N, "op kind does not match its operand count");
  if (n == 0) return nullptr;
  if (mode_ == Mode::Mem) {
    // The scalar entry point keeps handle ownership semantics and traces
    // each element (with its deviation bucket) itself.
    for (std::size_t i = 0; i < n; ++i) {
      double v[N];
      for (int j = 0; j < N; ++j) v[j] = x[j]->lanes != nullptr ? x[j]->lanes[i] : x[j]->value;
      out[i] = op<N>(k, v, width);
    }
    return nullptr;
  }
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  count(ts, k, f != nullptr, n);
  const bool hw = f != nullptr && hw_fastpath_ &&
                  (*f == sf::Format::fp64() || *f == sf::Format::fp32());
  const bool fast = f != nullptr && !hw && fast_ok(k, *f);
  const double* p[3] = {};
  if (fast) {
    const sf::RoundSpec spec(*f);  // hoisted format constants for the hot loop
    unsigned exact = 0;
    for (int j = 0; j < N; ++j) {
      // A broadcast is rounded once, not once per lane, and then is exact.
      const BatchArg& arg = *x[j];
      p[j] = arg.lanes != nullptr ? arg.lanes
                                  : spread(sf::fast_round(arg.value, spec), n, ts.spread[j]);
      if (arg.lanes == nullptr || (arg.exact != nullptr && *arg.exact == *f)) exact |= 1U << j;
    }
    sf::simd::span_exec(simd_path_, span_op(k), p[0], p[1], p[2], out, n, spec, exact);
  } else {
    for (int j = 0; j < N; ++j) {
      p[j] = x[j]->lanes != nullptr ? x[j]->lanes : spread(x[j]->value, n, ts.spread[j]);
    }
    if (f == nullptr || (hw && *f == sf::Format::fp64())) {
      native_lanes<double, N>(k, p, out, n);
    } else if (hw) {
      native_lanes<float, N>(k, p, out, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        double v[N];
        for (int j = 0; j < N; ++j) v[j] = p[j][i];
        out[i] = emulate<N>(ts, k, v, *f);
      }
    }
  }
  // One sampling-countdown decrement per span; a sampled span records one
  // event plus per-element exponent histogram updates.
  if (trace_on_) trace_event(ts, k, out, n, f, /*span=*/true, /*mem=*/false, trace::kDevNone);
  return fast ? f : nullptr;
}

const sf::Format* Runtime::op1_lanes(OpKind k, const double* a, double* out, std::size_t n,
                                     int width, const sf::Format* exact_a) {
  const BatchArg arg{a, 0.0, exact_a};
  return lanes<1>(k, {&arg}, out, n, width);
}

const sf::Format* Runtime::op2_lanes(OpKind k, const BatchArg& a, const BatchArg& b,
                                     double* out, std::size_t n, int width) {
  return lanes<2>(k, {&a, &b}, out, n, width);
}

void Runtime::op3_batch(OpKind k, const double* a, const double* b, const double* c, double* out,
                        std::size_t n, int width) {
  const BatchArg args[3] = {{a}, {b}, {c}};
  lanes<3>(k, {&args[0], &args[1], &args[2]}, out, n, width);
}

void Runtime::trunc_array(const double* in, double* out, std::size_t n, int width) {
  if (n == 0) return;
  ThreadState& ts = tls();
  if (mode_ == Mode::Mem) {
    // Array form of the _raptor_pre_c protocol: each element becomes a
    // NaN-boxed mem-mode value (the caller owns the handles, exactly as for
    // scalar mem_make); quantizing a boxed handle's bit pattern would
    // destroy it.
    for (std::size_t i = 0; i < n; ++i) out[i] = mem_make(in[i], width);
    return;
  }
  const sf::Format* f = effective_format(ts, width);
  if (f == nullptr) {
    if (out != in) std::copy(in, in + n, out);
    return;
  }
  if (sf::fast_round_supports(*f)) {
    const sf::RoundSpec fmt(*f);
    sf::simd::span_exec(simd_path_, sf::simd::SpanOp::Round, in, nullptr, nullptr, out, n, fmt);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = sf::quantize(in[i], *f);
}

void Runtime::count_mem(u64 bytes) {
  if (!counting_) return;
  ThreadState& ts = tls();
  const bool trunc = effective_format(ts, 64) != nullptr;
  ThreadProfile* rp = region_prof(ts);
  if (trunc) {
    ts.counters.trunc_bytes += bytes;
    if (rp != nullptr) rp->counters.trunc_bytes += bytes;
  } else {
    ts.counters.full_bytes += bytes;
    if (rp != nullptr) rp->counters.full_bytes += bytes;
  }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

void Runtime::record_flag(const char* location, OpKind k, double deviation, bool fresh) {
  std::lock_guard lock(flags_mu_);
  for (auto& f : flags_) {
    if (f.op == k && f.location == location) {
      ++f.flagged;
      if (fresh) ++f.fresh;
      f.max_deviation = std::max(f.max_deviation, deviation);
      return;
    }
  }
  FlagRecord rec;
  rec.location = location;
  rec.op = k;
  rec.flagged = 1;
  rec.fresh = fresh ? 1 : 0;
  rec.max_deviation = deviation;
  flags_.push_back(std::move(rec));
}

CounterSnapshot Runtime::counters() const {
  std::lock_guard lock(threads_mu_);
  CounterSnapshot out = retired_;
  for (const ThreadState* ts : threads_) out.merge(ts->counters);
  return out;
}

void Runtime::reset_counters() {
  std::lock_guard lock(threads_mu_);
  retired_ = CounterSnapshot{};
  for (ThreadState* ts : threads_) ts->counters.clear();
}

std::vector<FlagRecord> Runtime::flag_report() const {
  std::lock_guard lock(flags_mu_);
  std::vector<FlagRecord> out = flags_;
  std::sort(out.begin(), out.end(), [](const FlagRecord& a, const FlagRecord& b) {
    if (a.fresh != b.fresh) return a.fresh > b.fresh;
    return a.flagged > b.flagged;
  });
  return out;
}

void Runtime::reset_flags() {
  std::lock_guard lock(flags_mu_);
  flags_.clear();
}

void Runtime::trace_start(const trace::TraceOptions& opts) {
  tracer_.start(opts);
  trace_on_ = true;
}

trace::TraceStats Runtime::trace_stop() {
  trace_on_ = false;
  // Carry the per-region wall-clock totals into the capture as 'T' blocks,
  // so offline analysis ranks by time without needing the profile dump next
  // to the trace.
  std::vector<std::pair<std::string, double>> times;
  if (region_profiling_) {
    for (const RegionProfileEntry& e : region_profiles()) {
      if (e.profile.seconds > 0.0) times.emplace_back(e.label, e.profile.seconds);
    }
  }
  return tracer_.stop(times);
}

void Runtime::reset_all() {
  if (trace_on_) trace_stop();
  tracer_.reset();
  clear_truncate_all();
  clear_exclusions();
  clear_region_formats();
  set_region_profiling(false);
  reset_counters();
  reset_region_profiles();
  reset_flags();
  mem_clear();
  set_mode(Mode::Op);
  set_alloc_strategy(AllocStrategy::Scratch);
  set_hw_fastpath(false);
  set_counting(true);
  set_deviation_threshold(1e-4);
  // Restore the startup default (CPUID or RAPTOR_SIMD), not Portable: the
  // CI forced-portable pass pins the path for a whole test binary via the
  // environment and must survive per-test reset_all() calls.
  force_simd_path(std::nullopt);
}

}  // namespace raptor::rt
