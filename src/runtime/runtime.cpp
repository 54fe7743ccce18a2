#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>

#include "softfloat/fast_round.hpp"

namespace raptor::rt {

namespace {

/// Emulation cell: stands in for an MPFR variable. Naive allocation strategy
/// news/deletes these per operation (the cost profile of mpfr_init2 /
/// mpfr_clear in Fig. 5a); scratch mode reuses a thread-local pad (Fig. 4b).
struct EmuCell {
  sf::BigFloat v;
};

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
  EmuCell scratch[4];
  /// Lanes of the broadcast operands of a batch call (one per position).
  std::vector<double> spread[2];
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
// Native execution paths
// ---------------------------------------------------------------------------

double Runtime::native1(OpKind k, double a) const {
  switch (k) {
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
    default: RAPTOR_REQUIRE(false, "bad unary op"); return 0;
  }
}

double Runtime::native2(OpKind k, double a, double b) const {
  switch (k) {
    case OpKind::Add: return a + b;
    case OpKind::Sub: return a - b;
    case OpKind::Mul: return a * b;
    case OpKind::Div: return a / b;
    case OpKind::Pow: return std::pow(a, b);
    case OpKind::Atan2: return std::atan2(a, b);
    default: RAPTOR_REQUIRE(false, "bad binary op"); return 0;
  }
}

double Runtime::native1_f32(OpKind k, double a) const {
  const float x = static_cast<float>(a);
  switch (k) {
    case OpKind::Neg: return -x;
    case OpKind::Sqrt: return std::sqrt(x);
    case OpKind::Exp: return std::exp(x);
    case OpKind::Log: return std::log(x);
    case OpKind::Log2: return std::log2(x);
    case OpKind::Log10: return std::log10(x);
    case OpKind::Sin: return std::sin(x);
    case OpKind::Cos: return std::cos(x);
    case OpKind::Tan: return std::tan(x);
    case OpKind::Atan: return std::atan(x);
    case OpKind::Tanh: return std::tanh(x);
    case OpKind::Cbrt: return std::cbrt(x);
    default: RAPTOR_REQUIRE(false, "bad unary op"); return 0;
  }
}

double Runtime::native2_f32(OpKind k, double a, double b) const {
  const float x = static_cast<float>(a);
  const float y = static_cast<float>(b);
  switch (k) {
    case OpKind::Add: return x + y;
    case OpKind::Sub: return x - y;
    case OpKind::Mul: return x * y;
    case OpKind::Div: return x / y;
    case OpKind::Pow: return std::pow(x, y);
    case OpKind::Atan2: return std::atan2(x, y);
    default: RAPTOR_REQUIRE(false, "bad binary op"); return 0;
  }
}

// ---------------------------------------------------------------------------
// Emulated execution (op-mode, Fig. 5a semantics)
// ---------------------------------------------------------------------------

namespace {

sf::BigFloat bf_op1(OpKind k, const sf::BigFloat& a, const sf::Format& f) {
  switch (k) {
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
    default: RAPTOR_REQUIRE(false, "bad unary op"); return {};
  }
}

sf::BigFloat bf_op2(OpKind k, const sf::BigFloat& a, const sf::BigFloat& b, const sf::Format& f) {
  switch (k) {
    case OpKind::Add: return sf::BigFloat::add(a, b, f);
    case OpKind::Sub: return sf::BigFloat::sub(a, b, f);
    case OpKind::Mul: return sf::BigFloat::mul(a, b, f);
    case OpKind::Div: return sf::BigFloat::div(a, b, f);
    case OpKind::Pow: return sf::bf_pow(a, b, f);
    case OpKind::Atan2: return sf::bf_atan2(a, b, f);
    default: RAPTOR_REQUIRE(false, "bad binary op"); return {};
  }
}

double native3(OpKind k, double a, double b, double c) {
  RAPTOR_REQUIRE(k == OpKind::Fma, "bad ternary op");
  return std::fma(a, b, c);
}

double native3_f32(OpKind k, double a, double b, double c) {
  RAPTOR_REQUIRE(k == OpKind::Fma, "bad ternary op");
  // Single-rounding fp32 FMA, matching the BigFloat fused semantics.
  return std::fmaf(static_cast<float>(a), static_cast<float>(b), static_cast<float>(c));
}

}  // namespace

double Runtime::emulate1(ThreadState& ts, OpKind k, double a, const sf::Format& f) {
  const auto compute = [&](EmuCell& ma, EmuCell& mc) {
    ma.v = sf::BigFloat::from_double_rounded(a, f);  // mpfr_set
    mc.v = bf_op1(k, ma.v, f);
    return mc.v.to_double();  // mpfr_get
  };
  if (alloc_ == AllocStrategy::Naive) {
    auto* ma = new EmuCell;  // mpfr_init2 per op
    auto* mc = new EmuCell;
    const double r = compute(*ma, *mc);
    delete ma;  // mpfr_clear per op
    delete mc;
    return r;
  }
  return compute(ts.scratch[0], ts.scratch[2]);
}

double Runtime::emulate2(ThreadState& ts, OpKind k, double a, double b, const sf::Format& f) {
  const auto compute = [&](EmuCell& ma, EmuCell& mb, EmuCell& mc) {
    ma.v = sf::BigFloat::from_double_rounded(a, f);
    mb.v = sf::BigFloat::from_double_rounded(b, f);
    mc.v = bf_op2(k, ma.v, mb.v, f);
    return mc.v.to_double();
  };
  if (alloc_ == AllocStrategy::Naive) {
    auto* ma = new EmuCell;
    auto* mb = new EmuCell;
    auto* mc = new EmuCell;
    const double r = compute(*ma, *mb, *mc);
    delete ma;
    delete mb;
    delete mc;
    return r;
  }
  return compute(ts.scratch[0], ts.scratch[1], ts.scratch[2]);
}

double Runtime::emulate3(ThreadState& ts, OpKind k, double a, double b, double c,
                         const sf::Format& f) {
  RAPTOR_REQUIRE(k == OpKind::Fma, "bad ternary op");
  const auto compute = [&](EmuCell& ma, EmuCell& mb, EmuCell& mc, EmuCell& md) {
    ma.v = sf::BigFloat::from_double_rounded(a, f);
    mb.v = sf::BigFloat::from_double_rounded(b, f);
    mc.v = sf::BigFloat::from_double_rounded(c, f);
    md.v = sf::BigFloat::fma(ma.v, mb.v, mc.v, f);
    return md.v.to_double();
  };
  if (alloc_ == AllocStrategy::Naive) {
    auto* ma = new EmuCell;
    auto* mb = new EmuCell;
    auto* mc = new EmuCell;
    auto* md = new EmuCell;
    const double r = compute(*ma, *mb, *mc, *md);
    delete ma;
    delete mb;
    delete mc;
    delete md;
    return r;
  }
  return compute(ts.scratch[0], ts.scratch[1], ts.scratch[2], ts.scratch[3]);
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

  sf::BigFloat tr;
  double sr;
  switch (n) {
    case 1:
      tr = bf_op1(k, t[0], f);
      sr = native1(k, s[0]);
      break;
    case 2:
      tr = bf_op2(k, t[0], t[1], f);
      sr = native2(k, s[0], s[1]);
      break;
    default:
      tr = sf::BigFloat::fma(t[0], t[1], t[2], f);
      sr = native3(k, s[0], s[1], s[2]);
      break;
  }

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

void Runtime::count_scalar(ThreadState& ts, OpKind k, bool trunc) {
  if (!counting_) return;
  ts.counters.bump_ops(k, trunc, 1);
  if (ThreadProfile* rp = region_prof(ts)) rp->counters.bump_ops(k, trunc, 1);
}

void Runtime::count_batch(ThreadState& ts, OpKind k, bool trunc, u64 n) {
  if (!counting_) return;
  // Per-vector bulk-bump audit (DESIGN.md §13): bump_ops takes the element
  // count directly, so one call here accounts the whole span regardless of
  // how the loop body chops it into vectors and scalar tail — `ops counted
  // == elements processed` holds exactly for every lane width. Pinned by
  // test_simd_parity's CounterConservation suite.
  ts.counters.bump_ops(k, trunc, n);
  if (ThreadProfile* rp = region_prof(ts)) rp->counters.bump_ops(k, trunc, n);
}

namespace {
/// Fast-kernel eligibility per arity (see fast_round.hpp): arithmetic kinds
/// whose one-hardware-op-plus-fast_round execution is bit-identical to the
/// BigFloat reference inside the format envelope.
inline bool fast1_kind(OpKind k) { return k == OpKind::Neg || k == OpKind::Sqrt; }
inline bool fast2_kind(OpKind k) {
  return k == OpKind::Add || k == OpKind::Sub || k == OpKind::Mul || k == OpKind::Div;
}

inline double fast1(OpKind k, double a, const sf::Format& f) {
  return k == OpKind::Neg ? sf::fast_neg(a, f) : sf::fast_sqrt(a, f);
}

inline double fast2(OpKind k, double a, double b, const sf::Format& f) {
  switch (k) {
    case OpKind::Add: return sf::fast_add(a, b, f);
    case OpKind::Sub: return sf::fast_sub(a, b, f);
    case OpKind::Mul: return sf::fast_mul(a, b, f);
    default: return sf::fast_div(a, b, f);
  }
}

/// `v` in n lanes of `buf` (a broadcast batch operand).
const double* spread(double v, std::size_t n, std::vector<double>& buf) {
  if (buf.size() < n) buf.resize(n);
  std::fill_n(buf.data(), n, v);
  return buf.data();
}

inline sf::simd::SpanOp span2_op(OpKind k) {
  switch (k) {
    case OpKind::Add: return sf::simd::SpanOp::Add;
    case OpKind::Sub: return sf::simd::SpanOp::Sub;
    case OpKind::Mul: return sf::simd::SpanOp::Mul;
    default: return sf::simd::SpanOp::Div;
  }
}
}  // namespace

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

double Runtime::op1(OpKind k, double a, int width) {
  ThreadState& ts = tls();
  const double r = op1_dispatch(ts, k, a, width);
  // Mem-mode results are NaN-boxed handles and were already traced (with
  // their deviation bucket) inside mem_op; everything else is traced here,
  // re-reading the effective format from the (hot) thread-local cache.
  if (trace_on_ && !boxing::is_boxed(r)) {
    trace_event(ts, k, &r, 1, effective_format(ts, width), false, false, trace::kDevNone);
  }
  return r;
}

double Runtime::op2(OpKind k, double a, double b, int width) {
  ThreadState& ts = tls();
  const double r = op2_dispatch(ts, k, a, b, width);
  if (trace_on_ && !boxing::is_boxed(r)) {
    trace_event(ts, k, &r, 1, effective_format(ts, width), false, false, trace::kDevNone);
  }
  return r;
}

double Runtime::op3(OpKind k, double a, double b, double c, int width) {
  ThreadState& ts = tls();
  const double r = op3_dispatch(ts, k, a, b, c, width);
  if (trace_on_ && !boxing::is_boxed(r)) {
    trace_event(ts, k, &r, 1, effective_format(ts, width), false, false, trace::kDevNone);
  }
  return r;
}

double Runtime::op1_dispatch(ThreadState& ts, OpKind k, double a, int width) {
  const sf::Format* f = effective_format(ts, width);
  if (f == nullptr) {
    if (mode_ == Mode::Mem && boxing::is_boxed(a)) {
      count_scalar(ts, k, false);
      return mem_op(ts, k, &a, 1, sf::Format::fp64(), /*truncated=*/false);
    }
    count_scalar(ts, k, false);
    return native1(k, a);
  }
  count_scalar(ts, k, true);
  if (mode_ == Mode::Mem) return mem_op(ts, k, &a, 1, *f, true);
  if (hw_fastpath_) {
    if (*f == sf::Format::fp64()) return native1(k, a);
    if (*f == sf::Format::fp32()) return native1_f32(k, a);
    // Narrower formats execute on fp64 hardware + fast_round, never through
    // fp32 hardware: widening through fp32 double-rounds for man_bits > 11
    // (DESIGN.md §8; pinned by DoubleRoundingWitness in test_runtime).
    if (fast1_kind(k) && sf::fast_round_supports(*f)) return fast1(k, a, *f);
  }
  return emulate1(ts, k, a, *f);
}

double Runtime::op2_dispatch(ThreadState& ts, OpKind k, double a, double b, int width) {
  const sf::Format* f = effective_format(ts, width);
  if (f == nullptr) {
    if (mode_ == Mode::Mem && (boxing::is_boxed(a) || boxing::is_boxed(b))) {
      count_scalar(ts, k, false);
      const double args[2] = {a, b};
      return mem_op(ts, k, args, 2, sf::Format::fp64(), /*truncated=*/false);
    }
    count_scalar(ts, k, false);
    return native2(k, a, b);
  }
  count_scalar(ts, k, true);
  if (mode_ == Mode::Mem) {
    const double args[2] = {a, b};
    return mem_op(ts, k, args, 2, *f, true);
  }
  if (hw_fastpath_) {
    if (*f == sf::Format::fp64()) return native2(k, a, b);
    if (*f == sf::Format::fp32()) return native2_f32(k, a, b);
    if (fast2_kind(k) && sf::fast_round_supports(*f)) return fast2(k, a, b, *f);
  }
  return emulate2(ts, k, a, b, *f);
}

double Runtime::op3_dispatch(ThreadState& ts, OpKind k, double a, double b, double c, int width) {
  const sf::Format* f = effective_format(ts, width);
  if (f == nullptr) {
    if (mode_ == Mode::Mem &&
        (boxing::is_boxed(a) || boxing::is_boxed(b) || boxing::is_boxed(c))) {
      count_scalar(ts, k, false);
      const double args[3] = {a, b, c};
      return mem_op(ts, k, args, 3, sf::Format::fp64(), /*truncated=*/false);
    }
    count_scalar(ts, k, false);
    return native3(k, a, b, c);
  }
  count_scalar(ts, k, true);
  if (mode_ == Mode::Mem) {
    const double args[3] = {a, b, c};
    return mem_op(ts, k, args, 3, *f, true);
  }
  if (hw_fastpath_) {
    if (*f == sf::Format::fp64()) return native3(k, a, b, c);
    if (*f == sf::Format::fp32()) return native3_f32(k, a, b, c);
    if (sf::fast_fma_supports(*f)) return sf::fast_fma(a, b, c, *f);
  }
  return emulate3(ts, k, a, b, c, *f);
}

// ---------------------------------------------------------------------------
// Batched op-mode dispatch (DESIGN.md §8)
// ---------------------------------------------------------------------------
//
// Shared structure: resolve the thread state, mode and effective format once,
// bump the counters with a single bulk add, then stream one of four loop
// bodies over the span — native (no truncation), hardware (fp64/fp32 under
// the fast-path flag), the fast_round kernels (every format with
// exp_bits <= 11; fma: exp_bits <= 9, man_bits <= 24), or per-element
// BigFloat emulation.
// Every body is bit-identical to the scalar op loop it replaces; mem-mode
// delegates to the scalar entry points so handle ownership is unchanged.

const sf::Format* Runtime::op1_lanes(OpKind k, const double* a, double* out, std::size_t n,
                                     int width, const sf::Format* exact_a) {
  if (n == 0) return nullptr;
  ThreadState& ts = tls();
  if (mode_ == Mode::Mem) {
    // Scalar entry points keep handle ownership semantics and trace each
    // element (with deviation buckets) themselves.
    for (std::size_t i = 0; i < n; ++i) out[i] = op1(k, a[i], width);
    return nullptr;
  }
  const sf::Format* f = effective_format(ts, width);
  const bool exact = op1_batch_op(ts, k, a, out, n, f, exact_a);
  // One sampling-countdown decrement per span; a sampled span records one
  // event plus per-element exponent histogram updates.
  if (trace_on_) trace_event(ts, k, out, n, f, /*span=*/true, false, trace::kDevNone);
  return exact ? f : nullptr;
}

bool Runtime::op1_batch_op(ThreadState& ts, OpKind k, const double* a, double* out,
                           std::size_t n, const sf::Format* f, const sf::Format* exact_a) {
  if (f == nullptr) {
    count_batch(ts, k, false, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = native1(k, a[i]);
    return false;
  }
  count_batch(ts, k, true, n);
  if (hw_fastpath_ && *f == sf::Format::fp64()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native1(k, a[i]);
    return false;
  }
  if (hw_fastpath_ && *f == sf::Format::fp32()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native1_f32(k, a[i]);
    return false;
  }
  if (fast1_kind(k) && sf::fast_round_supports(*f)) {
    const sf::RoundSpec fmt(*f);
    sf::simd::span_exec(simd_path_,
                        k == OpKind::Neg ? sf::simd::SpanOp::Neg : sf::simd::SpanOp::Sqrt, a,
                        nullptr, nullptr, out, n, fmt,
                        exact_a != nullptr && *exact_a == *f ? 1U : 0U);
    return true;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = emulate1(ts, k, a[i], *f);
  return false;
}

const sf::Format* Runtime::op2_lanes(OpKind k, const BatchArg& a, const BatchArg& b,
                                     double* out, std::size_t n, int width) {
  if (n == 0) return nullptr;
  ThreadState& ts = tls();
  if (mode_ == Mode::Mem) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = op2(k, a.lanes != nullptr ? a.lanes[i] : a.value,
                   b.lanes != nullptr ? b.lanes[i] : b.value, width);
    }
    return nullptr;
  }
  const sf::Format* f = effective_format(ts, width);
  const bool exact = op2_batch_op(ts, k, a, b, out, n, f);
  if (trace_on_) trace_event(ts, k, out, n, f, /*span=*/true, false, trace::kDevNone);
  return exact ? f : nullptr;
}

bool Runtime::op2_batch_op(ThreadState& ts, OpKind k, const BatchArg& a, const BatchArg& b,
                           double* out, std::size_t n, const sf::Format* f) {
  const bool hw = f != nullptr && hw_fastpath_ &&
                  (*f == sf::Format::fp64() || *f == sf::Format::fp32());
  if (f != nullptr && !hw && fast2_kind(k) && sf::fast_round_supports(*f)) {
    count_batch(ts, k, true, n);
    const sf::RoundSpec fmt(*f);  // hoisted format constants for the hot loop
    // A broadcast is rounded once, not once per lane, and then is exact.
    const auto exact = [&](const BatchArg& x) {
      return x.lanes == nullptr || (x.exact != nullptr && *x.exact == *f);
    };
    const double* pa =
        a.lanes != nullptr ? a.lanes : spread(sf::fast_round(a.value, fmt), n, ts.spread[0]);
    const double* pb =
        b.lanes != nullptr ? b.lanes : spread(sf::fast_round(b.value, fmt), n, ts.spread[1]);
    sf::simd::span_exec(simd_path_, span2_op(k), pa, pb, nullptr, out, n, fmt,
                        (exact(a) ? 1U : 0U) | (exact(b) ? 2U : 0U));
    return true;
  }
  const double* pa = a.lanes != nullptr ? a.lanes : spread(a.value, n, ts.spread[0]);
  const double* pb = b.lanes != nullptr ? b.lanes : spread(b.value, n, ts.spread[1]);
  if (f == nullptr) {
    count_batch(ts, k, false, n);
    switch (k) {
      case OpKind::Add:
        for (std::size_t i = 0; i < n; ++i) out[i] = pa[i] + pb[i];
        break;
      case OpKind::Sub:
        for (std::size_t i = 0; i < n; ++i) out[i] = pa[i] - pb[i];
        break;
      case OpKind::Mul:
        for (std::size_t i = 0; i < n; ++i) out[i] = pa[i] * pb[i];
        break;
      case OpKind::Div:
        for (std::size_t i = 0; i < n; ++i) out[i] = pa[i] / pb[i];
        break;
      default:
        for (std::size_t i = 0; i < n; ++i) out[i] = native2(k, pa[i], pb[i]);
        break;
    }
    return false;
  }
  count_batch(ts, k, true, n);
  if (hw_fastpath_ && *f == sf::Format::fp64()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native2(k, pa[i], pb[i]);
  } else if (hw_fastpath_ && *f == sf::Format::fp32()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native2_f32(k, pa[i], pb[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = emulate2(ts, k, pa[i], pb[i], *f);
  }
  return false;
}

void Runtime::op3_batch(OpKind k, const double* a, const double* b, const double* c, double* out,
                        std::size_t n, int width) {
  if (n == 0) return;
  ThreadState& ts = tls();
  if (mode_ == Mode::Mem) {
    for (std::size_t i = 0; i < n; ++i) out[i] = op3(k, a[i], b[i], c[i], width);
    return;
  }
  const sf::Format* f = effective_format(ts, width);
  op3_batch_op(ts, k, a, b, c, out, n, f);
  if (trace_on_) trace_event(ts, k, out, n, f, /*span=*/true, false, trace::kDevNone);
}

void Runtime::op3_batch_op(ThreadState& ts, OpKind k, const double* a, const double* b,
                           const double* c, double* out, std::size_t n, const sf::Format* f) {
  if (f == nullptr) {
    count_batch(ts, k, false, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = native3(k, a[i], b[i], c[i]);
    return;
  }
  count_batch(ts, k, true, n);
  if (hw_fastpath_ && *f == sf::Format::fp64()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native3(k, a[i], b[i], c[i]);
    return;
  }
  if (hw_fastpath_ && *f == sf::Format::fp32()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = native3_f32(k, a[i], b[i], c[i]);
    return;
  }
  if (sf::fast_fma_supports(*f)) {
    const sf::RoundSpec fmt(*f);
    sf::simd::span_exec(simd_path_, sf::simd::SpanOp::Fma, a, b, c, out, n, fmt);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = emulate3(ts, k, a[i], b[i], c[i], *f);
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
