// The RAPTOR runtime (paper §3.4-§3.5): executes floating-point operations
// in the instructed precision and collects profiling data.
//
// Responsibilities:
//  * op-mode: round operands into the target format, execute the operation
//    correctly rounded in that format, widen back (Fig. 5a) — either via the
//    BigFloat emulator or a native "hardware" fast path when the target is a
//    machine format;
//  * mem-mode: values remain in their target-format representation between
//    operations, with an FP64 shadow tracking the never-truncated reference;
//    deviations beyond a threshold are flagged and grouped per code location
//    into a heatmap (Fig. 5b, §6.3);
//  * counters for truncated/full FP operations and memory traffic (§3.4);
//  * dynamic scoping: a thread-local stack of truncation scopes (function /
//    file / program level; the AMR experiments toggle a scope per block) and
//    a thread-local stack of named regions supporting dynamic exclusion
//    (Table 2's "excluded modules");
//  * the naive-vs-scratch allocation ablation (Fig. 4b): naive mode heap-
//    allocates the three intermediate emulation cells per operation (the
//    cost profile of mpfr_init2/mpfr_clear); scratch mode reuses a
//    thread-local pad.
//
// Thread model (DESIGN.md §7): every mutating per-op structure is
// thread-local; the per-thread counters and region rows are single-writer
// atomic cells, which the aggregate views read under the thread-list lock
// while their owners keep counting. op-mode is safe under
// OpenMP. mem-mode is also OpenMP-safe: the shadow table is sharded into
// lock-striped segments (shadow_table.hpp), the table generation is an
// atomic read, and each mem-mode operation takes exactly one locked section
// per boxed operand plus one for the result. Each thread additionally
// caches its resolved truncation state (effective format per width), so op
// dispatch does not re-walk the scope/region stacks per operation; the
// cache is invalidated on scope/region push/pop and on global config
// changes via an epoch counter.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/counters.hpp"
#include "runtime/shadow_table.hpp"
#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "trace/tracer.hpp"

namespace raptor::rt {

enum class Mode { Op, Mem };
enum class AllocStrategy { Naive, Scratch };

class Runtime {
 public:
  /// Process-wide instance (leaked singleton: safe at any shutdown order).
  static Runtime& instance();

  // -- Configuration (set while no instrumented code is executing) -------

  void set_mode(Mode m) { mode_ = m; }
  [[nodiscard]] Mode mode() const { return mode_; }
  void set_alloc_strategy(AllocStrategy s) { alloc_ = s; }
  [[nodiscard]] AllocStrategy alloc_strategy() const { return alloc_; }
  /// Execute natively when the target format is a machine format
  /// (fp64/fp32): the paper's "hardware types" path with ~zero overhead.
  void set_hw_fastpath(bool on) { hw_fastpath_ = on; }
  [[nodiscard]] bool hw_fastpath() const { return hw_fastpath_; }
  /// Toggle operation counting (counting itself costs time; Table 3
  /// measures both settings).
  void set_counting(bool on) { counting_ = on; }
  [[nodiscard]] bool counting() const { return counting_; }
  /// Mem-mode deviation threshold (relative to the FP64 shadow).
  void set_deviation_threshold(double t) { dev_threshold_ = t; }
  [[nodiscard]] double deviation_threshold() const { return dev_threshold_; }

  // -- SIMD kernel dispatch (DESIGN.md §13) -------------------------------
  //
  // The batch entry points' fast sections run on sf::simd::span_exec; the
  // path is resolved once at startup (CPUID, overridable via RAPTOR_SIMD)
  // and held here so tests and benchmarks can pin any path. Every path is
  // bit-identical (test_simd_parity), so forcing affects speed only.

  /// The SIMD kernel path batch fast sections currently execute on.
  [[nodiscard]] sf::simd::Path simd_path() const { return simd_path_; }
  /// Force a specific path, or restore the startup default with nullopt.
  /// Forcing a path this binary/CPU cannot execute falls back to the
  /// default instead of faulting. Configuration quiescence contract.
  void force_simd_path(std::optional<sf::simd::Path> p) {
    simd_path_ = sf::simd::resolve_path(p);
  }

  /// Program-scope truncation (the --raptor-truncate-all flag).
  void set_truncate_all(const TruncationSpec& spec);
  void clear_truncate_all();
  [[nodiscard]] std::optional<TruncationSpec> truncate_all() const;

  // -- Region exclusion (Table 2 workflow) --------------------------------

  void exclude_region(const std::string& label);
  void clear_exclusions();
  [[nodiscard]] bool is_excluded(const std::string& label) const;

  // -- Per-region format overrides (the precision-search output) ----------
  //
  // A region override binds a truncation spec to a region label: while that
  // region (or a region nested under it) is innermost, operations execute in
  // the override's format. Overrides are the positive counterpart of
  // exclusion and share its resolution point (region entry) and inheritance
  // rule; precedence is exclusion > region override > scope > global.
  // apply_profile() installs one per `region` directive.

  void set_region_format(const std::string& label, const TruncationSpec& spec);
  void clear_region_formats();
  [[nodiscard]] std::optional<TruncationSpec> region_format(const std::string& label) const;

  // -- Per-region profile aggregation (DESIGN.md §10) ---------------------
  //
  // When enabled, every counted operation also accrues to the profile of
  // the innermost region on its thread ("<toplevel>" outside any region),
  // and mem-mode deviations feed the region's max_deviation. Collection is
  // thread-local with a cached slot pointer (resolved on region entry, so
  // steady-state cost is one pointer bump per op) and merged on read, like
  // counters(). Off by default: Table-3 overhead numbers stay comparable.
  //
  // region_profiles(), like counters(), is safe at any time: a thread's
  // rows are single-writer cells, and it inserts a new region label under
  // the lock the reader holds. Each row a reader sees is whole and never
  // behind an earlier read. set_region_profiling() and
  // reset_region_profiles() keep the configuration quiescence contract:
  // call them while no instrumented code is executing.

  void set_region_profiling(bool on);
  [[nodiscard]] bool region_profiling() const { return region_profiling_; }
  /// Merged per-region profiles, sorted by truncated+full flops descending.
  [[nodiscard]] std::vector<RegionProfileEntry> region_profiles() const;
  void reset_region_profiles();

  // -- Numerical event tracing (DESIGN.md §12) ----------------------------
  //
  // When a trace session is active, every instrumented operation decrements
  // a per-thread sampling countdown; every sample_stride-th op (or batch
  // span) emits one event — op kind, region, target format, result exponent
  // class, mem-mode deviation bucket — into the thread's SPSC ring and
  // updates the thread's per-region exponent/deviation histograms (batch
  // spans update the exponent histogram per element). A background drainer
  // streams rings into the `.rtrace` file; a full ring drops events (with
  // accounting) rather than ever blocking the producer. With
  // TraceOptions::segment_bytes set, the drainer rotates the output across
  // `segment_path(path, n)` segments (optionally compacting closed ones) so
  // sustained captures stay bounded on disk; the drainer flushes after each
  // cycle, so `raptor_trace --follow` can tail a live session, and
  // multi-shard runs merge offline via `trace::merge_traces` keyed by
  // region label.
  //
  // trace_start/trace_stop/trace_histograms share the configuration
  // quiescence contract: call them while no instrumented code is executing.
  // Off-session cost is one predicted branch per op.

  void trace_start(const trace::TraceOptions& opts);
  trace::TraceStats trace_stop();
  [[nodiscard]] bool trace_active() const { return tracer_.active(); }
  /// Merged per-region exponent/deviation histograms of the active session.
  [[nodiscard]] std::vector<trace::RegionHistEntry> trace_histograms() const {
    return tracer_.histograms();
  }
  /// Live accounting of the active session (events, drops, threads,
  /// segments; zeroes when off). Unlike the calls above this is quiescence-
  /// free — it is the telemetry scrape path.
  [[nodiscard]] trace::TraceStats trace_stats_now() const { return tracer_.stats_now(); }
  /// Cumulative event/drop totals across every session since the last
  /// reset_all(): closed sessions' totals plus the open session's live
  /// counts. Monotonic between resets, trace_stop() included — the
  /// Prometheus-counter view of tracing (stats_now() zeroes at stop, these
  /// do not). Safe at any time.
  [[nodiscard]] u64 trace_events_total() const { return tracer_.events_total(); }
  [[nodiscard]] u64 trace_dropped_total() const { return tracer_.dropped_total(); }
  /// Options of the active (or most recent) session; the telemetry /report
  /// endpoint resolves the capture path from here when not given one.
  [[nodiscard]] trace::TraceOptions trace_options() const { return tracer_.options(); }

  // -- Thread-local scoping (used via trunc/scope.hpp RAII) ---------------

  void push_scope(const TruncationSpec& spec, bool enabled);
  void pop_scope();
  void push_region(const char* label);
  void pop_region();
  [[nodiscard]] const char* current_region();
  /// True if operations of `width` would currently be truncated here.
  [[nodiscard]] bool truncation_active(int width = 64);
  /// The format `width` ops currently execute in (nullopt = native).
  [[nodiscard]] std::optional<sf::Format> active_format(int width = 64);

  // -- Instrumented operations (inserted by the pass / Real<> frontend) ---

  double op2(OpKind k, double a, double b, int width = 64);
  double op1(OpKind k, double a, int width = 64);
  double op3(OpKind k, double a, double b, double c, int width = 64);

  // -- Batched op-mode dispatch (DESIGN.md §8) ----------------------------
  //
  // Element-wise `k` over contiguous spans, bit-identical to the equivalent
  // scalar op loop (same per-element results, same counter totals) but with
  // the effective format, cached truncation state, mode and fast-path
  // eligibility resolved ONCE per batch, counters updated with one bulk add,
  // and — for formats inside the fast_round envelope — the BigFloat
  // emulator replaced by sf::fast_* integer kernels. Unlike the scalar
  // path, the fast kernels apply REGARDLESS of the hw_fastpath flag: batch
  // callers opt into "as fast as possible, bit-identical" semantics, so
  // hw_fastpath only chooses whether fp64/fp32 additionally run on native
  // float hardware. The Table-3 emulation-cost ablation therefore measures
  // the scalar entry points (see bench/table3_overhead.cpp). In-place calls
  // (out == a etc.) are allowed; out must not partially overlap an input.
  // In mem-mode these fall back to the per-element scalar path so NaN-boxed
  // handles keep their ownership semantics.
  //
  // Exactness tags (DESIGN.md §13): `exact_a`/`exact_b` name a format every
  // lane of that operand is exactly representable in (nullopt: unknown).
  // Only the fast-kernel path reads them: an operand tagged with the
  // effective format (exp_bits and man_bits) skips its operand round,
  // which is the identity there, and the call returns that format as the
  // result's tag. The native, hardware-type, BigFloat and mem-mode paths
  // ignore tags and return nullopt. Values, counts and trace events never
  // depend on the tags.

  /// One operand of a batch call: n lanes, or one value standing for every
  /// lane (a broadcast), with its exactness tag. The fast-kernel path rounds
  /// a broadcast once per call and uses it as an exact operand; every other
  /// path spreads the raw value.
  struct BatchArg {
    const double* lanes = nullptr;      ///< null: `value` in every lane
    double value = 0.0;
    const sf::Format* exact = nullptr;  ///< the exactness tag (null: none)
  };

  std::optional<sf::Format> op1_batch(OpKind k, const double* a, double* out, std::size_t n,
                                      int width = 64,
                                      const std::optional<sf::Format>& exact_a = std::nullopt) {
    return tag_of(op1_lanes(k, a, out, n, width, exact_a ? &*exact_a : nullptr));
  }
  std::optional<sf::Format> op2_batch(OpKind k, const double* a, const double* b, double* out,
                                      std::size_t n, int width = 64,
                                      const std::optional<sf::Format>& exact_a = std::nullopt,
                                      const std::optional<sf::Format>& exact_b = std::nullopt) {
    return tag_of(op2_lanes(k, BatchArg{a, 0.0, exact_a ? &*exact_a : nullptr},
                            BatchArg{b, 0.0, exact_b ? &*exact_b : nullptr}, out, n, width));
  }
  /// The bodies of op1_batch/op2_batch, which batch::Vec calls directly:
  /// tags in and out as pointers (null: none). The result is the effective
  /// format when the fast kernels ran (their lanes are exact in it), else
  /// null; it aims into the thread-local cache, so copy it before the next
  /// scope or region change. (A std::optional return here measured ~2.5x
  /// the per-call cost of the small untagged spans of the AMR guard fill.)
  const sf::Format* op1_lanes(OpKind k, const double* a, double* out, std::size_t n, int width,
                              const sf::Format* exact_a);
  const sf::Format* op2_lanes(OpKind k, const BatchArg& a, const BatchArg& b, double* out,
                              std::size_t n, int width = 64);
  void op3_batch(OpKind k, const double* a, const double* b, const double* c, double* out,
                 std::size_t n, int width = 64);
  /// Array form of the `_raptor_pre_c` conversion primitive (not counted as
  /// flops, matching mem_make). Op-mode: quantize each element into the
  /// effective format, copying through unchanged when no truncation
  /// applies. Mem-mode: each element becomes a NaN-boxed mem-mode value via
  /// mem_make and the caller owns the returned handles.
  void trunc_array(const double* in, double* out, std::size_t n, int width = 64);

  /// Memory-traffic accounting: `bytes` accessed at the current truncation
  /// state (solver kernels call this once per cell update).
  void count_mem(u64 bytes);

  // -- Mem-mode value management ------------------------------------------

  /// Convert a plain double into a mem-mode value (the `_raptor_pre_c`
  /// primitive): allocates a shadow entry in the current format.
  double mem_make(double v, int width = 64);
  /// Read back the truncated value (the `_raptor_post_c` primitive);
  /// does not release.
  [[nodiscard]] double mem_value(double maybe_boxed) const;
  /// FP64 shadow of a mem-mode value (plain doubles are their own shadow).
  [[nodiscard]] double mem_shadow(double maybe_boxed) const;
  /// Relative deviation |trunc - shadow| / max(|shadow|, eps).
  [[nodiscard]] double mem_deviation(double maybe_boxed) const;
  void mem_retain(double boxed);
  void mem_release(double maybe_boxed);
  /// Read the truncated value and release the entry in a single locked
  /// section (Real::materialize / the `_raptor_post_c` primitive). Plain
  /// doubles pass through; stale handles collapse to NaN.
  double mem_materialize(double maybe_boxed);
  [[nodiscard]] static bool is_boxed(double d) { return boxing::is_boxed(d); }
  [[nodiscard]] std::size_t mem_live() const { return shadow_.live(); }
  /// Shadow-table locked-section accounting (see ShadowTable): mem-mode
  /// per-op cost is 1 locked read per boxed operand + 1 locked write for
  /// the result; test_memmode pins this and bench/memmode_parallel reports it.
  [[nodiscard]] u64 mem_locked_sections() const { return shadow_.locked_sections(); }
  void mem_reset_locked_sections() { shadow_.reset_locked_sections(); }
  /// Drop all mem-mode entries (between experiments; callers ensure no
  /// boxed doubles survive). Returns the number of entries that were still
  /// live — nonzero means instrumented code leaked handles (the upstream
  /// runtime's gc_dump_status role); examples/memmode_debug prints it.
  std::size_t mem_clear() {
    const std::size_t leaked = shadow_.clear();
    mem_leaked_total_.fetch_add(leaked, std::memory_order_relaxed);
    return leaked;
  }
  /// Cumulative handles found still live across every mem_clear() — the
  /// process-lifetime leak counter the telemetry layer exposes.
  [[nodiscard]] u64 mem_leaked_total() const {
    return mem_leaked_total_.load(std::memory_order_relaxed);
  }

  /// Current truncation-config epoch: bumped on every global config change
  /// (and so counts thread-cache invalidation broadcasts). Telemetry reads
  /// this as a cheap churn indicator.
  [[nodiscard]] u64 config_epoch() const {
    return config_epoch_.load(std::memory_order_relaxed);
  }

  // -- Reports --------------------------------------------------------------

  /// Totals over every thread, live and retired. Safe at any time.
  [[nodiscard]] CounterSnapshot counters() const;
  /// Configuration quiescence contract.
  void reset_counters();
  /// Mem-mode deviation heatmap, sorted by fresh-deviation count descending.
  [[nodiscard]] std::vector<FlagRecord> flag_report() const;
  void reset_flags();

  /// Reset every piece of global state (tests).
  void reset_all();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

 private:
  Runtime() = default;

  struct ThreadState;
  ThreadState& tls();
  /// One thread's row of a region profile: the same fields as RegionProfile,
  /// as cells only that thread writes.
  using ThreadProfile = BasicRegionProfile<Cell>;

  /// Re-validate `ts` against the global config epoch, invalidating the
  /// thread's truncation/profile/trace caches on mismatch. Every path that
  /// dereferences a cached per-thread pointer must sync first.
  void sync_epoch(ThreadState& ts) const;

  /// Close the innermost region's open wall-clock interval into its
  /// profile slot and start the next interval (region boundaries only).
  void accrue_region_time(ThreadState& ts);

  /// nullptr when no truncation applies at the current point. The resolved
  /// state is cached in `ts` (per width) so repeated ops between scope or
  /// region changes skip the stack walk; the returned pointer aims into the
  /// thread-local cache and stays valid until the next scope/region change.
  const sf::Format* effective_format(ThreadState& ts, int width) const;

  /// Profile slot of the innermost region (nullptr when region profiling is
  /// off). Cached per thread; callers must resolve effective_format() first
  /// in the same operation so the epoch is synced (see ThreadState).
  ThreadProfile* region_prof(ThreadState& ts);
  /// The calling thread's row for `label`, inserted under threads_mu_ on
  /// first use.
  ThreadProfile& profile_row(ThreadState& ts, const char* label);

  /// Counter bumps shared by the scalar and batch entry points: thread
  /// totals plus (when region profiling is on) the innermost region's slot.
  void count_scalar(ThreadState& ts, OpKind k, bool trunc);
  void count_batch(ThreadState& ts, OpKind k, bool trunc, u64 n);

  // Dispatch bodies behind the public op entry points: the public wrappers
  // add the trace hook around them (the result value is needed for the
  // event's exponent class, so the hook sits after dispatch).
  double op1_dispatch(ThreadState& ts, OpKind k, double a, int width);
  double op2_dispatch(ThreadState& ts, OpKind k, double a, double b, int width);
  double op3_dispatch(ThreadState& ts, OpKind k, double a, double b, double c, int width);
  static std::optional<sf::Format> tag_of(const sf::Format* f) {
    if (f == nullptr) return std::nullopt;
    return *f;
  }
  /// True when the fast kernels ran, i.e. the result is exact in *f.
  bool op1_batch_op(ThreadState& ts, OpKind k, const double* a, double* out, std::size_t n,
                    const sf::Format* f, const sf::Format* exact_a);
  bool op2_batch_op(ThreadState& ts, OpKind k, const BatchArg& a, const BatchArg& b, double* out,
                    std::size_t n, const sf::Format* f);
  void op3_batch_op(ThreadState& ts, OpKind k, const double* a, const double* b, const double* c,
                    double* out, std::size_t n, const sf::Format* f);

  /// Trace capture (called only when trace_on_): re-syncs the thread with
  /// the tracer session, pays the sampling countdown, and on-sample records
  /// one event over `vals[0..n)` plus per-element exponent histogram
  /// updates. `f` is the resolved target format (nullptr = untruncated).
  void trace_event(ThreadState& ts, OpKind k, const double* vals, std::size_t n,
                   const sf::Format* f, bool span, bool mem, u8 dev_bucket);

  double native1(OpKind k, double a) const;
  double native2(OpKind k, double a, double b) const;
  double native2_f32(OpKind k, double a, double b) const;
  double native1_f32(OpKind k, double a) const;

  double emulate1(ThreadState& ts, OpKind k, double a, const sf::Format& f);
  double emulate2(ThreadState& ts, OpKind k, double a, double b, const sf::Format& f);
  double emulate3(ThreadState& ts, OpKind k, double a, double b, double c, const sf::Format& f);

  double mem_op(ThreadState& ts, OpKind k, const double* args, int n, const sf::Format& f,
                bool truncated);

  void record_flag(const char* location, OpKind k, double deviation, bool fresh);

  void register_thread(ThreadState* ts);
  void retire_thread(ThreadState* ts);

  // Configuration (plain fields; configured while quiescent).
  Mode mode_ = Mode::Op;
  AllocStrategy alloc_ = AllocStrategy::Scratch;
  bool hw_fastpath_ = false;
  bool counting_ = true;
  double dev_threshold_ = 1e-4;
  sf::simd::Path simd_path_ = sf::simd::default_path();

  mutable std::mutex config_mu_;
  bool have_global_ = false;
  TruncationSpec global_spec_;
  std::vector<std::string> exclusions_;
  std::vector<std::pair<std::string, TruncationSpec>> region_formats_;
  bool region_profiling_ = false;
  /// Bumped on every global truncation/exclusion change; thread-local
  /// truncation caches revalidate against it (starts at 1 so a fresh
  /// ThreadState with epoch 0 always recomputes).
  std::atomic<u64> config_epoch_{1};

  mutable std::mutex threads_mu_;
  std::vector<ThreadState*> threads_;
  CounterSnapshot retired_;
  std::map<std::string, RegionProfile> retired_regions_;

  mutable std::mutex flags_mu_;
  std::vector<FlagRecord> flags_;

  ShadowTable shadow_;
  std::atomic<u64> mem_leaked_total_{0};

  /// Tracing flag mirrored out of tracer_ as a plain bool: written by
  /// trace_start/trace_stop under the quiescence contract, read unprotected
  /// on every op (like counting_). trace_active() reads the tracer's atomic
  /// flag instead, so a scrape may call it at any time.
  bool trace_on_ = false;
  trace::Tracer tracer_;
};

}  // namespace raptor::rt
