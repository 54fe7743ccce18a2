// Trace session management (DESIGN.md §12): owns the per-thread ring
// buffers and histograms, the region string table, and the background
// drainer thread that empties rings into the `.rtrace` writer.
//
// Producer / consumer split:
//   * each instrumented thread is the single producer of its own
//     ThreadTrace ring and the only writer of its histogram map;
//   * the drainer thread is the single consumer of every ring and the only
//     writer of the output file;
//   * the registry mutex guards attachment, the string table and the
//     writer — the per-op hot path takes it only on a region-slot cache
//     miss (region change), never per event.
//
// Quiescence contract: start(), stop() and histograms() must be called
// while no instrumented code is executing.
// The ring traffic itself is safe against the live drainer at any time —
// that is the whole point — but the histogram maps are read unlocked.
// A straggler thread retiring after stop() is tolerated: buffers of a
// stopped session are kept until the next start(), and detach() ignores
// stale sessions, so late detaches never touch freed memory.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/ring.hpp"
#include "trace/rtrace.hpp"

namespace raptor::trace {

struct TraceOptions {
  std::string path;             ///< output .rtrace file (rotation segment 0)
  u32 sample_stride = 64;       ///< power of two; 1 = trace every op/span
  u32 ring_capacity = 1 << 14;  ///< power of two, events per thread
  u32 drain_interval_ms = 5;    ///< drainer wake-up period
  /// Segment rotation: once the current segment exceeds this many bytes
  /// (checked after each drain cycle), finish it and roll to the next
  /// `segment_path(path, n)` file. 0 keeps the single-file behavior. Every
  /// segment carries the full string table, so each is self-contained for
  /// labels and a multi-shard merge of all segments reproduces the session.
  u64 segment_bytes = 0;
  /// With rotation: rewrite each closed segment with its event blocks
  /// folded into per-thread summary records (compact_rtrace), so sustained
  /// heavy workloads stay bounded on disk at O(regions x op kinds) per
  /// segment instead of O(events).
  bool compact_segments = false;
};

struct TraceStats {
  u64 events = 0;   ///< events written to the file
  u64 dropped = 0;  ///< events dropped on ring overflow
  u32 threads = 0;  ///< threads that produced into this session
  u32 segments = 1; ///< rotation segments written (1 = single file)
};

/// Per-thread capture state. The owning thread is the only producer of
/// `ring` and the only writer of `hists`; everything else goes through the
/// Tracer.
struct ThreadTrace {
  explicit ThreadTrace(u32 ring_capacity, u32 index)
      : ring(ring_capacity), thread_index(index) {}

  SpscRing ring;
  std::map<u32, RegionHist> hists;  ///< region slot -> histograms (node-based:
                                    ///< cached pointers survive growth)
  u32 thread_index;
  bool retired = false;  ///< guarded by the Tracer registry mutex
};

class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  /// Open the sink and spawn the drainer. Requires !active().
  void start(const TraceOptions& opts);
  /// Stop the drainer, flush every ring, write histogram/drop blocks and
  /// the end marker. Requires active(). Buffers survive until next start().
  TraceStats stop();
  /// stop() that additionally writes one 'T' (wall-clock seconds) block per
  /// labelled region — the bridge from the runtime's per-region timing into
  /// the capture. Labels are interned like event regions.
  TraceStats stop(const std::vector<std::pair<std::string, double>>& region_seconds);

  /// Live session accounting: events written so far, current ring drops,
  /// attached threads and segments. Safe against the running drainer (takes
  /// the registry mutex); unlike stop(), does not require quiescence —
  /// this is the telemetry scrape path. Zeroes when no session is active.
  [[nodiscard]] TraceStats stats_now() const;
  /// Events written and dropped over every session since the last
  /// reset_totals(): closed sessions plus the open one. stop() folds its
  /// session in under the same lock that closes it, so neither total ever
  /// steps back, not even while stop() drains. Safe at any time.
  [[nodiscard]] u64 events_total() const;
  [[nodiscard]] u64 dropped_total() const;
  /// Zero both totals. Quiescence contract above.
  void reset_totals();
  /// The active session's options (telemetry labels). Quiescence-free but
  /// only meaningful while active().
  [[nodiscard]] TraceOptions options() const {
    std::lock_guard lock(mu_);
    return opts_;
  }

  [[nodiscard]] bool active() const { return active_.load(std::memory_order_relaxed); }
  /// Bumped on every start(); thread-local caches revalidate against it.
  [[nodiscard]] u64 session() const { return session_.load(std::memory_order_relaxed); }
  [[nodiscard]] u32 stride() const { return opts_.sample_stride; }

  /// String-table slot for a region label (inserting it on first use).
  u32 intern(const char* label);

  /// Register the calling thread with the current session.
  ThreadTrace* attach();
  /// Thread retirement: merge the thread's histograms into the retired
  /// aggregate and mark the buffer. No-op when `session` is stale.
  void detach(ThreadTrace* tt, u64 session);

  /// Merged per-region histograms (live + retired threads), sorted by
  /// total exponent samples descending. Quiescence contract above.
  [[nodiscard]] std::vector<RegionHistEntry> histograms() const;

 private:
  void drain_loop();
  /// Flush unwritten string-table entries and every ring. Caller holds mu_.
  void drain_once_locked();
  /// Roll to the next segment when the current one outgrew
  /// opts_.segment_bytes (and compact the closed one). Caller holds mu_.
  void maybe_rotate_locked();
  /// Merged slot -> histogram map over live + retired threads. Caller
  /// holds mu_.
  [[nodiscard]] std::map<u32, RegionHist> merged_hists_locked() const;

  mutable std::mutex mu_;  ///< registry, string table, writer
  std::vector<std::unique_ptr<ThreadTrace>> buffers_;
  std::vector<std::string> strings_;
  std::map<std::string, u32> string_slots_;
  std::size_t strings_written_ = 0;
  std::map<u32, RegionHist> retired_hists_;
  std::unique_ptr<RtraceWriter> writer_;
  std::vector<Event> scratch_;  ///< drain staging (drainer/stop only)
  u64 events_written_ = 0;
  u64 closed_events_ = 0;   ///< closed sessions' totals (events_total())
  u64 closed_dropped_ = 0;
  u32 segment_index_ = 0;    ///< rotation segment the writer is appending to
  u64 segment_preamble_ = 0; ///< header + re-emitted string table bytes of
                             ///< the current segment; rotation requires
                             ///< payload beyond this (no empty segments)

  std::thread drainer_;
  std::condition_variable cv_;
  bool stop_requested_ = false;

  std::atomic<bool> active_{false};
  std::atomic<u64> session_{0};
  TraceOptions opts_;
};

}  // namespace raptor::trace
