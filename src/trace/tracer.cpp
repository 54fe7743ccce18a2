#include "trace/tracer.hpp"

#include <algorithm>

namespace raptor::trace {

Tracer::~Tracer() {
  if (active()) stop();
}

void Tracer::start(const TraceOptions& opts) {
  RAPTOR_REQUIRE(!active(), "trace: start() while a session is active");
  RAPTOR_REQUIRE(!opts.path.empty(), "trace: output path is empty");
  RAPTOR_REQUIRE(opts.sample_stride > 0 &&
                     (opts.sample_stride & (opts.sample_stride - 1)) == 0,
                 "trace: sample stride must be a power of two");
  RAPTOR_REQUIRE(opts.ring_capacity >= 2 &&
                     (opts.ring_capacity & (opts.ring_capacity - 1)) == 0,
                 "trace: ring capacity must be a power of two");
  std::lock_guard lock(mu_);
  // Previous session's buffers were kept alive for stragglers; now that a
  // new session begins, every thread re-attaches via the session check, so
  // the old buffers are finally unreachable.
  buffers_.clear();
  strings_.clear();
  string_slots_.clear();
  strings_written_ = 0;
  retired_hists_.clear();
  events_written_ = 0;
  segment_index_ = 0;
  opts_ = opts;
  writer_ = std::make_unique<RtraceWriter>(opts.path, opts.sample_stride, opts.ring_capacity);
  segment_preamble_ = writer_->bytes_written();
  stop_requested_ = false;
  session_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
  drainer_ = std::thread([this] { drain_loop(); });
}

TraceStats Tracer::stop() { return stop({}); }

TraceStats Tracer::stop(const std::vector<std::pair<std::string, double>>& region_seconds) {
  RAPTOR_REQUIRE(active(), "trace: stop() without an active session");
  active_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  drainer_.join();

  std::lock_guard lock(mu_);
  // Late label interning (a region that was profiled but never sampled):
  // append to the string table before the final drain so the 'S' entries
  // land ahead of the 'T' blocks that reference them.
  std::vector<std::pair<u32, double>> slot_seconds;
  slot_seconds.reserve(region_seconds.size());
  for (const auto& [label, secs] : region_seconds) {
    const auto [it, inserted] =
        string_slots_.try_emplace(label, static_cast<u32>(strings_.size()));
    if (inserted) strings_.emplace_back(label);
    slot_seconds.emplace_back(it->second, secs);
  }
  drain_once_locked();  // the drainer has exited: we are the only consumer now
  TraceStats stats;
  stats.events = events_written_;
  stats.segments = segment_index_ + 1;
  stats.threads = static_cast<u32>(buffers_.size());
  for (const auto& tt : buffers_) {
    const u64 dropped = tt->ring.dropped();
    stats.dropped += dropped;
    writer_->drop_block(tt->thread_index, dropped);
  }
  for (const auto& [slot, hist] : merged_hists_locked()) writer_->hist_block(slot, hist);
  for (const auto& [slot, secs] : slot_seconds) writer_->time_block(slot, secs);
  writer_->finish();
  const bool good = writer_->good();
  // Retire the session and fold it into the totals in one locked section:
  // a null writer_ is what the totals read as "no open session".
  writer_.reset();
  closed_events_ += stats.events;
  closed_dropped_ += stats.dropped;
  RAPTOR_REQUIRE(good, "trace: writing the .rtrace file failed");
  return stats;
}

TraceStats Tracer::stats_now() const {
  std::lock_guard lock(mu_);
  TraceStats stats;
  if (!active_.load(std::memory_order_relaxed)) return stats;
  stats.events = events_written_;
  stats.segments = segment_index_ + 1;
  stats.threads = static_cast<u32>(buffers_.size());
  for (const auto& tt : buffers_) stats.dropped += tt->ring.dropped();
  return stats;
}

u64 Tracer::events_total() const {
  std::lock_guard lock(mu_);
  return closed_events_ + (writer_ ? events_written_ : 0);
}

u64 Tracer::dropped_total() const {
  std::lock_guard lock(mu_);
  u64 total = closed_dropped_;
  if (writer_) {
    for (const auto& tt : buffers_) total += tt->ring.dropped();
  }
  return total;
}

void Tracer::reset() {
  std::lock_guard lock(mu_);
  closed_events_ = 0;
  closed_dropped_ = 0;
  opts_.path.clear();
}

u32 Tracer::intern(const char* label) {
  std::lock_guard lock(mu_);
  const auto [it, inserted] = string_slots_.try_emplace(label, static_cast<u32>(strings_.size()));
  if (inserted) {
    RAPTOR_REQUIRE(strings_.size() <= 0xFFFF, "trace: string table exhausted (65536 regions)");
    strings_.emplace_back(label);
  }
  return it->second;
}

ThreadTrace* Tracer::attach() {
  std::lock_guard lock(mu_);
  buffers_.push_back(
      std::make_unique<ThreadTrace>(opts_.ring_capacity, static_cast<u32>(buffers_.size())));
  return buffers_.back().get();
}

void Tracer::detach(ThreadTrace* tt, u64 session) {
  std::lock_guard lock(mu_);
  // The session check must happen under mu_ and precede any dereference:
  // start() frees the previous session's buffers and bumps session_ while
  // holding mu_, so a straggler from a recycled session carries a dangling
  // pointer — checked here, it is rejected before being touched, and a
  // concurrent start() cannot slip between the check and the use.
  if (session != session_.load(std::memory_order_relaxed)) return;
  for (const auto& [slot, hist] : tt->hists) retired_hists_[slot].merge(hist);
  tt->hists.clear();
  tt->retired = true;
  // The ring may still hold undrained events; the drainer (or the final
  // drain in stop()) picks them up, so nothing is lost on retirement.
}

std::vector<RegionHistEntry> Tracer::histograms() const {
  std::lock_guard lock(mu_);
  std::vector<RegionHistEntry> out;
  for (const auto& [slot, hist] : merged_hists_locked()) {
    RegionHistEntry e;
    e.label = slot < strings_.size() ? strings_[slot] : "<unknown>";
    e.hist = hist;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const RegionHistEntry& a, const RegionHistEntry& b) {
    return a.hist.exp.total() > b.hist.exp.total();
  });
  return out;
}

std::map<u32, RegionHist> Tracer::merged_hists_locked() const {
  std::map<u32, RegionHist> merged = retired_hists_;
  for (const auto& tt : buffers_) {
    for (const auto& [slot, hist] : tt->hists) merged[slot].merge(hist);
  }
  return merged;
}

void Tracer::drain_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait_for(lock, std::chrono::milliseconds(opts_.drain_interval_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;  // stop() runs the final drain itself
    drain_once_locked();
  }
}

void Tracer::drain_once_locked() {
  // New region labels first, so every event's slot is resolvable by a
  // streaming reader at the point its block appears.
  for (; strings_written_ < strings_.size(); ++strings_written_) {
    writer_->string_entry(static_cast<u32>(strings_written_), strings_[strings_written_]);
  }
  for (const auto& tt : buffers_) {
    scratch_.clear();
    const std::size_t n = tt->ring.pop_into(scratch_);
    if (n > 0) {
      writer_->event_block(tt->thread_index, scratch_.data(), n);
      events_written_ += n;
    }
  }
  // Land the drained blocks in the OS so a live `--follow` tail sees them
  // promptly (the streaming reader tolerates a cut mid-block either way).
  writer_->flush();
  maybe_rotate_locked();
}

void Tracer::maybe_rotate_locked() {
  if (opts_.segment_bytes == 0 || writer_->bytes_written() < opts_.segment_bytes) return;
  // Never rotate a segment holding only its preamble (header + string
  // table): an idle drainer must not spin out empty segments when the
  // preamble alone exceeds a small segment_bytes.
  if (writer_->bytes_written() <= segment_preamble_) return;
  // The successor exists before this segment's end marker is written, so a
  // reader that decodes the marker always finds the next segment: a live
  // capture never reads as complete mid-rotation.
  auto next = std::make_unique<RtraceWriter>(segment_path(opts_.path, segment_index_ + 1),
                                             opts_.sample_stride, opts_.ring_capacity);
  writer_->finish();
  RAPTOR_REQUIRE(writer_->good(), "trace: writing the .rtrace segment failed");
  const std::string closed = segment_path(opts_.path, segment_index_);
  ++segment_index_;
  writer_ = std::move(next);
  // Re-emit the whole string table so every segment is self-contained for
  // labels: the stop()-time histogram blocks may land in a later segment
  // than the drain that first interned a region.
  for (strings_written_ = 0; strings_written_ < strings_.size(); ++strings_written_) {
    writer_->string_entry(static_cast<u32>(strings_written_), strings_[strings_written_]);
  }
  segment_preamble_ = writer_->bytes_written();
  if (opts_.compact_segments) compact_rtrace(closed);
}

}  // namespace raptor::trace
