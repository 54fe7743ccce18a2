// The `.rtrace` binary trace format (DESIGN.md §12): a compact little-endian
// stream the background drainer appends to while producers keep running, and
// the offline analyzer (`tools/raptor_trace`) reads back in one pass.
//
// Layout:
//
//   header (16 bytes):
//     "RTRC"  magic
//     u8      version (1)
//     u8      endianness marker (1 = little)
//     u16     reserved (0)
//     u32     sample stride   (little-endian)
//     u32     ring capacity   (little-endian)
//
//   then a sequence of tagged blocks until the end marker:
//     'S' string-table entry:  varint slot, varint length, bytes
//     'E' event block:         varint thread, varint n, n delta-encoded events
//     'D' drop accounting:     varint thread, varint dropped-event count
//     'H' region histograms:   varint slot, ExpHistogram, DevHistogram
//     'T' region wall-clock:   varint slot, f64 seconds (8 raw LE bytes) —
//         written at stop() when the runtime had region profiling on, so a
//         capture carries the time dimension its recommendations rank by
//     'X' end marker
//
// All integers are unsigned LEB128 varints; signed fields use zigzag
// encoding. Overlong varints whose dropped high bits are nonzero are
// rejected (two encodings must never decode to the same value). Within an
// event block, each event is encoded as a presence byte naming which fields
// differ from the previous event in the block (the block's first event
// deltas against a zeroed record), then only those fields, then the
// result-exponent delta — consecutive events from one thread usually share
// kind/region/format, so the common case is 3-4 bytes per 16-byte event.
//
// Readers throw std::runtime_error("rtrace: ...") on malformed input. A
// *truncated* file (missing `X`, or cut mid-block) is malformed to the
// strict whole-file reader but merely "in progress" to the incremental
// `Capture` reader below, which stops at the last complete block — that is
// what lets `raptor_trace --follow` tail a file the drainer is still
// appending to, and lets a crash-abandoned capture still be analyzed.
//
// Scale-out (DESIGN.md §12): one logical capture may span several files —
// shards written by independent processes, or rotation segments written by
// one drainer (`segment_path`). Slot numbering is per-writer, so cross-file
// aggregation is keyed by region *label* (`merge_traces` in analysis.hpp),
// never by slot.
#pragma once

#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/event.hpp"
#include "trace/histogram.hpp"

namespace raptor::trace {

struct DecodedEvent;

class RtraceWriter {
 public:
  RtraceWriter(const std::string& path, u32 sample_stride, u32 ring_capacity);
  /// Finish-on-destruct: if finish() was never reached (e.g. an exception
  /// unwinding through the drainer) and the stream is still healthy, write
  /// the end marker so the file is not left silently unterminated. A file
  /// that still lacks `X` (hard crash, dead stream) reads as "in progress"
  /// through `Capture` rather than erroring.
  ~RtraceWriter();
  RtraceWriter(const RtraceWriter&) = delete;
  RtraceWriter& operator=(const RtraceWriter&) = delete;

  void string_entry(u32 slot, std::string_view label);
  void event_block(u32 thread, const Event* events, std::size_t n);
  /// Re-encode already-decoded events (u64 counts) — the compaction path.
  void event_block(u32 thread, const DecodedEvent* events, std::size_t n);
  void drop_block(u32 thread, u64 dropped);
  void hist_block(u32 slot, const RegionHist& hist);
  /// Per-region wall-clock seconds (written at session stop when the
  /// runtime had region profiling enabled).
  void time_block(u32 slot, double seconds);
  /// Write the end marker and flush. Further writes are invalid.
  void finish();
  /// Push buffered bytes to the OS so a concurrent tail sees them.
  void flush() { out_.flush(); }

  [[nodiscard]] bool good() const { return out_.good(); }
  [[nodiscard]] bool finished() const { return finished_; }
  /// Bytes emitted so far (header included) — drives segment rotation.
  [[nodiscard]] u64 bytes_written() const { return bytes_; }

 private:
  template <class Ev>
  void encode_events(u32 thread, const Ev* events, std::size_t n);
  void raw(const char* p, std::size_t n) {
    out_.write(p, static_cast<std::streamsize>(n));
    bytes_ += n;
  }
  void byte(u8 b) {
    out_.put(static_cast<char>(b));
    ++bytes_;
  }
  void varint(u64 v);
  void zigzag(i64 v);

  std::ofstream out_;
  u64 bytes_ = 0;
  bool finished_ = false;
};

/// One decoded event, widened out of the delta encoding.
struct DecodedEvent {
  u32 thread = 0;
  u8 kind = 0;
  u8 flags = 0;
  u16 region = 0;
  u8 fmt_exp = 0;
  u8 fmt_man = 0;
  u8 dev_bucket = kDevNone;
  i32 exp_min = 0;
  i32 exp_max = 0;
  u64 count = 1;

  friend bool operator==(const DecodedEvent&, const DecodedEvent&) = default;
};

/// Everything in one `.rtrace` file.
struct TraceData {
  u32 sample_stride = 0;
  u32 ring_capacity = 0;
  std::vector<std::string> regions;  ///< string table, indexed by slot
  std::vector<DecodedEvent> events;
  std::vector<std::pair<u32, RegionHist>> histograms;  ///< slot -> merged hist
  std::vector<std::pair<u32, u64>> drops;              ///< thread -> dropped
  std::vector<std::pair<u32, double>> region_seconds;  ///< slot -> wall-clock s

  [[nodiscard]] u64 total_dropped() const {
    u64 t = 0;
    for (const auto& [thread, n] : drops) t += n;
    return t;
  }

  [[nodiscard]] const std::string& region_name(u32 slot) const {
    static const std::string unknown = "<unknown>";
    return slot < regions.size() ? regions[slot] : unknown;
  }
};

/// Parse a whole file. Throws std::runtime_error on I/O or format errors,
/// including a missing end marker (a truncated capture must be loud).
[[nodiscard]] TraceData read_rtrace(const std::string& path);

/// Incremental reader for a whole capture — one file, a rotated series
/// (`segment_path`) or several shards — and the one way every `.rtrace` is
/// read outside compaction: `raptor_trace` in all of its modes and the live
/// /report endpoint go through it.
///
/// It is built from one or more input paths; each input is read together
/// with its rotation segments. poll() adopts the segments that appeared
/// since the last call and decodes the whole blocks appended to every file
/// that has not reached its end marker. A partial trailing block (the
/// drainer mid-append, or a crash cut) stays pending for the next poll, so
/// plain truncation never throws; malformed input — bad magic, unknown
/// tags, out-of-range slots, overlong varints — throws std::runtime_error.
/// A file is held open from the poll that adopts it until its end marker,
/// so renaming it (compaction) or deleting it afterwards loses nothing.
class Capture {
 public:
  explicit Capture(std::vector<std::string> paths);

  /// Adopt new segments and decode newly appended blocks; true when this
  /// call adopted a file or decoded anything.
  bool poll();

  /// Everything decoded so far: a single file's data as read, several
  /// files merged by region label (`merge_traces`, in input order and each
  /// input's segments in write order).
  [[nodiscard]] const TraceData& data() const;
  /// Every input has appeared, every file adopted so far carries its end
  /// marker, and no later segment existed at the last poll. The drainer
  /// creates each segment's successor before writing its end marker, so a
  /// live capture does not read as complete mid-rotation.
  [[nodiscard]] bool complete() const;
  /// Files adopted so far, over every input.
  [[nodiscard]] std::size_t files() const;
  /// Inputs whose first file has not appeared yet.
  [[nodiscard]] std::vector<std::string> missing() const;
  /// Bytes of whole blocks decoded so far (headers included), over every
  /// file: the resume point of a single file.
  [[nodiscard]] u64 decoded_bytes() const;
  [[nodiscard]] const std::vector<std::string>& inputs() const { return paths_; }

 private:
  struct File {
    std::ifstream in;     ///< open until the end marker is decoded
    std::string pending;  ///< bytes read but not yet decoded
    TraceData data;
    u64 decoded = 0;      ///< bytes of whole blocks decoded, header included
    bool header = false;
    bool finished = false;
  };
  /// Read what was appended to `f` and decode its whole blocks; returns
  /// the bytes decoded.
  u64 advance(File& f);

  std::vector<std::string> paths_;
  std::vector<std::vector<File>> files_;  ///< per input, in segment order
  TraceData merged_;                      ///< data() of two or more files
};

/// Canonical name of rotation segment `index` of a capture based at `base`:
/// segment 0 is `base` itself, segment N is `base.segN`. Shared between the
/// rotating drainer and `Capture`'s segment discovery.
[[nodiscard]] std::string segment_path(const std::string& base, u32 index);

/// Rewrite a finished segment with its event blocks folded into per-thread
/// summary events: records with identical (kind, flags, region, format,
/// deviation bucket) coalesce into one record with summed count and the
/// union exponent span. Op totals, drop accounting, string table and
/// histogram blocks are preserved exactly; only per-record granularity is
/// folded, so a sustained capture stays bounded on disk. Returns the
/// compacted file size in bytes.
u64 compact_rtrace(const std::string& path);

}  // namespace raptor::trace
