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
// strict whole-file reader but merely "in progress" to the tolerant /
// streaming readers below, which stop at the last complete block — that is
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
  /// through the tolerant readers rather than erroring.
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

/// Incremental reader for a file that may still be growing. Each poll()
/// reads the bytes appended since the last call and decodes every *complete*
/// block; a partial trailing block (the drainer mid-append, or a crash cut)
/// is kept pending and retried on the next poll, so the committed byte
/// offset only ever advances over whole blocks. Malformed input — bad
/// magic, unknown tags, out-of-range slots, overlong varints — still throws
/// std::runtime_error; only plain truncation is tolerated.
class RtraceStream {
 public:
  explicit RtraceStream(std::string path);

  /// Ingest newly appended bytes; returns the number of blocks decoded by
  /// this call. A file that does not exist yet decodes zero blocks.
  std::size_t poll();

  /// Everything decoded so far (accumulates across polls).
  [[nodiscard]] const TraceData& data() const { return data_; }
  /// True once the `X` end marker has been decoded.
  [[nodiscard]] bool finished() const { return finished_; }
  /// Byte offset of the last fully decoded block (resume point).
  [[nodiscard]] u64 offset() const { return file_offset_ - pending_.size(); }

 private:
  std::string path_;
  std::string pending_;  ///< bytes read from the file but not yet decoded
  u64 file_offset_ = 0;  ///< bytes consumed from the file into pending_
  TraceData data_;
  bool header_parsed_ = false;
  bool finished_ = false;
};

/// One-shot tolerant read: everything decodable from the file right now.
struct TolerantRead {
  TraceData data;
  bool complete = false;  ///< end marker present: a finished capture
  u64 bytes_consumed = 0; ///< offset of the last complete block
};

/// Read an `.rtrace` that may be unterminated or cut mid-block; such files
/// classify as in-progress (`complete == false`) instead of erroring.
/// Throws on I/O failure and on genuinely malformed (not truncated) input.
[[nodiscard]] TolerantRead read_rtrace_tolerant(const std::string& path);

/// Canonical name of rotation segment `index` of a capture based at `base`:
/// segment 0 is `base` itself, segment N is `base.segN`. Shared between the
/// rotating drainer and the analyzer's segment discovery.
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
