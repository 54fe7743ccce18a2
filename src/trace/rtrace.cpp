#include "trace/rtrace.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

#include "trace/analysis.hpp"

namespace raptor::trace {

namespace {

// Event presence-byte bits: which fields of this event differ from (or
// extend) the previous event in the block.
constexpr u8 kHasKind = 1u << 0;
constexpr u8 kHasRegion = 1u << 1;
constexpr u8 kHasFormat = 1u << 2;
constexpr u8 kHasFlags = 1u << 3;
constexpr u8 kHasDev = 1u << 4;      ///< dev_bucket present (!= kDevNone)
constexpr u8 kHasCount = 1u << 5;    ///< count != 1
constexpr u8 kHasExpSpan = 1u << 6;  ///< exp_max != exp_min

constexpr u64 zigzag_encode(i64 v) {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}

constexpr i64 zigzag_decode(u64 v) {
  return static_cast<i64>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

RtraceWriter::RtraceWriter(const std::string& path, u32 sample_stride, u32 ring_capacity)
    : out_(path, std::ios::binary) {
  RAPTOR_REQUIRE(out_.good(), "rtrace: cannot open output file");
  raw("RTRC", 4);
  byte(1);  // version
  byte(1);  // little-endian
  byte(0);
  byte(0);
  for (int shift = 0; shift < 32; shift += 8) byte(static_cast<u8>(sample_stride >> shift));
  for (int shift = 0; shift < 32; shift += 8) byte(static_cast<u8>(ring_capacity >> shift));
}

RtraceWriter::~RtraceWriter() {
  if (!finished_ && out_.is_open() && out_.good()) finish();
}

void RtraceWriter::varint(u64 v) {
  while (v >= 0x80) {
    byte(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  byte(static_cast<u8>(v));
}

void RtraceWriter::zigzag(i64 v) { varint(zigzag_encode(v)); }

void RtraceWriter::string_entry(u32 slot, std::string_view label) {
  RAPTOR_ASSERT(!finished_);
  byte('S');
  varint(slot);
  varint(label.size());
  raw(label.data(), label.size());
}

template <class Ev>
void RtraceWriter::encode_events(u32 thread, const Ev* events, std::size_t n) {
  RAPTOR_ASSERT(!finished_);
  if (n == 0) return;
  byte('E');
  varint(thread);
  varint(n);
  Ev prev{};  // deltas reset at each block boundary so blocks decode alone
  for (std::size_t i = 0; i < n; ++i) {
    const Ev& e = events[i];
    u8 hdr = 0;
    if (e.kind != prev.kind) hdr |= kHasKind;
    if (e.region != prev.region) hdr |= kHasRegion;
    if (e.fmt_exp != prev.fmt_exp || e.fmt_man != prev.fmt_man) hdr |= kHasFormat;
    if (e.flags != prev.flags) hdr |= kHasFlags;
    if (e.dev_bucket != kDevNone) hdr |= kHasDev;
    if (e.count != 1) hdr |= kHasCount;
    if (e.exp_max != e.exp_min) hdr |= kHasExpSpan;
    byte(hdr);
    if (hdr & kHasKind) byte(e.kind);
    if (hdr & kHasRegion) varint(e.region);
    if (hdr & kHasFormat) {
      byte(e.fmt_exp);
      byte(e.fmt_man);
    }
    if (hdr & kHasFlags) byte(e.flags);
    if (hdr & kHasDev) byte(e.dev_bucket);
    zigzag(static_cast<i64>(e.exp_min) - static_cast<i64>(prev.exp_min));
    if (hdr & kHasExpSpan) zigzag(static_cast<i64>(e.exp_max) - static_cast<i64>(e.exp_min));
    if (hdr & kHasCount) varint(e.count);
    prev = e;
  }
}

void RtraceWriter::event_block(u32 thread, const Event* events, std::size_t n) {
  encode_events(thread, events, n);
}

void RtraceWriter::event_block(u32 thread, const DecodedEvent* events, std::size_t n) {
  encode_events(thread, events, n);
}

void RtraceWriter::drop_block(u32 thread, u64 dropped) {
  RAPTOR_ASSERT(!finished_);
  byte('D');
  varint(thread);
  varint(dropped);
}

void RtraceWriter::hist_block(u32 slot, const RegionHist& hist) {
  RAPTOR_ASSERT(!finished_);
  byte('H');
  varint(slot);
  const ExpHistogram& e = hist.exp;
  varint(e.zero);
  varint(e.subnormal);
  varint(e.inf);
  varint(e.nan);
  varint(e.finite);
  // min/max are only meaningful when finite > 0; encode 0 deltas otherwise
  // so an empty histogram round-trips to the default-constructed extremes.
  zigzag(e.has_range() ? e.min_exp : 0);
  zigzag(e.has_range() ? e.max_exp : 0);
  for (const u64 b : e.bins) varint(b);
  for (const u64 b : hist.dev.bins) varint(b);
}

void RtraceWriter::time_block(u32 slot, double seconds) {
  RAPTOR_ASSERT(!finished_);
  byte('T');
  varint(slot);
  // Raw little-endian f64: seconds are not integral and deserve full
  // precision, so no varint games.
  const u64 bits = std::bit_cast<u64>(seconds);
  for (int shift = 0; shift < 64; shift += 8) byte(static_cast<u8>(bits >> shift));
}

void RtraceWriter::finish() {
  if (finished_) return;
  byte('X');
  out_.flush();
  finished_ = true;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

/// Plain truncation — recoverable for `Capture` (the block may simply not
/// have landed yet), fatal for the strict whole-file reader.
/// Derives from std::runtime_error so strict callers see the contract type.
class TruncatedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : begin_(data), p_(data), end_(data + size) {}

  [[nodiscard]] bool at_end() const { return p_ == end_; }
  [[nodiscard]] std::size_t pos() const { return static_cast<std::size_t>(p_ - begin_); }

  u8 byte() {
    if (p_ == end_) fail_truncated("truncated input");
    return static_cast<u8>(*p_++);
  }

  u64 varint() {
    u64 v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) fail("varint overflow");
      const u8 b = byte();
      // At shift 63 only the lowest payload bit still fits in a u64; an
      // encoding whose dropped bits are nonzero would silently alias a
      // different value, so reject it outright.
      if (shift == 63 && (b & 0x7E) != 0) fail("varint overflow");
      v |= static_cast<u64>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  i64 zigzag() { return zigzag_decode(varint()); }

  std::string str(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) fail_truncated("truncated string");
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  [[noreturn]] static void fail(const char* what) {
    throw std::runtime_error(std::string("rtrace: ") + what);
  }

  [[noreturn]] static void fail_truncated(const char* what) {
    throw TruncatedError(std::string("rtrace: ") + what);
  }

 private:
  const char* begin_;
  const char* p_;
  const char* end_;
};

/// Decode exactly one tagged block into `td`; returns true on the end
/// marker. Commits side effects only after the whole block decoded, so a
/// TruncatedError mid-block leaves `td` untouched (`Capture` retries it).
bool decode_block(Cursor& c, TraceData& td) {
  const u8 tag = c.byte();
  switch (tag) {
    case 'S': {
      const u64 slot = c.varint();
      const u64 len = c.varint();
      if (slot > 0xFFFF) Cursor::fail("string slot out of range");
      std::string label = c.str(len);
      if (td.regions.size() <= slot) td.regions.resize(slot + 1);
      td.regions[slot] = std::move(label);
      return false;
    }
    case 'E': {
      const u64 thread = c.varint();
      if (thread > 0xFFFFFFFFu) Cursor::fail("event thread out of range");
      const u64 n = c.varint();
      std::vector<DecodedEvent> block;
      block.reserve(n < 4096 ? n : 4096);  // n is untrusted: grow as decoded
      DecodedEvent prev;
      prev.exp_min = 0;
      for (u64 i = 0; i < n; ++i) {
        const u8 hdr = c.byte();
        DecodedEvent e = prev;
        e.thread = static_cast<u32>(thread);
        if (hdr & kHasKind) e.kind = c.byte();
        if (hdr & kHasRegion) {
          const u64 slot = c.varint();
          if (slot > 0xFFFF) Cursor::fail("event region slot out of range");
          e.region = static_cast<u16>(slot);
        }
        if (hdr & kHasFormat) {
          e.fmt_exp = c.byte();
          e.fmt_man = c.byte();
        }
        if (hdr & kHasFlags) e.flags = c.byte();
        e.dev_bucket = (hdr & kHasDev) ? c.byte() : kDevNone;
        e.exp_min = static_cast<i32>(prev.exp_min + c.zigzag());
        e.exp_max = (hdr & kHasExpSpan) ? static_cast<i32>(e.exp_min + c.zigzag()) : e.exp_min;
        e.count = (hdr & kHasCount) ? c.varint() : 1;
        block.push_back(e);
        prev = e;
      }
      td.events.insert(td.events.end(), block.begin(), block.end());
      return false;
    }
    case 'D': {
      const u64 thread = c.varint();
      if (thread > 0xFFFFFFFFu) Cursor::fail("drop thread out of range");
      const u64 dropped = c.varint();
      td.drops.emplace_back(static_cast<u32>(thread), dropped);
      return false;
    }
    case 'H': {
      const u64 slot = c.varint();
      // Same bound as 'S' entries: a malformed file must not smuggle
      // out-of-range histogram slots into analysis.
      if (slot > 0xFFFF) Cursor::fail("histogram slot out of range");
      RegionHist h;
      ExpHistogram& e = h.exp;
      e.zero = c.varint();
      e.subnormal = c.varint();
      e.inf = c.varint();
      e.nan = c.varint();
      e.finite = c.varint();
      const i64 mn = c.zigzag();
      const i64 mx = c.zigzag();
      if (e.finite > 0) {
        e.min_exp = static_cast<i32>(mn);
        e.max_exp = static_cast<i32>(mx);
      }
      for (u64& b : e.bins) b = c.varint();
      for (u64& b : h.dev.bins) b = c.varint();
      td.histograms.emplace_back(static_cast<u32>(slot), h);
      return false;
    }
    case 'T': {
      const u64 slot = c.varint();
      if (slot > 0xFFFF) Cursor::fail("time slot out of range");
      u64 bits = 0;
      for (int shift = 0; shift < 64; shift += 8) {
        bits |= static_cast<u64>(c.byte()) << shift;
      }
      td.region_seconds.emplace_back(static_cast<u32>(slot), std::bit_cast<double>(bits));
      return false;
    }
    case 'X': return true;
    default: Cursor::fail("unknown block tag");
  }
}

/// Validate the 16-byte header and fill stride/capacity.
void parse_header(const char* buf, TraceData& td) {
  if (std::memcmp(buf, "RTRC", 4) != 0) Cursor::fail("bad magic");
  if (static_cast<u8>(buf[4]) != 1) Cursor::fail("unsupported version");
  if (static_cast<u8>(buf[5]) != 1) Cursor::fail("unsupported endianness");
  td.sample_stride = 0;
  td.ring_capacity = 0;
  for (int i = 0; i < 4; ++i) {
    td.sample_stride |= static_cast<u32>(static_cast<u8>(buf[8 + i])) << (8 * i);
    td.ring_capacity |= static_cast<u32>(static_cast<u8>(buf[12 + i])) << (8 * i);
  }
}

}  // namespace

TraceData read_rtrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) Cursor::fail("cannot open input file");
  std::string buf((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  if (buf.size() < 16) Cursor::fail("bad magic");
  TraceData td;
  parse_header(buf.data(), td);

  Cursor c(buf.data() + 16, buf.size() - 16);
  for (;;) {
    if (c.at_end()) Cursor::fail("missing end marker");
    if (decode_block(c, td)) return td;
  }
}

Capture::Capture(std::vector<std::string> paths)
    : paths_(std::move(paths)), files_(paths_.size()) {
  RAPTOR_REQUIRE(!paths_.empty(), "rtrace: a capture needs at least one input path");
}

u64 Capture::advance(File& f) {
  if (f.finished) return 0;
  // The last read stopped at end of file; the drainer may have appended since.
  f.in.clear();
  f.pending.append(std::istreambuf_iterator<char>(f.in), std::istreambuf_iterator<char>());

  std::size_t used = 0;
  if (!f.header) {
    if (f.pending.size() < 16) return 0;
    parse_header(f.pending.data(), f.data);
    f.header = true;
    used = 16;
  }
  while (!f.finished && used < f.pending.size()) {
    Cursor c(f.pending.data() + used, f.pending.size() - used);
    try {
      f.finished = decode_block(c, f.data);
    } catch (const TruncatedError&) {
      break;  // partial trailing block: the rest may land before the next poll
    }
    used += c.pos();
  }
  f.pending.erase(0, used);
  f.decoded += used;
  if (f.finished) {
    f.in.close();
    f.pending = std::string();
  }
  return used;
}

bool Capture::poll() {
  bool fresh = false;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    std::vector<File>& segments = files_[i];
    for (File& f : segments) fresh = advance(f) > 0 || fresh;
    // Adopt the segments that appeared since the last poll, in write order.
    // The probe that ends this loop is what complete() reads as "no later
    // segment": it runs after the newest segment was read.
    for (;;) {
      std::ifstream in(segment_path(paths_[i], static_cast<u32>(segments.size())),
                       std::ios::binary);
      if (!in.is_open()) break;
      segments.emplace_back().in = std::move(in);
      advance(segments.back());
      fresh = true;
    }
  }
  if (fresh && files() > 1) {
    std::vector<TraceData> shards;
    for (const std::vector<File>& segments : files_) {
      for (const File& f : segments) shards.push_back(f.data);
    }
    merged_ = merge_traces(shards);
  }
  return fresh;
}

const TraceData& Capture::data() const {
  if (files() != 1) return merged_;
  for (const std::vector<File>& segments : files_) {
    if (!segments.empty()) return segments.front().data;
  }
  return merged_;
}

bool Capture::complete() const {
  for (const std::vector<File>& segments : files_) {
    if (segments.empty()) return false;
    for (const File& f : segments) {
      if (!f.finished) return false;
    }
  }
  return true;
}

std::size_t Capture::files() const {
  std::size_t n = 0;
  for (const std::vector<File>& segments : files_) n += segments.size();
  return n;
}

std::vector<std::string> Capture::missing() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (files_[i].empty()) out.push_back(paths_[i]);
  }
  return out;
}

u64 Capture::decoded_bytes() const {
  u64 n = 0;
  for (const std::vector<File>& segments : files_) {
    for (const File& f : segments) n += f.decoded;
  }
  return n;
}

std::string segment_path(const std::string& base, u32 index) {
  if (index == 0) return base;
  return base + ".seg" + std::to_string(index);
}

u64 compact_rtrace(const std::string& path) {
  const TraceData td = read_rtrace(path);

  // Coalesce per thread, preserving first-seen order within each thread so
  // the rewrite is deterministic. The key is every field the analyzer
  // aggregates exactly; the exponent span widens to the union, which is
  // what the histogram-free fallback already treats as approximate.
  using Key = std::tuple<u32, u8, u8, u16, u8, u8, u8>;
  std::map<u32, std::vector<DecodedEvent>> by_thread;
  std::map<Key, std::pair<u32, std::size_t>> index;  // key -> (thread, pos)
  for (const DecodedEvent& e : td.events) {
    const Key k{e.thread, e.kind, e.flags, e.region, e.fmt_exp, e.fmt_man, e.dev_bucket};
    const auto [it, inserted] = index.try_emplace(k, e.thread, by_thread[e.thread].size());
    std::vector<DecodedEvent>& lane = by_thread[e.thread];
    if (inserted) {
      lane.push_back(e);
    } else {
      DecodedEvent& acc = lane[it->second.second];
      acc.count += e.count;
      acc.exp_min = std::min(acc.exp_min, e.exp_min);
      acc.exp_max = std::max(acc.exp_max, e.exp_max);
    }
  }

  const std::string tmp = path + ".compact.tmp";
  u64 size = 0;
  {
    RtraceWriter w(tmp, td.sample_stride, td.ring_capacity);
    for (std::size_t slot = 0; slot < td.regions.size(); ++slot) {
      w.string_entry(static_cast<u32>(slot), td.regions[slot]);
    }
    for (const auto& [thread, events] : by_thread) {
      w.event_block(thread, events.data(), events.size());
    }
    for (const auto& [thread, dropped] : td.drops) w.drop_block(thread, dropped);
    for (const auto& [slot, hist] : td.histograms) w.hist_block(slot, hist);
    for (const auto& [slot, secs] : td.region_seconds) w.time_block(slot, secs);
    w.finish();
    RAPTOR_REQUIRE(w.good(), "rtrace: writing the compacted segment failed");
    size = w.bytes_written();
  }
  RAPTOR_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "rtrace: renaming the compacted segment failed");
  return size;
}

}  // namespace raptor::trace
