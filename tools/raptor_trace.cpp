// Offline analyzer for `.rtrace` numerical traces (DESIGN.md §12).
//
//   raptor_trace <file.rtrace>                 per-region report to stdout
//   raptor_trace shard_*.rtrace                multi-shard merge: N files ->
//                                              one report, keyed by region
//                                              label (slot numbering is
//                                              per-writer); rotation
//                                              segments (<file>.segN) of
//                                              every input are discovered
//                                              automatically
//   raptor_trace <file> --tolerant             accept an in-progress capture
//                                              (missing end marker / partial
//                                              trailing block) and report
//                                              what is decodable so far
//   raptor_trace <file> --follow               tail a growing capture:
//                                              re-emit the report (and any
//                                              --csv/--json/--recommend
//                                              outputs) every --interval=MS
//                                              until the capture completes
//                                              or --follow-max=N ticks pass
//   raptor_trace <file> --serve[=PORT]         follow mode that additionally
//                                              serves /metrics, /profile and
//                                              /report over HTTP on loopback
//                                              (PORT 0/omitted = ephemeral;
//                                              --port-file=PATH writes the
//                                              bound port for scripts);
//                                              /report returns the same JSON
//                                              --json derives offline
//   raptor_trace <file> --csv=out.csv          per-region rows as CSV
//   raptor_trace <file> --json=out.json        per-region rows as JSON
//   raptor_trace <file> --recommend[=out.cfg]  profile-config recommendation
//                                              (exp bits from the observed
//                                              dynamic range; parseable by
//                                              rt::parse_profile)
//   raptor_trace --selftest                    codec round trip, shard
//                                              merge, streaming reader and
//                                              adversarial-input checks
//
// The report aggregates the sampled event stream (op mix, truncated share)
// with the persisted per-region histograms (exact exponent range, deviation
// quantiles) and prints drop accounting so a lossy capture is visible.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "io/profile_dump.hpp"
#include "runtime/live_telemetry.hpp"
#include "runtime/opkind.hpp"
#include "runtime/profile_config.hpp"
#include "support/cli.hpp"
#include "trace/analysis.hpp"

using namespace raptor;

namespace {

std::string kind_name(u8 kind) {
  if (kind >= static_cast<u8>(rt::kNumOpKinds)) return "op" + std::to_string(kind);
  return rt::op_name(static_cast<rt::OpKind>(kind));
}

/// Top-3 op kinds by sampled count, e.g. "fmul 42% fadd 31% fdiv 11%".
std::string op_mix(const trace::RegionReport& r) {
  std::vector<std::pair<u64, u8>> ranked;
  for (const auto& [kind, n] : r.ops_by_kind) ranked.emplace_back(n, kind);
  std::sort(ranked.rbegin(), ranked.rend());
  std::string out;
  for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
    if (i > 0) out += ' ';
    out += kind_name(ranked[i].second);
    out += ' ';
    out += std::to_string(r.ops > 0 ? 100 * ranked[i].first / r.ops : 0);
    out += '%';
  }
  return out;
}

void print_report(std::FILE* out, const trace::TraceData& td,
                  const std::vector<trace::RegionReport>& reports) {
  if (td.sample_stride == 0) {
    // merge_traces reconciles disagreeing shard strides to 0; an unheadered
    // stream (follow mode before the first 16 bytes land) is also 0.
    std::fprintf(out, "sample stride mixed/unknown, ");
  } else {
    std::fprintf(out, "sample stride 1/%u, ", td.sample_stride);
  }
  std::fprintf(out, "%zu event records, %llu dropped\n\n", td.events.size(),
               static_cast<unsigned long long>(td.total_dropped()));
  std::fprintf(out, "%-18s %10s %12s %8s %9s %9s %8s %10s %10s %9s  %s\n", "region", "events",
               "sampled_ops", "trunc%", "exp_min", "exp_max", "subnrm", "dev_p99", "dev_max",
               "seconds", "op mix");
  for (const auto& r : reports) {
    const double trunc_pct =
        r.ops > 0 ? 100.0 * static_cast<double>(r.trunc_ops) / static_cast<double>(r.ops) : 0.0;
    // Wall-clock self-time rides in optional 'T' blocks; captures without
    // region profiling have none, so print "-" instead of a misleading 0.
    char secs[32] = "-";
    if (r.seconds > 0.0) std::snprintf(secs, sizeof secs, "%.3f", r.seconds);
    std::fprintf(out, "%-18s %10llu %12llu %7.1f%% %9s %9s %8llu %10.2e %10.2e %9s  %s\n",
                 r.label.c_str(), static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.ops), trunc_pct,
                 r.exp.has_range() ? trace::exp_class_str(r.exp.min_exp).c_str() : "-",
                 r.exp.has_range() ? trace::exp_class_str(r.exp.max_exp).c_str() : "-",
                 static_cast<unsigned long long>(r.exp.subnormal), r.dev.quantile(0.99),
                 r.dev.max_bound(), secs, op_mix(r).c_str());
  }
  // Drop blocks are recorded even for clean threads (count 0); only print
  // the section when some thread actually lost events.
  if (td.total_dropped() > 0) {
    std::fprintf(out, "\nper-thread ring drops:");
    for (const auto& [thread, n] : td.drops) {
      if (n > 0) std::fprintf(out, " t%u:%llu", thread, static_cast<unsigned long long>(n));
    }
    std::fprintf(out, "\n");
  }
}

void write_csv(const std::string& path, const std::vector<trace::RegionReport>& reports) {
  io::CsvWriter csv(path, {"region", "events", "sampled_ops", "trunc_ops", "mem_ops", "exp_min",
                           "exp_max", "zero", "subnormal", "inf", "nan", "dev_p50", "dev_p99",
                           "dev_max", "seconds"});
  for (const auto& r : reports) {
    csv.row_strings({io::csv_field(r.label), std::to_string(r.events), std::to_string(r.ops),
                     std::to_string(r.trunc_ops), std::to_string(r.mem_ops),
                     r.exp.has_range() ? std::to_string(r.exp.min_exp) : "",
                     r.exp.has_range() ? std::to_string(r.exp.max_exp) : "",
                     std::to_string(r.exp.zero), std::to_string(r.exp.subnormal),
                     std::to_string(r.exp.inf), std::to_string(r.exp.nan),
                     std::to_string(r.dev.quantile(0.5)), std::to_string(r.dev.quantile(0.99)),
                     std::to_string(r.dev.max_bound()), std::to_string(r.seconds)});
  }
}

void write_json(const std::string& path, const trace::TraceData& td,
                const std::vector<trace::RegionReport>& reports) {
  std::ofstream out(path);
  if (!out.good()) throw CliError("cannot open --json output file");
  // The shared renderer keeps this byte-identical to the telemetry server's
  // /report body (pinned by test_telemetry).
  out << trace::report_json(td, reports);
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// An input plus its rotation segments, in write order: `p`, `p.seg1`, ...
std::vector<std::string> expand_segments(const std::string& base) {
  std::vector<std::string> out{base};
  for (u32 i = 1;; ++i) {
    const std::string seg = trace::segment_path(base, i);
    if (!file_exists(seg)) break;
    out.push_back(seg);
  }
  return out;
}

/// Regenerate the side outputs (CSV/JSON/recommendation). `strict` makes a
/// recommendation that fails to round-trip parse_profile a hard error (the
/// one-shot path); follow mode downgrades it to a warning and keeps tailing.
int emit_outputs(const Cli& cli, const trace::TraceData& td,
                 const std::vector<trace::RegionReport>& reports, bool strict) {
  if (cli.has("csv")) write_csv(cli.get("csv", "trace_report.csv"), reports);
  if (cli.has("json")) write_json(cli.get("json", "trace_report.json"), td, reports);
  if (!cli.has("recommend")) return 0;

  const auto recs = trace::recommend(td);
  const std::string text = trace::recommendations_to_profile(recs);
  // The recommendation must stay consumable by the profile-config loader.
  try {
    (void)rt::parse_profile(text);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "recommendation failed to round-trip parse_profile: %s\n", ex.what());
    if (strict) return 1;
  }
  // Bare "--recommend" parses as value "1" (flag convention): print to
  // stdout; "--recommend=PATH" writes a file.
  std::string path = cli.get("recommend", "");
  if (path == "1") path.clear();
  if (path.empty()) {
    std::printf("\n%s", text.c_str());
  } else {
    std::ofstream out(path);
    if (!out.good()) throw CliError("cannot open --recommend output file");
    out << text;
    std::printf("\nwrote recommendation (%zu regions) to %s\n", recs.size(), path.c_str());
  }
  return 0;
}

// -- --follow: tail a growing capture (plus its rotation segments) ---------

int follow(const Cli& cli) {
  const std::string base = cli.positional().front();
  const int interval_ms = std::max(1, cli.get_int("interval", 500));
  const int max_ticks = cli.get_int("follow-max", 0);  // 0 = until complete

  // --serve: poll-based HTTP endpoints alongside the tail. The tick loop
  // below keeps polling the server between report re-emits, so requests are
  // answered while we wait out the interval.
  telemetry::Server server;
  if (cli.has("serve")) {
    const int port = cli.get_port("serve");
    rt::register_runtime_metrics();
    rt::add_runtime_endpoints(server, base);
    if (!server.listen(static_cast<std::uint16_t>(port))) {
      throw CliError("--serve failed to bind: " + server.error());
    }
    std::printf("serving /metrics /profile /report on 127.0.0.1:%u\n", server.port());
    if (cli.has("port-file")) {
      std::ofstream pf(cli.get("port-file", ""));
      if (!pf.good()) throw CliError("cannot open --port-file output");
      pf << server.port() << '\n';
    }
  }

  std::vector<std::unique_ptr<trace::RtraceStream>> streams;
  streams.emplace_back(std::make_unique<trace::RtraceStream>(base));
  int tick = 0;
  int complete_ticks = 0;
  for (;;) {
    ++tick;
    // Rotation segments appear while we tail; pick new ones up each tick.
    while (file_exists(trace::segment_path(base, static_cast<u32>(streams.size())))) {
      streams.emplace_back(std::make_unique<trace::RtraceStream>(
          trace::segment_path(base, static_cast<u32>(streams.size()))));
    }
    for (auto& s : streams) s->poll();

    std::vector<trace::TraceData> shards;
    shards.reserve(streams.size());
    for (const auto& s : streams) shards.push_back(s->data());
    const trace::TraceData td =
        shards.size() == 1 ? std::move(shards.front()) : trace::merge_traces(shards);
    const auto reports = trace::build_reports(td);

    // The session is over when the newest segment carries its end marker
    // and no successor segment has appeared; require that to hold on two
    // consecutive ticks so a rotation between finish() and the next
    // segment's creation is not misread as completion.
    const bool last_done = streams.back()->finished() &&
                           !file_exists(trace::segment_path(base, static_cast<u32>(streams.size())));
    complete_ticks = last_done ? complete_ticks + 1 : 0;

    std::printf("\n-- follow tick %d: %zu file(s), %zu event records%s --\n", tick,
                streams.size(), td.events.size(), last_done ? ", capture complete" : "");
    print_report(stdout, td, reports);
    (void)emit_outputs(cli, td, reports, /*strict=*/false);
    std::fflush(stdout);

    if (complete_ticks >= 2) return 0;
    if (max_ticks > 0 && tick >= max_ticks) return 0;
    if (server.listening()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(interval_ms);
      do {
        server.poll(10);
      } while (std::chrono::steady_clock::now() < deadline);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
}

// -- --selftest: writer/reader, shard merge, streaming, adversarial input --

int selftest() {
  const std::string path = "raptor_trace_selftest.rtrace";
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto throws = [](const auto& fn) {
    try {
      fn();
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  const auto write_bytes = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto read_bytes = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  };

  // Synthetic capture: two threads, three regions, span + scalar + mem
  // events with every field class exercised (format changes, dev buckets,
  // exponent span deltas, count > 1).
  std::vector<trace::Event> t0, t1;
  for (int i = 0; i < 64; ++i) {
    trace::Event e;
    e.kind = static_cast<u8>(i % 5);
    e.flags = trace::kFlagTruncated | ((i % 3 == 0) ? trace::kFlagSpan : 0);
    e.region = static_cast<u16>(i % 3);
    e.fmt_exp = 8;
    e.fmt_man = static_cast<u8>(10 + i % 4);
    e.exp_min = static_cast<i16>(-40 + i);
    e.exp_max = static_cast<i16>(-40 + i + (i % 7));
    e.count = (i % 3 == 0) ? 4096 : 1;
    t0.push_back(e);
    e.flags = trace::kFlagMem;
    e.dev_bucket = static_cast<u8>(i % trace::DevHistogram::kBins);
    e.exp_min = e.exp_max = static_cast<i16>(trace::kExpZero);
    e.count = 1;
    t1.push_back(e);
  }
  trace::RegionHist h0;
  for (int i = 0; i < 1000; ++i) h0.exp.add(std::ldexp(1.5, -i % 30));
  h0.exp.add(0.0);
  h0.exp.add(std::numeric_limits<double>::infinity());
  h0.exp.add(5e-310);  // subnormal
  for (int i = 0; i < 100; ++i) h0.dev.add(1e-6);
  trace::RegionHist h1;
  h1.exp.add(1e8);
  h1.exp.add(1e-8);

  {
    trace::RtraceWriter w(path, 64, 1 << 14);
    w.string_entry(0, "demo/alpha");
    w.string_entry(1, "demo/beta with space");
    w.string_entry(2, "<toplevel>");
    w.event_block(0, t0.data(), t0.size());
    w.event_block(1, t1.data(), t1.size());
    w.drop_block(0, 0);
    w.drop_block(1, 123);
    w.hist_block(0, h0);
    w.hist_block(1, h1);
    w.finish();
    check(w.good(), "writer stream state");
  }

  const trace::TraceData td = trace::read_rtrace(path);
  check(td.sample_stride == 64, "sample stride round trip");
  check(td.ring_capacity == (1u << 14), "ring capacity round trip");
  check(td.regions.size() == 3 && td.regions[1] == "demo/beta with space",
        "string table round trip");
  check(td.events.size() == t0.size() + t1.size(), "event count round trip");
  for (std::size_t i = 0; i < t0.size() && i < td.events.size(); ++i) {
    const trace::Event& e = t0[i];
    const trace::DecodedEvent& d = td.events[i];
    const bool same = d.thread == 0 && d.kind == e.kind && d.flags == e.flags &&
                      d.region == e.region && d.fmt_exp == e.fmt_exp && d.fmt_man == e.fmt_man &&
                      d.dev_bucket == e.dev_bucket && d.exp_min == e.exp_min &&
                      d.exp_max == e.exp_max && d.count == e.count;
    if (!same) {
      check(false, "thread-0 event round trip");
      break;
    }
  }
  for (std::size_t i = 0; i < t1.size() && t0.size() + i < td.events.size(); ++i) {
    const trace::Event& e = t1[i];
    const trace::DecodedEvent& d = td.events[t0.size() + i];
    const bool same = d.thread == 1 && d.kind == e.kind && d.flags == e.flags &&
                      d.dev_bucket == e.dev_bucket && d.exp_min == e.exp_min &&
                      d.exp_max == e.exp_max && d.count == e.count;
    if (!same) {
      check(false, "thread-1 event round trip");
      break;
    }
  }
  check(td.total_dropped() == 123, "drop accounting round trip");
  check(td.histograms.size() == 2 && td.histograms[0].second == h0 &&
            td.histograms[1].second == h1,
        "histogram round trip");

  // Recommendation math: h1 observed exponents -27..26 (1e±8) need bias
  // >= 27 -> 6 exponent bits.
  check(trace::min_exp_bits(-27, 26) == 6, "min_exp_bits(1e±8)");
  check(trace::min_exp_bits(0, 1) == 2, "min_exp_bits(unit range)");
  check(trace::min_exp_bits(-1, 1) == 3, "min_exp_bits just below e=2's emin");
  check(trace::min_exp_bits(-1000, 1000) == 11, "min_exp_bits(full fp64)");
  const auto recs = trace::recommend(td);
  check(recs.size() == 2, "one recommendation per histogram region");
  const std::string cfg_text = trace::recommendations_to_profile(recs);
  try {
    const rt::ProfileConfig cfg = rt::parse_profile(cfg_text);
    // "demo/beta with space" is unexpressible in the config grammar and is
    // skipped with a comment; "demo/alpha" must survive with its subnormal
    // tail forcing the full 11-bit exponent.
    check(cfg.region_formats.size() == 1 && cfg.region_formats[0].region == "demo/alpha" &&
              cfg.region_formats[0].spec.for64 && cfg.region_formats[0].spec.for64->exp_bits == 11,
          "recommendation survives parse_profile");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "selftest: parse_profile rejected recommendation: %s\n", ex.what());
    ++failures;
  }

  // Drop-accounting report section: all-zero drop blocks (the clean-thread
  // case above writes drop_block(0, 0)) must not print a dangling
  // "per-thread ring drops:" header with no rows after it.
  {
    trace::TraceData clean = td;
    clean.drops = {{0, 0}, {1, 0}};
    std::FILE* cap = std::tmpfile();
    if (cap != nullptr) {
      print_report(cap, clean, trace::build_reports(clean));
      std::rewind(cap);
      std::string text(1 << 16, '\0');
      text.resize(std::fread(text.data(), 1, text.size(), cap));
      std::fclose(cap);
      check(text.find("per-thread ring drops") == std::string::npos,
            "no drops header when every drop count is zero");
      cap = std::tmpfile();
    }
    if (cap != nullptr) {
      print_report(cap, td, trace::build_reports(td));
      std::rewind(cap);
      std::string text(1 << 16, '\0');
      text.resize(std::fread(text.data(), 1, text.size(), cap));
      std::fclose(cap);
      check(text.find("per-thread ring drops: t1:123") != std::string::npos,
            "drops header lists the lossy thread");
    }
  }

  // Multi-shard merge, keyed by region label: the shards intern the same
  // labels in *different* slot orders, so a slot-keyed merge would cross
  // the streams; the label-keyed merge must reproduce the combined
  // histograms bitwise.
  const std::string shard_a = "raptor_trace_selftest_a.rtrace";
  const std::string shard_b = "raptor_trace_selftest_b.rtrace";
  std::vector<trace::Event> shard_events(t0.begin(), t0.begin() + 16);
  for (std::size_t i = 0; i < shard_events.size(); ++i) {
    shard_events[i].region = static_cast<u16>(i % 2);  // only interned slots
  }
  {
    trace::RtraceWriter w(shard_a, 64, 1 << 10);
    w.string_entry(0, "demo/alpha");
    w.string_entry(1, "demo/gamma");
    w.event_block(0, shard_events.data(), 8);
    w.drop_block(0, 5);
    w.hist_block(0, h0);
    w.hist_block(1, h1);
    w.finish();
  }
  {
    trace::RtraceWriter w(shard_b, 64, 1 << 12);
    w.string_entry(0, "demo/gamma");  // permuted slot order vs shard_a
    w.string_entry(1, "demo/alpha");
    w.event_block(0, shard_events.data() + 8, 8);
    w.drop_block(0, 7);
    w.hist_block(0, h0);
    w.hist_block(1, h1);
    w.finish();
  }
  {
    const trace::TraceData merged =
        trace::merge_traces({trace::read_rtrace(shard_a), trace::read_rtrace(shard_b)});
    check(merged.sample_stride == 64, "merge keeps the common stride");
    check(merged.ring_capacity == (1u << 12), "merge keeps the largest ring");
    check(merged.regions.size() == 2, "merge interns each label once");
    trace::RegionHist alpha_gamma;  // each label saw h0 in one shard, h1 in the other
    alpha_gamma = h0;
    alpha_gamma.merge(h1);
    std::size_t matched = 0;
    for (const auto& [slot, hist] : merged.histograms) {
      if (merged.region_name(slot) == "demo/alpha" || merged.region_name(slot) == "demo/gamma") {
        if (hist == alpha_gamma) ++matched;
      }
    }
    check(matched == 2, "label-keyed histogram merge is bitwise exact");
    check(merged.total_dropped() == 12, "merge sums shard drop accounting");
    check(merged.events.size() == 16, "merge concatenates shard events");
    bool threads_distinct = true;
    for (const auto& e : merged.events) {
      if (e.thread != 0 && e.thread != 1) threads_distinct = false;
    }
    check(threads_distinct, "shard thread ids are remapped, not collapsed");
    // Stride reconciliation: disagreeing shards read back as "mixed" (0).
    trace::TraceData odd = trace::read_rtrace(shard_b);
    odd.sample_stride = 16;
    check(trace::merge_traces({trace::read_rtrace(shard_a), odd}).sample_stride == 0,
          "mixed shard strides reconcile to 0");
  }

  // Streaming reader: replaying the file byte-by-byte must decode exactly
  // the strict-reader result, never throw on a partial block, and only
  // finish at the end marker.
  {
    const std::string bytes = read_bytes(path);
    const std::string grow = "raptor_trace_selftest_grow.rtrace";
    trace::RtraceStream stream(grow);
    bool ever_finished_early = false;
    std::size_t written = 0;
    while (written < bytes.size()) {
      written = std::min(bytes.size(), written + 7);
      write_bytes(grow, bytes.substr(0, written));
      stream.poll();
      if (stream.finished() && written < bytes.size()) ever_finished_early = true;
    }
    check(!ever_finished_early, "stream only finishes at the end marker");
    check(stream.finished(), "stream finishes on the complete file");
    check(stream.offset() == bytes.size(), "stream consumed every byte");
    check(stream.data().events.size() == td.events.size() &&
              stream.data().histograms == td.histograms &&
              stream.data().regions == td.regions,
          "streamed decode matches the strict reader");
    std::remove(grow.c_str());

    // Tolerant read of a mid-block cut: in progress, events up to the last
    // complete block, no exception.
    const std::string cut = "raptor_trace_selftest_cut.rtrace";
    write_bytes(cut, bytes.substr(0, bytes.size() / 2));
    try {
      const trace::TolerantRead partial = trace::read_rtrace_tolerant(cut);
      check(!partial.complete, "half a file classifies as in progress");
      check(partial.bytes_consumed <= bytes.size() / 2, "tolerant offset stops at a block edge");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "selftest: tolerant read threw on truncation: %s\n", ex.what());
      ++failures;
    }
    check(throws([&] { (void)trace::read_rtrace(cut); }), "strict reader rejects the same cut");
    std::remove(cut.c_str());
  }

  // Adversarial codec input: hardened decoding must reject malformed files
  // with std::runtime_error even in tolerant mode.
  {
    const std::string bad = "raptor_trace_selftest_bad.rtrace";
    const std::string header = read_bytes(path).substr(0, 16);
    // Overlong varint: ten bytes whose final payload bits are shifted out.
    std::string overlong = header;
    overlong += 'D';
    overlong += '\x00';  // thread 0
    for (int i = 0; i < 9; ++i) overlong += '\x80';
    overlong += '\x02';  // dropped bits at shift 63
    write_bytes(bad, overlong);
    check(throws([&] { (void)trace::read_rtrace(bad); }), "strict rejects overlong varint");
    check(throws([&] { (void)trace::read_rtrace_tolerant(bad); }),
          "tolerant rejects overlong varint");
    // The maximal *valid* 10-byte varint still decodes: (1 << 63) | 1.
    std::string maximal = header;
    maximal += 'D';
    maximal += '\x00';
    maximal += '\x81';
    for (int i = 0; i < 8; ++i) maximal += '\x80';
    maximal += '\x01';
    maximal += 'X';
    write_bytes(bad, maximal);
    check(trace::read_rtrace(bad).total_dropped() == ((u64{1} << 63) | 1),
          "maximal valid varint decodes");
    // Out-of-range histogram slot: same bound as string slots.
    std::string bad_slot = header;
    bad_slot += 'H';
    bad_slot += '\x80';
    bad_slot += '\x80';
    bad_slot += '\x04';  // slot 0x10000
    write_bytes(bad, bad_slot);
    check(throws([&] { (void)trace::read_rtrace(bad); }), "histogram slot bound enforced");
    std::remove(bad.c_str());
  }

  // Writer hardening: a writer destroyed without finish() (exception
  // unwinding through the drainer) still terminates the file when the
  // stream is healthy, and segment compaction preserves op totals.
  {
    const std::string abandoned = "raptor_trace_selftest_abandoned.rtrace";
    {
      trace::RtraceWriter w(abandoned, 8, 1 << 10);
      w.string_entry(0, "demo/alpha");
      w.event_block(0, t0.data(), t0.size());
      // no finish()
    }
    try {
      const trace::TraceData closed = trace::read_rtrace(abandoned);
      check(closed.events.size() == t0.size(), "finish-on-destruct terminates the file");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "selftest: abandoned writer left a bad file: %s\n", ex.what());
      ++failures;
    }
    u64 ops_before = 0;
    for (const auto& e : trace::read_rtrace(abandoned).events) ops_before += e.count;
    const u64 compact_size = trace::compact_rtrace(abandoned);
    const trace::TraceData compacted = trace::read_rtrace(abandoned);
    u64 ops_after = 0;
    for (const auto& e : compacted.events) ops_after += e.count;
    check(ops_after == ops_before, "compaction preserves op totals");
    check(compacted.events.size() < t0.size(), "compaction folds records");
    check(compact_size > 0 && read_bytes(abandoned).size() == compact_size,
          "compaction reports the rewritten size");
    std::remove(abandoned.c_str());
  }

  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
  std::remove(path.c_str());
  if (failures == 0) std::printf("raptor_trace selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("selftest")) return selftest();

  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s <file.rtrace> [more shards...] [--csv=PATH] [--json=PATH] "
                 "[--recommend[=PATH]] [--tolerant] [--follow] [--interval=MS] "
                 "[--follow-max=N] [--serve[=PORT]] [--port-file=PATH] [--selftest]\n",
                 cli.program().c_str());
    return 2;
  }

  if (cli.has("follow") || cli.has("serve")) {  // --serve implies follow mode
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "--follow tails one capture (its rotation segments are discovered)\n");
      return 2;
    }
    return follow(cli);
  }

  // Every positional plus its rotation segments; more than one file means a
  // label-keyed multi-shard merge.
  std::vector<std::string> files;
  for (const std::string& p : cli.positional()) {
    for (std::string& f : expand_segments(p)) files.push_back(std::move(f));
  }
  const bool tolerant = cli.has("tolerant");
  bool in_progress = false;
  std::vector<trace::TraceData> shards;
  try {
    for (const std::string& f : files) {
      if (tolerant) {
        trace::TolerantRead r = trace::read_rtrace_tolerant(f);
        if (!r.complete) in_progress = true;
        shards.push_back(std::move(r.data));
      } else {
        shards.push_back(trace::read_rtrace(f));
      }
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s\n", ex.what());
    return 1;
  }
  const trace::TraceData td =
      shards.size() == 1 ? std::move(shards.front()) : trace::merge_traces(shards);
  if (files.size() > 1) std::printf("merged %zu shard files\n", files.size());
  if (in_progress) std::printf("capture in progress (no end marker yet)\n");
  const std::vector<trace::RegionReport> reports = trace::build_reports(td);
  print_report(stdout, td, reports);
  return emit_outputs(cli, td, reports, /*strict=*/true);
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
