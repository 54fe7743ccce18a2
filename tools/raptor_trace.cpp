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
//   raptor_trace <files> --tolerant            accept an in-progress capture
//                                              (missing end marker / partial
//                                              trailing block) and report
//                                              what is decodable so far
//   raptor_trace <files> --follow              tail a growing capture:
//                                              re-emit the report (and any
//                                              --csv/--json/--recommend
//                                              outputs) every --interval=MS
//                                              until the capture completes
//                                              or --follow-max=N ticks pass
//   raptor_trace <files> --serve[=PORT]        follow mode that additionally
//                                              serves /metrics, /profile and
//                                              /report over HTTP on loopback
//                                              (PORT 0/omitted = ephemeral;
//                                              --port-file=PATH writes the
//                                              bound port for scripts);
//                                              /report returns the same JSON
//                                              --json derives offline
//   raptor_trace <files> --csv=out.csv         per-region rows as CSV
//   raptor_trace <files> --json=out.json       per-region rows as JSON
//   raptor_trace <files> --recommend[=out.cfg] profile-config recommendation
//                                              (exp bits from the observed
//                                              dynamic range; parseable by
//                                              rt::parse_profile)
//   raptor_trace --selftest                    recommendation round trip,
//                                              report rendering, compaction
//
// Every mode reads through one trace::Capture (rtrace.hpp).
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
#include <stdexcept>
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
                     io::csv_number(r.dev.quantile(0.5)), io::csv_number(r.dev.quantile(0.99)),
                     io::csv_number(r.dev.max_bound()), io::csv_number(r.seconds)});
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

// -- --selftest: what only this tool does, or no test suite calls ----------
//
// The codec, the capture reader, the shard merge and malformed input are
// covered by test_trace.

int selftest() {
  const std::string path = "raptor_trace_selftest.rtrace";
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
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

  // Segment compaction folds records, preserves op totals and reports the
  // size it rewrote.
  {
    const std::string segment = "raptor_trace_selftest_compact.rtrace";
    {
      trace::RtraceWriter w(segment, 8, 1 << 10);
      w.string_entry(0, "demo/alpha");
      w.event_block(0, t0.data(), t0.size());
      w.finish();
    }
    u64 ops_before = 0;
    for (const auto& e : trace::read_rtrace(segment).events) ops_before += e.count;
    const u64 compact_size = trace::compact_rtrace(segment);
    const trace::TraceData compacted = trace::read_rtrace(segment);
    u64 ops_after = 0;
    for (const auto& e : compacted.events) ops_after += e.count;
    check(ops_after == ops_before, "compaction preserves op totals");
    check(compacted.events.size() < t0.size(), "compaction folds records");
    check(compact_size > 0 && read_bytes(segment).size() == compact_size,
          "compaction reports the rewritten size");
    std::remove(segment.c_str());
  }

  std::remove(path.c_str());
  if (failures == 0) std::printf("raptor_trace selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

/// Serve /metrics, /profile and /report over `paths` on --serve's port.
void serve(const Cli& cli, telemetry::Server& server, const std::vector<std::string>& paths) {
  const int port = cli.get_port("serve");
  rt::register_runtime_metrics();
  rt::add_runtime_endpoints(server, paths);
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

  const bool follow = cli.has("follow") || cli.has("serve");  // --serve implies follow mode
  const int interval_ms = std::max(1, cli.get_int("interval", 500));
  const int max_ticks = cli.get_int("follow-max", 0);  // 0 = until complete
  // --serve: the tick loop below keeps polling the server between report
  // re-emits, so requests are answered while we wait out the interval.
  telemetry::Server server;
  if (cli.has("serve")) serve(cli, server, cli.positional());

  // Every positional plus its rotation segments; more than one file means a
  // label-keyed multi-shard merge. One-shot mode reads once; follow mode
  // re-reads every --interval and re-emits the report (and any
  // --csv/--json/--recommend outputs).
  trace::Capture capture(cli.positional());
  int complete_ticks = 0;
  for (int tick = 1;; ++tick) {
    try {
      capture.poll();
      if (!follow) {
        for (const std::string& p : capture.missing()) {
          throw std::runtime_error("rtrace: cannot open input file " + p);
        }
        if (!capture.complete() && !cli.has("tolerant")) {
          throw std::runtime_error(
              "rtrace: capture incomplete (missing end marker or cut mid-block; --tolerant "
              "reports what is decodable)");
        }
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s\n", ex.what());
      return 1;
    }
    const trace::TraceData& td = capture.data();
    const std::vector<trace::RegionReport> reports = trace::build_reports(td);
    if (!follow) {
      if (capture.files() > 1) std::printf("merged %zu shard files\n", capture.files());
      if (!capture.complete()) std::printf("capture in progress (no end marker yet)\n");
      print_report(stdout, td, reports);
      return emit_outputs(cli, td, reports, /*strict=*/true);
    }

    // Require completion on two consecutive ticks, so a writer that closes
    // one segment before it creates the next is not taken for done
    // mid-rotation.
    complete_ticks = capture.complete() ? complete_ticks + 1 : 0;
    std::printf("\n-- follow tick %d: %zu file(s), %zu event records%s --\n", tick,
                capture.files(), td.events.size(),
                capture.complete() ? ", capture complete" : "");
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

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
