// Live telemetry monitor (DESIGN.md §16): terminal client for the
// poll-based telemetry server (telemetry/server.hpp). Each tick it scrapes
//
//   /metrics  Prometheus text -> headline counters (flop totals with a
//             per-second rate between ticks, trace event/drop accounting)
//   /report   live trace-analysis JSON -> a per-region table (events,
//             sampled ops, truncated share, wall-clock self-time)
//
// against a server started by `trace_demo --serve` or `raptor_trace
// --serve`, and renders both. Exits nonzero when the first scrape fails
// (nothing listening) and stops quietly once the server goes away.
//
//   raptor_monitor --port=N | --port-file=PATH   where to scrape
//                  [--interval=MS]               tick period (default 500)
//                  [--ticks=N]                   stop after N ticks (0 = on
//                                                server exit)
//                  [--no-report]                 /metrics only
//   raptor_monitor --selftest                    parser + client round trip
//                                                against an in-process server
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/server.hpp"
#include "trace/analysis.hpp"

using namespace raptor;

namespace {

// -- Minimal JSON field extraction over trace::report_json output ----------
//
// The /report body is machine-written by one renderer (trace::report_json:
// one object per line, fixed key order), so a line-oriented field scanner is
// sufficient — this is not a general JSON parser.

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    switch (next) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        if (i + 4 < s.size()) {
          const unsigned long cp = std::strtoul(std::string(s.substr(i + 1, 4)).c_str(),
                                                nullptr, 16);
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          i += 4;
        }
        break;
      default: out += next; break;
    }
  }
  return out;
}

std::optional<std::string> str_field(const std::string& line, const std::string& key) {
  const std::string pat = '"' + key + "\": \"";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return std::nullopt;
  p += pat.size();
  std::string raw;
  while (p < line.size() && line[p] != '"') {
    if (line[p] == '\\' && p + 1 < line.size()) {
      raw += line[p];
      raw += line[p + 1];
      p += 2;
      continue;
    }
    raw += line[p++];
  }
  return json_unescape(raw);
}

double num_field(const std::string& line, const std::string& key, double fallback = 0.0) {
  const std::string pat = '"' + key + "\": ";
  const std::size_t p = line.find(pat);
  if (p == std::string::npos) return fallback;
  return std::strtod(line.c_str() + p + pat.size(), nullptr);
}

struct RegionRow {
  std::string region;
  u64 events = 0;
  u64 ops = 0;
  u64 trunc_ops = 0;
  double seconds = 0.0;
};

/// Region rows of a /report body. Recommendation objects also carry a
/// "region" key, so rows are identified by the "sampled_ops" field.
std::vector<RegionRow> parse_report_rows(const std::string& body) {
  std::vector<RegionRow> rows;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"sampled_ops\":") == std::string::npos) continue;
    const auto region = str_field(line, "region");
    if (!region) continue;
    RegionRow r;
    r.region = *region;
    r.events = static_cast<u64>(num_field(line, "events"));
    r.ops = static_cast<u64>(num_field(line, "sampled_ops"));
    r.trunc_ops = static_cast<u64>(num_field(line, "trunc_ops"));
    r.seconds = num_field(line, "seconds");
    rows.push_back(std::move(r));
  }
  return rows;
}

// -- /metrics pivots --------------------------------------------------------

/// Sum of every series named `name` whose labels contain all of `match`.
double metric_total(const std::vector<telemetry::ParsedSample>& samples, std::string_view name,
                    const telemetry::Labels& match = {}) {
  double total = 0.0;
  for (const auto& s : samples) {
    if (s.name != name) continue;
    bool ok = true;
    for (const auto& [k, v] : match) {
      bool found = false;
      for (const auto& [sk, sv] : s.labels) found = found || (sk == k && sv == v);
      ok = ok && found;
    }
    if (ok) total += s.value;
  }
  return total;
}

void render(int tick, const std::vector<telemetry::ParsedSample>& samples,
            const std::vector<RegionRow>& rows, double prev_flops, double dt_s) {
  const double trunc = metric_total(samples, "raptor_flops_total", {{"path", "trunc"}});
  const double full = metric_total(samples, "raptor_flops_total", {{"path", "full"}});
  const double rate = (tick > 1 && dt_s > 0.0) ? (trunc + full - prev_flops) / dt_s : 0.0;
  std::printf("[tick %d] flops: trunc %.0f full %.0f (%.0f/s) | trace: events %.0f dropped %.0f "
              "active %.0f\n",
              tick, trunc, full, rate, metric_total(samples, "raptor_trace_events_total"),
              metric_total(samples, "raptor_trace_dropped_total"),
              metric_total(samples, "raptor_trace_active"));
  if (rows.empty()) return;
  std::printf("  %-24s %10s %12s %8s %9s\n", "region", "events", "sampled_ops", "trunc%",
              "seconds");
  for (const auto& r : rows) {
    const double pct =
        r.ops > 0 ? 100.0 * static_cast<double>(r.trunc_ops) / static_cast<double>(r.ops) : 0.0;
    std::printf("  %-24s %10llu %12llu %7.1f%% %9.3f\n", r.region.c_str(),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.ops), pct, r.seconds);
  }
}

// -- --selftest -------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };

  // Report parsing against the real renderer, with a hostile region label.
  trace::TraceData td;
  td.sample_stride = 64;
  td.regions = {"hydro/flux \"x\"\nline2", "plain"};
  trace::DecodedEvent e;
  e.region = 0;
  e.count = 100;
  e.flags = trace::kFlagTruncated;
  td.events.push_back(e);
  e.region = 1;
  e.flags = 0;
  e.count = 50;
  td.events.push_back(e);
  td.region_seconds = {{0, 0.25}, {1, 1.5}};
  const std::string body = trace::report_json(td, trace::build_reports(td));
  const std::vector<RegionRow> rows = parse_report_rows(body);
  check(rows.size() == 2, "one row per region");
  bool found_hostile = false;
  for (const auto& r : rows) {
    if (r.region == "hydro/flux \"x\"\nline2") {
      found_hostile = true;
      check(r.ops == 100 && r.trunc_ops == 100 && r.seconds == 0.25,
            "hostile-label row fields survive the JSON round trip");
    }
  }
  check(found_hostile, "escaped region label round-trips through /report");

  // Client round trip against an in-process server.
  telemetry::Registry& reg = telemetry::Registry::instance();
  reg.callback(
      telemetry::MetricKind::Counter, "raptor_flops_total", [] { return 42.0; }, "selftest",
      {{"path", "trunc"}});
  telemetry::Server server;
  server.handle("/metrics", [&reg](const telemetry::HttpRequest&) {
    telemetry::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = telemetry::to_prometheus(reg.snapshot());
    return resp;
  });
  server.handle("/report", [&body](const telemetry::HttpRequest&) {
    return telemetry::HttpResponse{200, "application/json", body};
  });
  check(server.listen(0), "ephemeral bind");
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) server.poll(10);
  });
  const std::optional<std::string> metrics = telemetry::http_get(server.port(), "/metrics");
  const std::optional<std::string> report = telemetry::http_get(server.port(), "/report");
  stop.store(true);
  pump.join();
  check(metrics.has_value(), "GET /metrics");
  check(report.has_value(), "GET /report");
  if (metrics) {
    const auto samples = telemetry::parse_prometheus(*metrics);
    check(metric_total(samples, "raptor_flops_total", {{"path", "trunc"}}) >= 42.0,
          "scraped counter value");
  }
  if (report) check(parse_report_rows(*report).size() == 2, "served report parses");

  if (failures == 0) std::printf("raptor_monitor selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("selftest")) return selftest();

  int port = cli.get_int("port", 0);
  if (port == 0 && cli.has("port-file")) {
    std::ifstream pf(cli.get("port-file", ""));
    pf >> port;
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "usage: %s --port=N | --port-file=PATH [--interval=MS] [--ticks=N] "
                         "[--no-report] [--selftest]\n",
                 cli.program().c_str());
    return 2;
  }
  const int interval_ms = std::max(1, cli.get_int("interval", 500));
  const int max_ticks = cli.get_int("ticks", 0);
  const bool want_report = !cli.has("no-report");

  double prev_flops = 0.0;
  auto prev_time = std::chrono::steady_clock::now();
  for (int tick = 1;; ++tick) {
    const auto body = telemetry::http_get(static_cast<std::uint16_t>(port), "/metrics");
    if (!body) {
      if (tick == 1) {
        std::fprintf(stderr, "no telemetry server on 127.0.0.1:%d\n", port);
        return 1;
      }
      std::printf("server went away after %d tick(s)\n", tick - 1);
      return 0;
    }
    const auto samples = telemetry::parse_prometheus(*body);
    std::vector<RegionRow> rows;
    if (want_report) {
      if (const auto report = telemetry::http_get(static_cast<std::uint16_t>(port), "/report")) {
        rows = parse_report_rows(*report);
      }
    }
    const auto now = std::chrono::steady_clock::now();
    render(tick, samples, rows, prev_flops, std::chrono::duration<double>(now - prev_time).count());
    prev_time = now;
    prev_flops = metric_total(samples, "raptor_flops_total", {{"path", "trunc"}}) +
                 metric_total(samples, "raptor_flops_total", {{"path", "full"}});
    std::fflush(stdout);
    if (max_ticks > 0 && tick >= max_ticks) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
