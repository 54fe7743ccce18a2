// Tests for the live telemetry stack (DESIGN.md §16): the metrics registry
// (idempotent registration, gauges, callback metrics), the Prometheus
// exposition layer and its parser (malformed lines dropped), the poll-based
// HTTP server, and the runtime wiring — /metrics, /profile and /report
// served from a live traced run, with /report byte-identical to the offline
// raptor_trace analyzer, plus the wall-clock dimension the search driver
// gained (SearchOptions::min_time_share, RegionChoice::seconds).
//
// Threading (this suite runs under TSan in CI): live reads need no barrier.
// BarrierFreeReadsAreMonotoneAndExact reads counters(), region_profiles(),
// /metrics and /profile while workers count, start new regions and exit;
// TraceTotalsNeverStepBackAcrossSessions reads the trace totals while
// sessions start and stop. The end-to-end traced run still parks its worker
// at condvar barriers, because it asserts exact per-phase counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/live_telemetry.hpp"
#include "runtime/runtime.hpp"
#include "search/precision_search.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/server.hpp"
#include "trace/analysis.hpp"
#include "trace/rtrace.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace raptor {
namespace {

using rt::Runtime;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, RegistrationIsIdempotentPerSeries) {
  telemetry::Registry reg;
  telemetry::Gauge a = reg.gauge("queue_depth", "queued requests", {{"queue", "in"}});
  a.set(3.0);
  // Same (name, labels): the existing series, not a duplicate.
  telemetry::Gauge again = reg.gauge("queue_depth", "", {{"queue", "in"}});
  EXPECT_DOUBLE_EQ(again.value(), 3.0);
  EXPECT_EQ(reg.size(), 1u);
  // A different label set is a distinct series with its own slot.
  telemetry::Gauge other = reg.gauge("queue_depth", "", {{"queue", "out"}});
  other.set(1.0);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  // A callback series re-registered keeps its one slot and takes the new
  // callback.
  reg.callback(telemetry::MetricKind::Counter, "requests_total", [] { return 10.0; }, "",
               {{"code", "200"}});
  reg.callback(telemetry::MetricKind::Counter, "requests_total", [] { return 12.0; }, "",
               {{"code", "200"}});
  EXPECT_EQ(reg.size(), 3u);
  const telemetry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[2].count, 12u);
}

TEST(Registry, GaugeSetIsProcessWide) {
  telemetry::Registry reg;
  telemetry::Gauge g = reg.gauge("depth");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  // Second handle to the same series observes the same slot, from any thread.
  double seen = 0.0;
  std::thread reader([&reg, &seen] { seen = reg.gauge("depth").value(); });
  reader.join();
  EXPECT_DOUBLE_EQ(seen, 2.0);
}

TEST(Registry, CallbackMetricsEvaluateAtSnapshotAndResetDropsThem) {
  telemetry::Registry reg;
  double source = 7.0;
  reg.callback(telemetry::MetricKind::Gauge, "live_value", [&source] { return source; });
  source = 9.0;  // snapshot must see the current value, not the registration-time one
  {
    const telemetry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.samples[0].value, 9.0);
  }
  // reset() drops callback registrations (they capture external state);
  // gauges keep their definitions, zeroed.
  telemetry::Gauge g = reg.gauge("kept");
  g.set(5.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 1u);  // the callback is gone, the gauge def stays
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  // Wiring code re-arms by re-registering; the series comes back live.
  reg.callback(telemetry::MetricKind::Gauge, "live_value", [&source] { return source; });
  source = 11.0;
  const telemetry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  bool found = false;
  for (const telemetry::Sample& s : snap.samples) {
    if (s.name == "live_value") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value, 11.0);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Sum of every parsed series named `name` whose labels contain all of
/// `match` (the raptor_monitor pivot, re-implemented for assertions).
double metric_sum(const std::vector<telemetry::ParsedSample>& samples, std::string_view name,
                  const telemetry::Labels& match = {}) {
  double total = 0.0;
  for (const telemetry::ParsedSample& s : samples) {
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

TEST(Exposition, PrometheusRoundTripSurvivesHostileLabels) {
  telemetry::Registry reg;
  const std::string evil = "mod \"quoted\"\\back\nline2";
  reg.callback(telemetry::MetricKind::Counter, "evil_total", [] { return 5.0; }, "h",
               {{"label", evil}});
  reg.gauge("temperature", "", {{"unit", "C"}}).set(-2.25);
  const std::string text = telemetry::to_prometheus(reg.snapshot());
  // On the wire the label value is one escaped line, newline included.
  EXPECT_NE(text.find("label=\"mod \\\"quoted\\\"\\\\back\\nline2\""), std::string::npos) << text;
  const std::vector<telemetry::ParsedSample> parsed = telemetry::parse_prometheus(text);
  bool found = false;
  for (const telemetry::ParsedSample& s : parsed) {
    if (s.name != "evil_total") continue;
    found = true;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "label");
    EXPECT_EQ(s.labels[0].second, evil);  // unescape restores the exact bytes
    EXPECT_DOUBLE_EQ(s.value, 5.0);
  }
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(metric_sum(parsed, "temperature", {{"unit", "C"}}), -2.25);
}

TEST(Exposition, HeadersAppearOncePerMetricName) {
  telemetry::Registry reg;
  // Two series of one name: HELP/TYPE must appear once, before both.
  reg.callback(telemetry::MetricKind::Counter, "dup_total", [] { return 1.0; }, "once",
               {{"a", "1"}});
  reg.callback(telemetry::MetricKind::Counter, "dup_total", [] { return 2.0; }, "once",
               {{"a", "2"}});
  reg.gauge("temperature").set(0.5);
  const std::string text = telemetry::to_prometheus(reg.snapshot());
  const std::size_t first = text.find("# TYPE dup_total counter");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE dup_total counter", first + 1), std::string::npos)
      << "HELP/TYPE repeated for labelled series of one name:\n"
      << text;
  EXPECT_EQ(text.find("# HELP dup_total", text.find("# HELP dup_total") + 1), std::string::npos)
      << text;
  EXPECT_NE(text.find("dup_total{a=\"1\"} 1\ndup_total{a=\"2\"} 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE temperature gauge\ntemperature 0.5\n"), std::string::npos) << text;
}

TEST(Exposition, MalformedLinesAreDropped) {
  // Each `m` line breaks the format in one place; none may be counted,
  // under `m` or under any other series.
  const std::string text =
      "# HELP m a metric\n"
      "m{a=1} 5\n"                  // unquoted label value
      "m{a=\"1\",b} 2\n"            // label without a value
      "m{a=\"1\"} 12abc\n"          // value not wholly a number
      "m{a=\"1\"} 0x10\n"           // hexadecimal value
      "m{a=\"1\"b=\"2\"} 3\n"       // no comma between pairs
      "m{a=\"1\",} 3\n"             // comma after the last pair
      "m{a=\"1\" } 3\n"             // blank inside the braces
      "m{a=\"1} 4\n"                // unterminated value
      "m{a=\"1\"\n"                 // unterminated block
      "m{a=\"1\"}\n"                // no value
      "m{a=\"1\"}7\n"               // no blank before the value
      "m 1 2 3\n"                   // a token after the timestamp
      "m 1 1.5\n"                   // timestamp not an integer
      "m 1e\n"                      // exponent without digits
      "m .\n"                       // no digits at all
      "m inf\n"                     // non-finite spelled otherwise than +Inf
      "m +-5\n"                     // two signs
      "1m 4\n"                      // metric name starting with a digit
      "{a=\"1\"} 4\n"               // no metric name
      "good{a=\"1\",b=\"q\\\"}x\"} 6 1700000000000\n"
      "up_inf{a=\"\"} +Inf\n"
      "down_inf -Inf\n"
      "not_a_number NaN\n"
      "small -2.5e-3\n"
      "frac .5\n"
      "bare 7\n";
  const std::vector<telemetry::ParsedSample> parsed = telemetry::parse_prometheus(text);
  std::vector<std::string> names;
  for (const telemetry::ParsedSample& s : parsed) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"good", "up_inf", "down_inf", "not_a_number",
                                              "small", "frac", "bare"}));
  ASSERT_EQ(parsed.size(), 7u);
  // Escapes are honoured: the quoted `}` and `\"` belong to the value.
  EXPECT_EQ(parsed[0].labels,
            (telemetry::Labels{{"a", "1"}, {"b", "q\"}x"}}));
  EXPECT_DOUBLE_EQ(parsed[0].value, 6.0);
  EXPECT_EQ(parsed[1].labels, (telemetry::Labels{{"a", ""}}));
  EXPECT_TRUE(std::isinf(parsed[1].value) && parsed[1].value > 0);
  EXPECT_TRUE(std::isinf(parsed[2].value) && parsed[2].value < 0);
  EXPECT_TRUE(std::isnan(parsed[3].value));
  EXPECT_DOUBLE_EQ(parsed[4].value, -2.5e-3);
  EXPECT_DOUBLE_EQ(parsed[5].value, 0.5);
  EXPECT_DOUBLE_EQ(parsed[6].value, 7.0);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// GET `path` against `server` from a client thread while this thread pumps
/// the poll loop — handlers therefore run on the calling (test) thread, so
/// a scrape lands at a known point of the test's worker barriers.
std::optional<std::string> pump_get(telemetry::Server& server, const std::string& path) {
  std::promise<std::optional<std::string>> result;
  std::future<std::optional<std::string>> fut = result.get_future();
  const std::uint16_t port = server.port();
  std::thread client(
      [&result, port, path] { result.set_value(telemetry::http_get(port, path)); });
  while (fut.wait_for(std::chrono::milliseconds(0)) != std::future_status::ready) {
    server.poll(5);
  }
  client.join();
  return fut.get();
}

TEST(Server, RoutesQueriesErrorsAndThrowingHandlers) {
  telemetry::Server server;
  server.handle("/ok", [](const telemetry::HttpRequest& req) {
    return telemetry::HttpResponse{200, "text/plain", "hello " + req.query};
  });
  server.handle("/boom", [](const telemetry::HttpRequest&) -> telemetry::HttpResponse {
    throw std::runtime_error("kaboom");
  });
  ASSERT_TRUE(server.listen(0)) << server.error();
  EXPECT_NE(server.port(), 0);  // ephemeral port resolved
  EXPECT_TRUE(server.listening());

  EXPECT_EQ(pump_get(server, "/ok").value_or("<fail>"), "hello ");
  // Query string is split off the path before dispatch.
  EXPECT_EQ(pump_get(server, "/ok?q=1").value_or("<fail>"), "hello q=1");
  // Unknown path: 404, reported as nullopt by the client.
  EXPECT_FALSE(pump_get(server, "/nope").has_value());
  // A throwing handler becomes a 500 response — and must not kill the loop.
  EXPECT_FALSE(pump_get(server, "/boom").has_value());
  EXPECT_EQ(pump_get(server, "/ok").value_or("<fail>"), "hello ");

  server.stop();
  EXPECT_FALSE(server.listening());
}

// ---------------------------------------------------------------------------
// Runtime wiring: register_runtime_metrics + add_runtime_endpoints
// ---------------------------------------------------------------------------

class LiveTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Runtime::instance().reset_all();
    telemetry::Registry::instance().reset();
  }
  void TearDown() override {
    Runtime::instance().reset_all();
    telemetry::Registry::instance().reset();
  }
  Runtime& R = Runtime::instance();
};

TEST_F(LiveTelemetryTest, ReportEndpointIs404WithoutATraceSession) {
  // SetUp's reset_all() forgets any earlier session's path, so /report has
  // no capture to fall back to, as in a fresh process.
  telemetry::Server server;
  rt::add_runtime_endpoints(server);
  ASSERT_TRUE(server.listen(0)) << server.error();
  EXPECT_FALSE(pump_get(server, "/report").has_value());
  // /metrics still serves (possibly empty) exposition text.
  EXPECT_TRUE(pump_get(server, "/metrics").has_value());
  server.stop();
}

TEST_F(LiveTelemetryTest, RuntimeMetricsMirrorCountersAndRearmAfterReset) {
  // Gauge definitions outlive Registry::reset() by design, so another test
  // may have left some: the runtime's series are the ones registering adds.
  const auto names = [] {
    std::set<std::string> out;
    for (const telemetry::Sample& s : telemetry::Registry::instance().snapshot().samples) {
      out.insert(s.name);
    }
    return out;
  };
  const std::set<std::string> before = names();
  rt::register_runtime_metrics();
  std::set<std::string> runtime_series;
  std::ranges::set_difference(names(), before,
                              std::inserter(runtime_series, runtime_series.end()));
  EXPECT_TRUE(runtime_series.count("raptor_ops_total") && runtime_series.count("raptor_mem_live"));
  {
    Region r("wired");
    for (int i = 0; i < 8; ++i) (void)(Real(1.0) + Real(1.0));
    TruncScope scope(8, 12);
    for (int i = 0; i < 3; ++i) (void)(Real(1.0) * Real(1.0));
  }
  const auto scrape = [] {
    return telemetry::parse_prometheus(
        telemetry::to_prometheus(telemetry::Registry::instance().snapshot()));
  };
  {
    const std::vector<telemetry::ParsedSample> samples = scrape();
    EXPECT_DOUBLE_EQ(metric_sum(samples, "raptor_flops_total", {{"path", "full"}}), 8.0);
    EXPECT_DOUBLE_EQ(metric_sum(samples, "raptor_flops_total", {{"path", "trunc"}}), 3.0);
    EXPECT_DOUBLE_EQ(
        metric_sum(samples, "raptor_ops_total", {{"kind", "fadd"}, {"path", "full"}}), 8.0);
    EXPECT_DOUBLE_EQ(
        metric_sum(samples, "raptor_ops_total", {{"kind", "fmul"}, {"path", "trunc"}}), 3.0);
    EXPECT_GE(metric_sum(samples, "raptor_config_epoch"), 1.0);
    EXPECT_DOUBLE_EQ(metric_sum(samples, "raptor_trace_active"), 0.0);
  }
  // Registry::reset() drops the runtime callbacks, and every sample left is
  // a zeroed gauge; re-registering re-arms every series against the
  // (independently reset or not) runtime.
  telemetry::Registry::instance().reset();
  for (const telemetry::Sample& s : telemetry::Registry::instance().snapshot().samples) {
    EXPECT_EQ(runtime_series.count(s.name), 0u) << s.name << " survived reset()";
    EXPECT_EQ(s.kind, telemetry::MetricKind::Gauge) << s.name;
    EXPECT_EQ(s.value, 0.0) << s.name;
  }
  rt::register_runtime_metrics();
  const std::vector<telemetry::ParsedSample> samples = scrape();
  EXPECT_DOUBLE_EQ(metric_sum(samples, "raptor_flops_total", {{"path", "full"}}), 8.0);
}

// The live acceptance path: a traced run on a worker thread, scraped over
// the socket between barriers — counters advance between polls, final
// totals match the Runtime's own accounting, /report is byte-identical to
// the offline analyzer, and /profile carries per-region wall-clock.
TEST_F(LiveTelemetryTest, EndToEndTracedRunServesAdvancingMetricsAndParityReport) {
  rt::register_runtime_metrics();
  telemetry::Server server;
  rt::add_runtime_endpoints(server);
  ASSERT_TRUE(server.listen(0)) << server.error();

  const std::string path = "test_telemetry_live.rtrace";
  trace::TraceOptions topts;
  topts.path = path;
  topts.sample_stride = 1;
  R.set_region_profiling(true);
  R.trace_start(topts);

  // Two-phase worker parked at a condvar between phases; every scrape below
  // happens while the worker is parked (or joined), so each phase's counts
  // are exact when scraped.
  std::mutex m;
  std::condition_variable cv;
  int ready = 0;
  int go = 0;
  std::thread worker([&] {
    {
      Region r("telemetry/live");
      for (int i = 0; i < 100; ++i) (void)(Real(1.0) + Real(2.0));
      std::unique_lock<std::mutex> lk(m);
      ready = 1;
      cv.notify_all();
      cv.wait(lk, [&] { return go >= 1; });
      lk.unlock();
      for (int i = 0; i < 150; ++i) (void)(Real(1.0) * Real(2.0));
    }
    std::lock_guard<std::mutex> lk(m);
    ready = 2;
    cv.notify_all();
  });

  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return ready >= 1; });
  }
  const std::optional<std::string> body1 = pump_get(server, "/metrics");
  ASSERT_TRUE(body1.has_value());
  const std::vector<telemetry::ParsedSample> s1 = telemetry::parse_prometheus(*body1);
  const double flops1 = metric_sum(s1, "raptor_flops_total");
  EXPECT_DOUBLE_EQ(flops1, 100.0);  // phase 1 only
  EXPECT_DOUBLE_EQ(metric_sum(s1, "raptor_trace_active"), 1.0);

  {
    std::lock_guard<std::mutex> lk(m);
    go = 1;
  }
  cv.notify_all();
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return ready >= 2; });
  }
  const std::optional<std::string> body2 = pump_get(server, "/metrics");
  ASSERT_TRUE(body2.has_value());
  const std::vector<telemetry::ParsedSample> s2 = telemetry::parse_prometheus(*body2);
  EXPECT_GT(metric_sum(s2, "raptor_flops_total"), flops1);  // advanced between polls

  worker.join();
  const trace::TraceStats stats = R.trace_stop();
  R.set_region_profiling(false);

  // Totals at stop match the Runtime exactly, per kind and per path.
  const std::optional<std::string> body3 = pump_get(server, "/metrics");
  ASSERT_TRUE(body3.has_value());
  const std::vector<telemetry::ParsedSample> s3 = telemetry::parse_prometheus(*body3);
  const rt::CounterSnapshot totals = R.counters();
  EXPECT_DOUBLE_EQ(metric_sum(s3, "raptor_flops_total"),
                   static_cast<double>(totals.total_flops()));
  EXPECT_DOUBLE_EQ(metric_sum(s3, "raptor_ops_total", {{"kind", "fadd"}, {"path", "full"}}),
                   100.0);
  EXPECT_DOUBLE_EQ(metric_sum(s3, "raptor_ops_total", {{"kind", "fmul"}, {"path", "full"}}),
                   150.0);
  EXPECT_DOUBLE_EQ(metric_sum(s3, "raptor_trace_events_total"),
                   static_cast<double>(stats.events));
  EXPECT_DOUBLE_EQ(metric_sum(s3, "raptor_trace_active"), 0.0);

  // /report parity: byte-identical to the offline analyzer over the file.
  const std::optional<std::string> report = pump_get(server, "/report");
  ASSERT_TRUE(report.has_value());
  const trace::TraceData td = trace::read_rtrace(path);
  EXPECT_EQ(*report, trace::report_json(td, trace::build_reports(td)));
  EXPECT_NE(report->find("\"telemetry/live\""), std::string::npos);
  // The region carries its wall-clock self-time into the report.
  EXPECT_NE(report->find("\"seconds\":"), std::string::npos);

  // /profile serves the profile dump with the seconds column.
  const std::optional<std::string> profile = pump_get(server, "/profile");
  ASSERT_TRUE(profile.has_value());
  EXPECT_NE(profile->find("telemetry/live"), std::string::npos);
  EXPECT_NE(profile->find("\"seconds\":"), std::string::npos);

  server.stop();
  std::remove(path.c_str());
}

// /report over a rotating session: scrapes taken while the drainer rotates
// adopt each new segment, and the final scrape is byte-identical to the
// offline analysis of the label-keyed merge of every segment.
TEST_F(LiveTelemetryTest, ReportFollowsRotatingSessionAndMatchesOfflineSegments) {
  telemetry::Server server;
  rt::add_runtime_endpoints(server);
  ASSERT_TRUE(server.listen(0)) << server.error();

  const std::string path = "test_telemetry_rotating.rtrace";
  trace::TraceOptions topts;
  topts.path = path;
  topts.sample_stride = 1;
  topts.segment_bytes = 1 << 10;  // tiny: rotate on almost every drain
  topts.drain_interval_ms = 1;
  R.set_region_profiling(true);
  R.trace_start(topts);
  {
    Region r("telemetry/rotating");
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 300; ++i) (void)(Real(1.0 + i) + Real(2.0));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_TRUE(pump_get(server, "/report").has_value());
    }
  }
  const trace::TraceStats stats = R.trace_stop();
  R.set_region_profiling(false);
  ASSERT_GT(stats.segments, 2u);

  const std::optional<std::string> report = pump_get(server, "/report");
  ASSERT_TRUE(report.has_value());
  std::vector<trace::TraceData> segments;
  for (u32 i = 0; i < stats.segments; ++i) {
    segments.push_back(trace::read_rtrace(trace::segment_path(path, i)));
  }
  const trace::TraceData td = trace::merge_traces(segments);
  EXPECT_EQ(*report, trace::report_json(td, trace::build_reports(td)));
  EXPECT_NE(report->find("\"telemetry/rotating\""), std::string::npos);

  server.stop();
  for (u32 i = 0; i < stats.segments; ++i) std::remove(trace::segment_path(path, i).c_str());
}

/// Last value seen per series name; counts every read that stepped back.
struct MonotoneSeries {
  std::map<std::string, double> last;
  u64 steps_back = 0;
  std::string first_step_back;

  /// `slack` absorbs the last-ulp differences a floating-point sum may show
  /// when a retiring thread changes its summation order (seconds only).
  void see(const std::string& series, double v, double slack = 0.0) {
    auto [it, fresh] = last.try_emplace(series, v);
    if (!fresh && v < it->second - slack * it->second) {
      if (steps_back++ == 0) {
        first_step_back = series + ": " + std::to_string(it->second) + " -> " + std::to_string(v);
      }
    }
    if (v > it->second) it->second = v;
  }
};

/// `"key": <number>` from one /profile row (counts below 2^53 are exact).
double json_number(const std::string& row, const std::string& key) {
  const std::size_t at = row.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0.0;
  return std::stod(row.substr(at + key.size() + 4));
}

// The live reads need no barrier (DESIGN.md §7). Four workers count scalar
// ops, batch ops and memory traffic in four regions, two of which first
// appear mid-run, and two workers exit mid-run. Meanwhile this thread calls
// counters() and region_profiles() and GETs /metrics and /profile in a loop
// that synchronizes with nothing the workers do (the round counter they
// poll is relaxed). Every series read must be non-decreasing, and after the
// join the thread totals, the region rows and /metrics all hold the exact op
// count. Under TSan (CI) any unsynchronized access fails the suite.
TEST_F(LiveTelemetryTest, BarrierFreeReadsAreMonotoneAndExact) {
  rt::register_runtime_metrics();
  telemetry::Server server;
  rt::add_runtime_endpoints(server);
  ASSERT_TRUE(server.listen(0)) << server.error();
  std::atomic<bool> stop_pump{false};
  std::thread pump([&] {
    while (!stop_pump.load(std::memory_order_relaxed)) server.poll(2);
  });

  constexpr int kWorkers = 4;
  constexpr std::size_t kLanes = 37;
  constexpr u64 kScalarBytes = 24;
  R.set_region_profiling(true);
  std::atomic<int> rounds{0};  // reader rounds completed
  std::atomic<int> running{kWorkers};
  std::vector<u64> iters(kWorkers, 0);  // each worker's own slot, read after join
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Runtime& rt = Runtime::instance();
      const std::vector<double> a(kLanes, 1.5);
      const std::vector<double> b(kLanes, 2.0);
      std::vector<double> out(kLanes);
      const int last_round = w < 2 ? 2 : 5;  // workers 0 and 1 exit mid-run
      u64 n = 0;
      for (bool last = false; !last; ++n) {
        const int round = rounds.load(std::memory_order_relaxed);
        last = n >= 50 && round >= last_round;
        {
          Region r("live/scalar");
          TruncScope scope(8, 12);
          (void)rt.op2(rt::OpKind::Add, 1.0, 2.0);
          (void)rt.op1(rt::OpKind::Sqrt, 2.0);
          rt.count_mem(kScalarBytes);
        }
        // Labels the reader's first round cannot have seen; every worker's
        // last iteration uses one.
        const bool late = n >= 25 && round >= 1;
        Region r(!late ? "live/batch" : w % 2 == 0 ? "live/late/even" : "live/late/odd");
        (void)rt.op2_batch(rt::OpKind::Mul, a.data(), b.data(), out.data(), kLanes);
        rt.count_mem(kLanes * sizeof(double));
      }
      iters[static_cast<std::size_t>(w)] = n;
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  MonotoneSeries seen;
  const std::uint16_t port = server.port();
  const auto read_all = [&] {
    const rt::CounterSnapshot c = R.counters();
    seen.see("counters.trunc_flops", static_cast<double>(c.trunc_flops));
    seen.see("counters.full_flops", static_cast<double>(c.full_flops));
    seen.see("counters.trunc_bytes", static_cast<double>(c.trunc_bytes));
    seen.see("counters.full_bytes", static_cast<double>(c.full_bytes));
    for (int k = 0; k < rt::kNumOpKinds; ++k) {
      seen.see("counters.trunc." + std::to_string(k), static_cast<double>(c.trunc_by_kind[k]));
      seen.see("counters.full." + std::to_string(k), static_cast<double>(c.full_by_kind[k]));
    }
    for (const rt::RegionProfileEntry& e : R.region_profiles()) {
      const rt::CounterSnapshot& p = e.profile.counters;
      seen.see("profiles." + e.label + ".flops", static_cast<double>(p.total_flops()));
      seen.see("profiles." + e.label + ".bytes", static_cast<double>(p.total_bytes()));
      seen.see("profiles." + e.label + ".seconds", e.profile.seconds, 1e-12);
    }
    if (const std::optional<std::string> body = telemetry::http_get(port, "/metrics")) {
      for (const telemetry::ParsedSample& s : telemetry::parse_prometheus(*body)) {
        std::string series = "metrics." + s.name;
        for (const auto& [k, v] : s.labels) series += "," + k + "=" + v;
        seen.see(series, s.value);
      }
    } else {
      ADD_FAILURE() << "GET /metrics failed";
    }
    if (const std::optional<std::string> body = telemetry::http_get(port, "/profile")) {
      std::istringstream rows(*body);
      for (std::string row; std::getline(rows, row);) {
        const std::size_t at = row.find("\"region\": \"");
        if (at == std::string::npos) continue;
        const std::string label = row.substr(at + 11, row.find('"', at + 11) - (at + 11));
        for (const char* key : {"trunc_flops", "full_flops", "trunc_bytes", "full_bytes"}) {
          seen.see("profile." + label + "." + key, json_number(row, key));
        }
        // The dump prints six significant digits, so a sum rounded there
        // may show the summation-order ulp as one step in the last digit.
        seen.see("profile." + label + ".seconds", json_number(row, "seconds"), 1e-5);
      }
    } else {
      ADD_FAILURE() << "GET /profile failed";
    }
  };
  while (running.load(std::memory_order_relaxed) > 0) {
    read_all();
    rounds.store(rounds.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  for (std::thread& t : workers) t.join();
  read_all();  // every worker has retired: the totals are final
  stop_pump.store(true, std::memory_order_relaxed);
  pump.join();
  server.stop();
  R.set_region_profiling(false);

  EXPECT_EQ(seen.steps_back, 0u) << "first step back: " << seen.first_step_back;
  EXPECT_GE(rounds.load(), 5);

  u64 total_iters = 0;
  for (const u64 n : iters) total_iters += n;
  const u64 expect_flops = total_iters * (2 + kLanes);
  const rt::CounterSnapshot c = R.counters();
  EXPECT_EQ(c.total_flops(), expect_flops);
  EXPECT_EQ(c.trunc_flops, 2 * total_iters);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Add)], total_iters);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(rt::OpKind::Sqrt)], total_iters);
  EXPECT_EQ(c.full_by_kind[static_cast<int>(rt::OpKind::Mul)], total_iters * kLanes);
  EXPECT_EQ(c.trunc_bytes, total_iters * kScalarBytes);
  EXPECT_EQ(c.full_bytes, total_iters * kLanes * sizeof(double));

  u64 region_flops = 0;
  std::vector<std::string> labels;
  for (const rt::RegionProfileEntry& e : R.region_profiles()) {
    region_flops += e.profile.counters.total_flops();
    labels.push_back(e.label);
  }
  EXPECT_EQ(region_flops, expect_flops);
  std::sort(labels.begin(), labels.end());
  // <toplevel> holds the time between the two regions of an iteration.
  EXPECT_EQ(labels, (std::vector<std::string>{"<toplevel>", "live/batch", "live/late/even",
                                              "live/late/odd", "live/scalar"}));
  // The last read above ran after the join, so /metrics holds the totals.
  double ops_sum = 0.0;
  for (const auto& [series, v] : seen.last) {
    if (series.rfind("metrics.raptor_ops_total,", 0) == 0) ops_sum += v;
  }
  EXPECT_DOUBLE_EQ(ops_sum, static_cast<double>(expect_flops));
}

// A /metrics render reads one counters() snapshot, so its series agree
// with each other while workers count: in every render each path's flop
// total equals the sum of its per-kind op counts.
TEST_F(LiveTelemetryTest, MetricsRenderReadsOneCounterSnapshot) {
  rt::register_runtime_metrics();
  constexpr int kWorkers = 2;
  constexpr int kRenders = 400;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Runtime& rt = Runtime::instance();
      const std::vector<double> a(16, 1.5);
      std::vector<double> out(a.size());
      started.fetch_add(1, std::memory_order_relaxed);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)rt.op2(rt::OpKind::Add, 1.0, 2.0);
        (void)rt.op2_batch(rt::OpKind::Mul, a.data(), a.data(), out.data(), a.size());
        TruncScope scope(8, 12);
        (void)rt.op2(w == 0 ? rt::OpKind::Sub : rt::OpKind::Div, 1.0, 2.0);
        (void)rt.op1(rt::OpKind::Sqrt, 2.0);
      }
    });
  }
  while (started.load(std::memory_order_relaxed) < kWorkers) std::this_thread::yield();
  int mismatches = 0;
  std::string first;
  double last_flops = 0.0;
  for (int r = 0; r < kRenders; ++r) {
    const std::vector<telemetry::ParsedSample> samples = telemetry::parse_prometheus(
        telemetry::to_prometheus(telemetry::Registry::instance().snapshot()));
    for (const char* path : {"trunc", "full"}) {
      const double flops = metric_sum(samples, "raptor_flops_total", {{"path", path}});
      const double ops = metric_sum(samples, "raptor_ops_total", {{"path", path}});
      if (flops != ops && mismatches++ == 0) {
        first = "render " + std::to_string(r) + " path " + path + ": flops " +
                std::to_string(flops) + " != ops " + std::to_string(ops);
      }
    }
    last_flops = metric_sum(samples, "raptor_flops_total");
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches, 0) << first;
  EXPECT_GT(last_flops, 0.0);
}

// raptor_trace_{events,dropped}_total are Prometheus counters, so the
// runtime totals behind them may never step back — not even while
// trace_stop() joins the drainer and drains the rings. A reader loops over
// both while this thread cycles sessions; small rings make drops happen.
TEST_F(LiveTelemetryTest, TraceTotalsNeverStepBackAcrossSessions) {
  constexpr int kSessions = 40;
  constexpr int kOps = 2000;
  const std::string path = "test_telemetry_totals.rtrace";
  std::atomic<bool> done{false};
  u64 steps_back = 0;
  u64 reads = 0;
  std::thread reader([&] {
    u64 last_events = 0;
    u64 last_dropped = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const u64 events = R.trace_events_total();
      const u64 dropped = R.trace_dropped_total();
      steps_back += static_cast<u64>(events < last_events) + static_cast<u64>(dropped < last_dropped);
      last_events = std::max(last_events, events);
      last_dropped = std::max(last_dropped, dropped);
      ++reads;
    }
  });
  trace::TraceOptions topts;
  topts.path = path;
  topts.sample_stride = 1;
  topts.ring_capacity = 512;
  u64 events = 0;
  u64 dropped = 0;
  for (int s = 0; s < kSessions; ++s) {
    R.trace_start(topts);
    for (int i = 0; i < kOps; ++i) (void)R.op2(rt::OpKind::Add, 1.0, 2.0);
    const trace::TraceStats stats = R.trace_stop();
    events += stats.events;
    dropped += stats.dropped;
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  std::remove(path.c_str());

  EXPECT_GT(reads, 0u);
  EXPECT_EQ(steps_back, 0u) << "over " << reads << " reads";
  EXPECT_EQ(events + dropped, static_cast<u64>(kSessions) * kOps);
  EXPECT_EQ(R.trace_events_total(), events);
  EXPECT_EQ(R.trace_dropped_total(), dropped);
  R.reset_all();
  EXPECT_EQ(R.trace_events_total(), 0u);
  EXPECT_EQ(R.trace_dropped_total(), 0u);
}

// ---------------------------------------------------------------------------
// Search: the wall-clock dimension (SearchOptions::min_time_share)
// ---------------------------------------------------------------------------

class SearchTimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override { Runtime::instance().reset_all(); }
};

/// Two regions with opposite rankings: "fast" dominates the flop count,
/// "slow" dominates the wall clock (it sleeps). Exact-representable values
/// keep every candidate format's error at zero.
search::Workload make_time_skewed_workload() {
  search::Workload wl;
  wl.name = "timeshare";
  wl.run = [] {
    std::vector<double> obs;
    {
      Region fast("fast");
      Real s(0.0);
      for (int i = 0; i < 400; ++i) s = s + Real(1.0);
      obs.push_back(to_double(s));
    }
    {
      Region slow("slow");
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      obs.push_back(to_double(Real(2.0) * Real(3.0)));
    }
    return obs;
  };
  return wl;
}

const search::RegionChoice* find_choice(const std::vector<search::RegionChoice>& v,
                                        const std::string& region) {
  for (const search::RegionChoice& c : v) {
    if (c.region == region) return &c;
  }
  return nullptr;
}

TEST_F(SearchTimeTest, MinTimeShareSkipsWallClockCheapRegions) {
  search::SearchOptions opts;
  opts.tolerance = 0.5;
  opts.min_man = 8;
  opts.min_flop_share = 0.0;  // isolate the time filter
  opts.min_time_share = 0.5;  // "slow"'s sleep dominates the profiled time
  const search::SearchResult res = search::PrecisionSearch(opts).run(make_time_skewed_workload());
  const search::RegionChoice* fast = find_choice(res.choices, "fast");
  const search::RegionChoice* slow = find_choice(res.choices, "slow");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  // Flop-heavy but wall-clock-cheap: the time filter leaves it native.
  EXPECT_FALSE(fast->truncated);
  // The region that owns the wall clock gets searched and truncated.
  EXPECT_TRUE(slow->truncated);
  // Choices carry the reference profile's wall-clock self-time.
  EXPECT_GT(slow->seconds, fast->seconds);
  EXPECT_GE(slow->seconds, 0.010);
}

TEST_F(SearchTimeTest, TimeFilterOffSearchesEveryRegionAndProfilesSeconds) {
  search::SearchOptions opts;
  opts.tolerance = 0.5;
  opts.min_man = 8;
  opts.min_flop_share = 0.0;
  opts.min_time_share = 0.0;  // default: the time filter is disabled
  const search::SearchResult res = search::PrecisionSearch(opts).run(make_time_skewed_workload());
  const search::RegionChoice* fast = find_choice(res.choices, "fast");
  const search::RegionChoice* slow = find_choice(res.choices, "slow");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  EXPECT_TRUE(fast->truncated);
  EXPECT_TRUE(slow->truncated);
  // The reference profile rows expose the same time dimension.
  bool found = false;
  for (const rt::RegionProfileEntry& e : res.reference_profile) {
    if (e.label == "slow") {
      found = true;
      EXPECT_GE(e.profile.seconds, 0.010);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace raptor
