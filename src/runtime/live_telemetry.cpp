#include "runtime/live_telemetry.hpp"

#include <memory>
#include <sstream>
#include <vector>

#include "io/profile_dump.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/exposition.hpp"
#include "trace/analysis.hpp"
#include "trace/rtrace.hpp"

namespace raptor::rt {

namespace {

double u2d(u64 v) { return static_cast<double>(v); }

}  // namespace

void register_runtime_metrics(telemetry::Registry& reg) {
  Runtime& R = Runtime::instance();
  using telemetry::MetricKind;

  // One counters() merge per snapshot, taken by the hook: every op, flop
  // and byte series of a render reads the same instant. A flop total is
  // rendered as the sum of that instant's per-kind counts, because a worker
  // bumps its total and its kind's count in two stores and the merge may
  // land between them.
  auto counts = std::make_shared<CounterSnapshot>();
  reg.snapshot_hook("raptor_counters", [&R, counts] { *counts = R.counters(); });
  const auto sum = [](const auto& by_kind) {
    u64 total = 0;
    for (const u64 n : by_kind) total += n;
    return u2d(total);
  };
  for (int k = 0; k < kNumOpKinds; ++k) {
    const char* kind = op_name(static_cast<OpKind>(k));
    const auto i = static_cast<std::size_t>(k);
    reg.callback(
        MetricKind::Counter, "raptor_ops_total",
        [counts, i] { return u2d(counts->trunc_by_kind[i]); },
        "Instrumented FP operations by op kind", {{"kind", kind}, {"path", "trunc"}});
    reg.callback(
        MetricKind::Counter, "raptor_ops_total",
        [counts, i] { return u2d(counts->full_by_kind[i]); },
        "Instrumented FP operations by op kind", {{"kind", kind}, {"path", "full"}});
  }
  reg.callback(
      MetricKind::Counter, "raptor_flops_total",
      [counts, sum] { return sum(counts->trunc_by_kind); },
      "Instrumented FP operations (paper §3.4 counters)", {{"path", "trunc"}});
  reg.callback(
      MetricKind::Counter, "raptor_flops_total",
      [counts, sum] { return sum(counts->full_by_kind); },
      "Instrumented FP operations (paper §3.4 counters)", {{"path", "full"}});
  reg.callback(
      MetricKind::Counter, "raptor_mem_bytes_total", [counts] { return u2d(counts->trunc_bytes); },
      "Counted memory traffic in bytes", {{"path", "trunc"}});
  reg.callback(
      MetricKind::Counter, "raptor_mem_bytes_total", [counts] { return u2d(counts->full_bytes); },
      "Counted memory traffic in bytes", {{"path", "full"}});

  reg.callback(
      MetricKind::Gauge, "raptor_mem_live", [&R] { return u2d(R.mem_live()); },
      "Live mem-mode shadow-table entries");
  reg.callback(
      MetricKind::Counter, "raptor_mem_leaked_total", [&R] { return u2d(R.mem_leaked_total()); },
      "Handles found still live across every mem_clear()");
  reg.callback(
      MetricKind::Counter, "raptor_mem_locked_sections_total",
      [&R] { return u2d(R.mem_locked_sections()); },
      "Shadow-table locked sections entered (mem-mode cost model)");
  reg.callback(
      MetricKind::Counter, "raptor_config_epoch", [&R] { return u2d(R.config_epoch()); },
      "Truncation-config epoch: per-thread cache invalidation broadcasts");

  reg.callback(
      MetricKind::Gauge, "raptor_trace_active", [&R] { return R.trace_active() ? 1.0 : 0.0; },
      "1 while a trace session is capturing");
  reg.callback(
      MetricKind::Counter, "raptor_trace_events_total",
      [&R] { return u2d(R.trace_events_total()); },
      "Trace events written to capture files (cumulative across sessions)");
  reg.callback(
      MetricKind::Counter, "raptor_trace_dropped_total",
      [&R] { return u2d(R.trace_dropped_total()); },
      "Trace events dropped on ring overflow (cumulative across sessions)");
  reg.callback(
      MetricKind::Gauge, "raptor_trace_threads", [&R] { return u2d(R.trace_stats_now().threads); },
      "Threads producing into the active trace session");
  reg.callback(
      MetricKind::Gauge, "raptor_trace_segments",
      [&R] { return u2d(R.trace_stats_now().segments); },
      "Rotation segments written by the active trace session");
}

void add_runtime_endpoints(telemetry::Server& server, const std::vector<std::string>& trace_paths) {
  server.handle("/metrics", [](const telemetry::HttpRequest&) {
    telemetry::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = telemetry::to_prometheus(telemetry::Registry::instance().snapshot());
    return resp;
  });

  server.handle("/profile", [](const telemetry::HttpRequest&) {
    telemetry::HttpResponse resp;
    resp.content_type = "application/json";
    std::ostringstream os;
    io::write_region_profiles_json(os, Runtime::instance().region_profiles());
    resp.body = os.str();
    return resp;
  });

  // One reader per capture, kept across requests: each scrape decodes only
  // the bytes appended since the last one, exactly like `raptor_trace
  // --follow`. The server is single-threaded (poll loop), so the reader
  // needs no lock.
  server.handle("/report", [trace_paths, reader = std::shared_ptr<trace::Capture>()](
                               const telemetry::HttpRequest&) mutable {
    telemetry::HttpResponse resp;
    std::vector<std::string> paths = trace_paths;
    if (paths.empty()) paths.push_back(Runtime::instance().trace_options().path);
    if (paths.front().empty()) {
      resp.status = 404;
      resp.content_type = "text/plain";
      resp.body = "no trace capture: start a trace session or pass an explicit path\n";
      return resp;
    }
    if (!reader || reader->inputs() != paths) reader = std::make_shared<trace::Capture>(paths);
    reader->poll();
    resp.content_type = "application/json";
    resp.body = trace::report_json(reader->data(), trace::build_reports(reader->data()));
    return resp;
  });
}

}  // namespace raptor::rt
