// Runtime → telemetry wiring (DESIGN.md §16): registers callback metrics
// over the instrumentation the runtime already pays for, and installs the
// HTTP endpoints the telemetry server exposes. This is the only place the
// runtime and telemetry layers meet — the registry and server themselves
// depend on nothing above raptor_support, so tests and tools can use them
// without a runtime.
//
//   register_runtime_metrics(reg)  one callback series per existing counter:
//     raptor_ops_total{kind,path}      per-OpKind op counts (trunc/full)
//     raptor_flops_total{path}         flop totals          (trunc/full,
//                                      the sum of the op kinds' counts)
//     raptor_mem_bytes_total{path}     memory traffic       (trunc/full)
//     raptor_mem_live                  shadow-table live entries
//     raptor_mem_leaked_total          handles found live across mem_clear()
//     raptor_mem_locked_sections_total shadow-table locked sections
//     raptor_config_epoch              truncation-cache invalidation count
//     raptor_trace_{active,events_total,dropped_total,threads,segments}
//   add_runtime_endpoints(server)  GET handlers:
//     /metrics   Prometheus text of Registry::instance().snapshot()
//     /profile   region-profile JSON (io::write_region_profiles_json)
//     /report    live trace analysis (RtraceStream over the active capture
//                and its rotation segments) as trace::report_json — the
//                same bytes `raptor_trace --json` derives offline
//
// Concurrency contract: every endpoint is safe at any time, mid-run
// included. Callbacks are evaluated at scrape time. The op, flop and byte
// series of one snapshot read one Runtime::counters() merge, which a
// registry snapshot hook takes before the callbacks run, so a /metrics
// render costs one merge and its flop totals equal its op sums. That merge
// and /profile's region_profiles() load the per-thread single-writer cells
// under the thread-list lock while their owners keep counting, so each
// series is exact up to the ops still in flight and never steps back. The
// shadow table's figures are atomics; the trace series read the tracer's
// atomic flag or take its mutex, and the cumulative trace totals include
// the session being stopped. /report reads the capture file, not runtime
// state.
//
// reset() on the registry drops callback registrations and the hook (they
// capture runtime state); call register_runtime_metrics again to re-arm.
// The call is idempotent.
#pragma once

#include <string>

#include "telemetry/registry.hpp"
#include "telemetry/server.hpp"

namespace raptor::rt {

/// Register the runtime's callback metrics into `reg` (default: the
/// process-wide registry). Idempotent; re-registration replaces the
/// callbacks, so it also re-arms after Registry::reset().
void register_runtime_metrics(telemetry::Registry& reg = telemetry::Registry::instance());

/// Install /metrics, /profile and /report on `server`. `trace_path` pins
/// the capture /report analyzes; empty resolves the active trace session's
/// path at request time (404 when no session ever started).
void add_runtime_endpoints(telemetry::Server& server, const std::string& trace_path = {});

}  // namespace raptor::rt
