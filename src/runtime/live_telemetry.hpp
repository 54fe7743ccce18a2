// Runtime → telemetry wiring (DESIGN.md §16): registers callback metrics
// over the instrumentation the runtime already pays for, and installs the
// HTTP endpoints the telemetry server exposes. This is the only place the
// runtime and telemetry layers meet — the registry and server themselves
// depend on nothing above raptor_support, so tests and tools can use them
// without a runtime.
//
//   register_runtime_metrics(reg)  one callback series per existing counter:
//     raptor_ops_total{kind,path}      per-OpKind op counts (trunc/full)
//     raptor_flops_total{path}         flop totals          (trunc/full)
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
// Concurrency contract. Callbacks are evaluated at scrape time. The shadow
// table's and the trace session's figures are atomics or mutex-guarded, but
// the op, flop and byte series read Runtime::counters(), which takes the
// thread-list mutex and then sums every live thread's plain u64 counters
// while their owners keep writing them. That read is a data race in the C++
// memory model (TSan reports it), not only a stale one: a value may be
// missed or, on a target without atomic 64-bit stores, torn. So serving
// /metrics mid-run gives approximate, possibly non-monotonic op series; the
// numbers are exact only while no instrumented code runs (between runs or at
// barriers). /profile reads region_profiles(), which is stricter still: it
// walks other threads' region maps, which their owners insert into, so
// scrape it only while no instrumented code runs. Both caveats stay until
// the per-thread counters become single-writer atomic cells (ROADMAP item 1).
//
// reset() on the registry drops callback registrations (they capture
// runtime state); call register_runtime_metrics again to re-arm. The call
// is idempotent.
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
