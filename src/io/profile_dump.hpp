// Serialization of the per-region profile aggregation (DESIGN.md §10): the
// rows behind the precision-search ranking, dumped as CSV (spreadsheet /
// plotting) or JSON (tool ingestion). Columns mirror rt::RegionProfile,
// including the per-region wall-clock seconds the runtime accrues when
// region profiling is on (DESIGN.md §16).
//
// Region labels are user-controlled strings, so both writers escape them
// via the shared helpers in support/escape.hpp (JSON per RFC 8259, CSV per
// RFC 4180 — the same implementations the telemetry exposition layer uses,
// so a label round-trips identically through every serializer). The JSON
// dump is the /profile body; it streams through support/json.hpp, which
// spells the non-finite numbers JSON lacks (mem-mode max_deviation can
// legitimately be +inf) as the strings "inf" / "-inf" / "nan".
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "runtime/counters.hpp"
#include "support/escape.hpp"
#include "support/json.hpp"

namespace raptor::io {

using raptor::csv_field;

inline void write_region_profiles_csv(const std::string& path,
                                      const std::vector<rt::RegionProfileEntry>& entries) {
  CsvWriter csv(path, {"region", "trunc_flops", "full_flops", "trunc_bytes", "full_bytes",
                       "trunc_fraction", "seconds", "max_deviation", "flagged"});
  for (const auto& e : entries) {
    const rt::CounterSnapshot& c = e.profile.counters;
    csv.row_strings({csv_field(e.label), std::to_string(c.trunc_flops),
                     std::to_string(c.full_flops), std::to_string(c.trunc_bytes),
                     std::to_string(c.full_bytes), std::to_string(c.trunc_fraction()),
                     std::to_string(e.profile.seconds),
                     std::to_string(e.profile.max_deviation),
                     std::to_string(e.profile.flagged)});
  }
}

inline void write_region_profiles_json(std::ostream& out,
                                       const std::vector<rt::RegionProfileEntry>& entries) {
  json::Writer w(out);
  w.begin_array();
  for (const auto& e : entries) {
    const rt::CounterSnapshot& c = e.profile.counters;
    w.begin_object()
        .field("region", e.label)
        .field("trunc_flops", c.trunc_flops)
        .field("full_flops", c.full_flops)
        .field("trunc_bytes", c.trunc_bytes)
        .field("full_bytes", c.full_bytes)
        .field("trunc_fraction", c.trunc_fraction())
        .field("seconds", e.profile.seconds)
        .field("max_deviation", e.profile.max_deviation)
        .field("flagged", e.profile.flagged)
        .end_object();
  }
  w.end_array();
}

inline void write_region_profiles_json(const std::string& path,
                                       const std::vector<rt::RegionProfileEntry>& entries) {
  std::ofstream out(path);
  RAPTOR_REQUIRE(out.good(), "write_region_profiles_json: cannot open output file");
  write_region_profiles_json(out, entries);
}

}  // namespace raptor::io
