// Serializers for Registry snapshots (DESIGN.md §16):
//
//   * to_prometheus(): the Prometheus text exposition format, version
//     0.0.4 — `# HELP` / `# TYPE` headers once per metric name, one
//     `name{labels} value` line per series. Label values escape
//     backslash, quote and newline via the shared helper in
//     support/escape.hpp.
//   * parse_prometheus(): a minimal exposition-text parser, enough for the
//     raptor_monitor client and the round-trip tests — series lines only,
//     comments skipped, labels unescaped, malformed lines dropped.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.hpp"

namespace raptor::telemetry {

[[nodiscard]] std::string to_prometheus(const Snapshot& snap);

/// One parsed exposition-format series line.
struct ParsedSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Parse exposition text into series samples. Comment (`#`) and blank
/// lines are skipped. A series line is kept only when it is wholly
/// `name{label="value",...} value [timestamp]`: a metric name, an optional
/// label block of `name="value"` pairs (backslash escapes honoured, commas
/// between pairs, no blanks inside the braces), then blanks, a value that is
/// wholly a decimal number, `+Inf`, `-Inf` or `NaN`, and optionally an
/// integer timestamp. Any other line is dropped rather than fatal (the
/// monitor polls a live server and must tolerate torn reads), so a malformed
/// line is never counted under the wrong series.
[[nodiscard]] std::vector<ParsedSample> parse_prometheus(std::string_view text);

}  // namespace raptor::telemetry
