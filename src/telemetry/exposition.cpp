#include "telemetry/exposition.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/escape.hpp"

namespace raptor::telemetry {

namespace {

/// Prometheus floating-point rendering: shortest round-trippable decimal,
/// with the format's spellings for the non-finite values.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `{k1="v1",k2="v2"}`, empty string when there are no labels.
std::string label_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prom_escape_label(v);
    out += '"';
  }
  out += '}';
  return out;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
  }
  return "untyped";
}

bool is_blank(char c) { return c == ' ' || c == '\t'; }

/// Metric names may contain ':', label names may not.
bool is_name_char(char c, bool first, bool colon) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || (colon && c == ':') ||
         (!first && c >= '0' && c <= '9');
}

/// Length of the name at the start of `s` (0: none).
std::size_t name_length(std::string_view s, bool colon) {
  std::size_t n = 0;
  while (n < s.size() && is_name_char(s[n], n == 0, colon)) ++n;
  return n;
}

/// Wholly an integer (a timestamp).
bool is_integer(std::string_view t) {
  long long v = 0;
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  return ec == std::errc() && end == t.data() + t.size();
}

/// A sample value: `+Inf`, `-Inf`, `NaN`, or wholly a decimal number.
bool parse_value(std::string_view t, double& out) {
  if (t == "+Inf" || t == "-Inf" || t == "NaN") {
    out = t == "NaN" ? NAN : t.front() == '-' ? -HUGE_VAL : HUGE_VAL;
    return true;
  }
  const bool plus = !t.empty() && t.front() == '+';
  if (plus) t.remove_prefix(1);  // from_chars reads '-' only
  // from_chars also reads other spellings of infinity and NaN: a number
  // starts with a digit or a point after its one sign.
  const std::size_t lead = !plus && !t.empty() && t.front() == '-' ? 1 : 0;
  if (lead >= t.size() || !(std::isdigit(static_cast<unsigned char>(t[lead])) || t[lead] == '.')) {
    return false;
  }
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc() && end == t.data() + t.size();
}

/// The label block after a metric name's `{`: `name="value"` pairs with
/// backslash escapes, commas between them, up to the closing `}`. Advances
/// `i` past the `}`.
bool parse_labels(std::string_view line, std::size_t& i, Labels& out) {
  if (i < line.size() && line[i] == '}') {
    ++i;
    return true;
  }
  for (;;) {
    const std::size_t key_len = name_length(line.substr(i), /*colon=*/false);
    if (key_len == 0) return false;
    std::string key(line.substr(i, key_len));
    i += key_len;
    if (line.substr(i, 2) != "=\"") return false;
    i += 2;
    std::string raw;  // escaped bytes, unescaped below
    for (;; ++i) {
      if (i >= line.size()) return false;
      if (line[i] == '"') break;
      if (line[i] == '\\') {
        if (i + 1 >= line.size()) return false;
        raw += line[i++];
      }
      raw += line[i];
    }
    ++i;  // the closing quote
    out.emplace_back(std::move(key), prom_unescape_label(raw));
    if (i < line.size() && line[i] == '}') {
      ++i;
      return true;
    }
    if (i >= line.size() || line[i] != ',') return false;
    ++i;
  }
}

/// One series line: name, optional label block, blank, value, and an
/// optional integer timestamp. False on anything else.
bool parse_series(std::string_view line, ParsedSample& sample) {
  std::size_t i = name_length(line, /*colon=*/true);
  if (i == 0) return false;
  sample.name = std::string(line.substr(0, i));
  if (i < line.size() && line[i] == '{') {
    ++i;
    if (!parse_labels(line, i, sample.labels)) return false;
  }
  if (i >= line.size() || !is_blank(line[i])) return false;
  std::string_view tokens[2];
  std::size_t n = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (n == 2) return false;
    tokens[n++] = line.substr(start, i - start);
  }
  return n > 0 && parse_value(tokens[0], sample.value) && (n == 1 || is_integer(tokens[1]));
}

}  // namespace

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_header;  // suppress repeated HELP/TYPE for labelled series
  for (const Sample& s : snap.samples) {
    if (s.name != last_header) {
      out += "# HELP " + s.name + ' ' + (s.help.empty() ? s.name : s.help) + '\n';
      out += "# TYPE " + s.name + ' ' + kind_name(s.kind) + '\n';
      last_header = s.name;
    }
    if (s.kind == MetricKind::Counter) {
      out += s.name + label_block(s.labels) + ' ' + std::to_string(s.count) + '\n';
    } else {
      out += s.name + label_block(s.labels) + ' ' + prom_double(s.value) + '\n';
    }
  }
  return out;
}

std::vector<ParsedSample> parse_prometheus(std::string_view text) {
  std::vector<ParsedSample> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t") == std::string_view::npos || line.front() == '#') continue;
    ParsedSample sample;
    if (parse_series(line, sample)) out.push_back(std::move(sample));
  }
  return out;
}

}  // namespace raptor::telemetry
