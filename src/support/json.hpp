// The one JSON writer of the tree: the /profile and /report documents
// (io/profile_dump.hpp, trace/analysis.cpp) and every BENCH_*.json
// (bench/report.hpp) stream through it, so they share one layout:
//
//   * objects inline: {"key": value, "key": value};
//   * arrays one element per line, indented two spaces per open array,
//     the closing bracket on its own line: "[\n  a,\n  b\n]", "[\n]" when
//     empty;
//   * doubles as %.6g (what std::ostream prints by default); non-finite
//     doubles, which JSON cannot spell, as the strings "inf", "-inf" and
//     "nan" (mem-mode deviations can legitimately be +inf);
//   * integers exact, booleans true/false, strings through json_escape;
//   * a finished top-level value ends with a newline.
//
// Debug builds assert the call sequence (keys inside objects only).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/common.hpp"
#include "support/escape.hpp"

namespace raptor::json {

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  Writer& begin_object() { return open('{', false); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('[', true); }
  Writer& end_array() { return close(']'); }

  /// The key of the next member of the innermost object.
  Writer& key(std::string_view k) {
    RAPTOR_ASSERT(!stack_.empty() && !stack_.back().array && !keyed_);
    if (stack_.back().count++ > 0) out_ << ", ";
    out_ << '"' << json_escape(k) << "\": ";
    keyed_ = true;
    return *this;
  }

  Writer& value(std::string_view s) {
    before_value();
    out_ << '"' << json_escape(s) << '"';
    return after_value();
  }

  template <class T>
    requires std::is_arithmetic_v<T>
  Writer& value(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      before_value();
      out_ << (v ? "true" : "false");
    } else if constexpr (std::is_floating_point_v<T>) {
      const double d = static_cast<double>(v);
      if (!std::isfinite(d)) return value(std::isnan(d) ? "nan" : d > 0 ? "inf" : "-inf");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", d);
      before_value();
      out_ << buf;
    } else {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, v);
      before_value();
      out_ << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
    }
    return after_value();
  }

  /// key(k) then value(v).
  template <class T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  struct Level {
    bool array = false;
    std::size_t count = 0;
  };

  /// Separator and indentation before a value: an array element starts a
  /// new line, an object member follows its key.
  void before_value() {
    if (stack_.empty()) return;
    if (stack_.back().array) {
      out_ << (stack_.back().count++ > 0 ? ",\n" : "\n");
      indent(arrays_);
    } else {
      RAPTOR_ASSERT(keyed_);
      keyed_ = false;
    }
  }
  Writer& after_value() {
    if (stack_.empty()) out_ << '\n';
    return *this;
  }
  Writer& open(char bracket, bool array) {
    before_value();
    out_ << bracket;
    stack_.push_back({array, 0});
    if (array) ++arrays_;
    return *this;
  }
  Writer& close(char bracket) {
    RAPTOR_ASSERT(!stack_.empty() && stack_.back().array == (bracket == ']') && !keyed_);
    if (stack_.back().array) {
      --arrays_;
      out_ << '\n';
      indent(arrays_);
    }
    out_ << bracket;
    stack_.pop_back();
    return after_value();
  }
  void indent(std::size_t levels) {
    for (std::size_t i = 0; i < levels; ++i) out_ << "  ";
  }

  std::ostream& out_;
  std::vector<Level> stack_;
  std::size_t arrays_ = 0;  ///< open arrays: the indentation of their elements
  bool keyed_ = false;      ///< a key was written and awaits its value
};

}  // namespace raptor::json
