// Tiny CSV writer used by the bench harnesses to dump the series behind
// each reproduced table/figure.
#pragma once

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace raptor::io {

/// One CSV number as `%.10g`: 1e-9 keeps its digits and 1e300 stays short,
/// where std::to_string prints six fixed decimals of either.
[[nodiscard]] inline std::string csv_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

class CsvWriter {
 public:
  CsvWriter(const std::string& path, const std::vector<std::string>& header) : out_(path) {
    RAPTOR_REQUIRE(out_.good(), "CsvWriter: cannot open output file");
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (i > 0) out_ << ',';
      out_ << header[i];
    }
    out_ << '\n';
  }

  void row(std::initializer_list<double> values) {
    bool first = true;
    for (const double v : values) {
      if (!first) out_ << ',';
      first = false;
      out_ << csv_number(v);
    }
    out_ << '\n';
  }

  void row_strings(std::initializer_list<std::string> values) {
    bool first = true;
    for (const auto& v : values) {
      if (!first) out_ << ',';
      first = false;
      out_ << v;
    }
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

}  // namespace raptor::io
