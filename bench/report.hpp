// The one layout of every BENCH_*.json (DESIGN.md §3): a top-level object
//
//   {"bench": <program>, "meta": {...}, "params": {...}, "gates": {...},
//    <table>: [<row>, ...], ...}
//
// written through support/json.hpp. `meta` says where the numbers were
// measured, under the key names of perfbench's `# meta` line: cpu,
// simd_path, compiler, build_type and omp_threads. It carries no commit: a
// stamp taken at configure time goes stale with the next edit, and the
// commit that adds the file already names it. `params` holds the settings
// of the run, `gates` the bounds the program checks and whether they held,
// and every other key is a table of flat rows (string, number or boolean
// cells), so any consumer can load every file the same way.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "softfloat/fast_round_simd.hpp"
#include "support/json.hpp"

#ifndef RAPTOR_BUILD_TYPE
#define RAPTOR_BUILD_TYPE "unknown"
#endif

namespace raptor::bench {

/// One flat record: named scalar cells in insertion order.
class Row {
 public:
  template <class T>
  Row& set(std::string key, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      cells_.emplace_back(std::move(key), v);
    } else if constexpr (std::is_floating_point_v<T>) {
      cells_.emplace_back(std::move(key), static_cast<double>(v));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      cells_.emplace_back(std::move(key), static_cast<long long>(v));
    } else if constexpr (std::is_integral_v<T>) {
      cells_.emplace_back(std::move(key), static_cast<unsigned long long>(v));
    } else {
      cells_.emplace_back(std::move(key), std::string(v));
    }
    return *this;
  }

  void write(json::Writer& w) const {
    w.begin_object();
    for (const auto& [key, cell] : cells_) {
      w.key(key);
      std::visit([&w](const auto& v) { w.value(v); }, cell);
    }
    w.end_object();
  }

 private:
  using Cell = std::variant<bool, long long, unsigned long long, double, std::string>;
  std::vector<std::pair<std::string, Cell>> cells_;
};

/// The CPU's model name as Linux reports it (the brand string perfbench
/// reads through cpuid on x86), "unknown" elsewhere.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

/// The machine and build the numbers come from.
inline Row machine_meta() {
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  Row meta;
  meta.set("cpu", cpu_model())
      .set("simd_path", sf::simd::path_name(sf::simd::default_path()))
      .set("compiler", compiler)
      .set("build_type", RAPTOR_BUILD_TYPE)
      .set("omp_threads", threads);
  return meta;
}

/// A BENCH_*.json document under construction.
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  Row params;
  Row gates;

  /// Append a row to `table`; tables are written in order of first use.
  Row& row(std::string_view table) {
    for (auto& [name, rows] : tables_) {
      if (name == table) return rows.emplace_back();
    }
    return tables_.emplace_back(std::string(table), std::vector<Row>{}).second.emplace_back();
  }

  /// Write the document to `path`; false when the file cannot be opened.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    json::Writer w(out);
    w.begin_object().field("bench", bench_).key("meta");
    machine_meta().write(w);
    w.key("params");
    params.write(w);
    w.key("gates");
    gates.write(w);
    for (const auto& [name, rows] : tables_) {
      w.key(name).begin_array();
      for (const Row& r : rows) r.write(w);
      w.end_array();
    }
    w.end_object();
    return static_cast<bool>(out);
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::vector<Row>>> tables_;
};

}  // namespace raptor::bench
