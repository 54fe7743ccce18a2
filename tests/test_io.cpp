// I/O tests: sfocu-style comparison (norms, cross-hierarchy sampling), PPM
// writer, CSV writer, the region-profile dump escaping round trip, and the
// golden bytes of the /profile and /report JSON documents.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "amr/grid.hpp"
#include "io/csv.hpp"
#include "io/ppm.hpp"
#include "io/profile_dump.hpp"
#include "io/sfocu.hpp"
#include "trace/analysis.hpp"

namespace raptor::io {
namespace {

TEST(CompareFields, IdenticalFieldsAreZeroError) {
  const std::vector<double> a{1.0, -2.0, 3.0, 0.5};
  const auto r = compare_fields(a, a);
  EXPECT_DOUBLE_EQ(r.l1, 0.0);
  EXPECT_DOUBLE_EQ(r.l2, 0.0);
  EXPECT_DOUBLE_EQ(r.linf, 0.0);
}

TEST(CompareFields, NormalizedL1MatchesHandComputation) {
  const std::vector<double> a{1.1, 2.0};
  const std::vector<double> b{1.0, 2.0};
  const auto r = compare_fields(a, b);
  EXPECT_NEAR(r.l1, 0.1 / 3.0, 1e-12);  // sum|a-b| / sum|b|
  EXPECT_NEAR(r.linf, 0.1 / 2.0, 1e-12);
  EXPECT_NEAR(r.abs_max, 0.1, 1e-12);
}

TEST(CompareFields, SymmetricInMagnitudeOrdering) {
  const std::vector<double> a{2.0, 4.0};
  const std::vector<double> b{1.0, 5.0};
  const auto ab = compare_fields(a, b);
  EXPECT_GT(ab.l1, 0.0);
  EXPECT_GT(ab.l2, 0.0);
}

TEST(SfocuCompare, DifferentHierarchiesSameFieldAgree) {
  // Two grids with different refinement of the same smooth function should
  // compare nearly equal (prolongation is 2nd order).
  amr::GridConfig c;
  c.nxb = c.nyb = 8;
  c.ng = 2;
  c.nbx = c.nby = 2;
  c.max_level = 2;
  c.nvar = 1;
  c.refine_vars = {0};
  const auto ic = [](double x, double y, std::span<double> v) {
    v[0] = 1.0 + 0.2 * x + 0.1 * y;
  };
  amr::AmrGrid<double> coarse(c);
  coarse.init(ic);
  auto c2 = c;
  c2.refine_thresh = -1.0;  // refine all
  amr::AmrGrid<double> fine(c2);
  fine.init(ic);
  fine.fill_guards();
  fine.regrid();
  fine.init(ic);
  // Sampling is piecewise constant per covering cell, so comparing across
  // hierarchies of a sloped field carries O(h) discretization error — small
  // but not zero.
  const auto r = sfocu_compare(fine, coarse, 0);
  EXPECT_LT(r.l1, 0.01);
  // Identical hierarchies and data compare exactly.
  const auto same = sfocu_compare(coarse, coarse, 0);
  EXPECT_DOUBLE_EQ(same.l1, 0.0);
}

TEST(SfocuCompare, DetectsPerturbation) {
  amr::GridConfig c;
  c.nxb = c.nyb = 8;
  c.ng = 2;
  c.nbx = c.nby = 2;
  c.max_level = 1;
  c.nvar = 1;
  amr::AmrGrid<double> a(c), b(c);
  a.init([](double x, double, std::span<double> v) { v[0] = x; });
  b.init([](double x, double, std::span<double> v) { v[0] = x * 1.01; });
  const auto r = sfocu_compare(a, b, 0);
  EXPECT_NEAR(r.l1, 0.01 / 1.01, 1e-3);
}

TEST(Ppm, WritesWellFormedFile) {
  const std::string path = "/tmp/raptor_test_io.ppm";
  std::vector<unsigned char> rgb(4 * 3 * 3, 128);
  write_ppm(path, 4, 3, rgb);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  int w = 0, h = 0, maxv = 0;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxv, 255);
  std::remove(path.c_str());
}

TEST(Ppm, ColormapEndpointsAndMidpoint) {
  unsigned char lo[3], mid[3], hi[3];
  colormap(0.0, 0.0, 1.0, lo);
  colormap(0.5, 0.0, 1.0, mid);
  colormap(1.0, 0.0, 1.0, hi);
  EXPECT_GT(lo[2], lo[0]);   // low end is blue-ish
  EXPECT_GT(hi[0], hi[2]);   // high end is red-ish
  EXPECT_GT(mid[1], 200);    // middle is near-white
  unsigned char clamped[3];
  colormap(5.0, 0.0, 1.0, clamped);  // out of range clamps
  EXPECT_EQ(clamped[0], hi[0]);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/raptor_test_io.csv";
  {
    CsvWriter csv(path, {"a", "b", "c"});
    csv.row({1.0, 2.5, -3.0});
    csv.row_strings({"x", "y", "z"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5,-3");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y,z");
  std::remove(path.c_str());
}

// -- Region-profile dump escaping (round trip through real parsers) --------

namespace {

/// Minimal JSON string decoder for the escapes json_escape produces.
std::string json_unescape(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const int code = std::stoi(std::string(s.substr(i + 1, 4)), nullptr, 16);
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unexpected escape \\" << s[i];
    }
  }
  return out;
}

/// Extract the value of `"key": "<escaped>"` from a JSON line.
std::string json_string_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t start = json.find(needle);
  if (start == std::string::npos) return {};
  std::size_t i = start + needle.size();
  std::string escaped;
  while (i < json.size() && !(json[i] == '"' && json[i - 1] != '\\')) escaped += json[i++];
  return json_unescape(escaped);
}

/// RFC 4180 parse of one CSV record into fields.
std::vector<std::string> csv_parse(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        fields.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

rt::RegionProfileEntry make_entry(std::string label, double max_dev) {
  rt::RegionProfileEntry e;
  e.label = std::move(label);
  e.profile.counters.trunc_flops = 10;
  e.profile.counters.full_flops = 5;
  e.profile.max_deviation = max_dev;
  e.profile.flagged = 2;
  return e;
}

}  // namespace

TEST(ProfileDump, JsonEscapesLabelsAndNonFiniteDeviations) {
  // A label exercising every escape class, and the legitimately infinite
  // max_deviation of a one-sided NaN divergence (JSON has no inf literal).
  const std::string nasty = "mod \"quoted\"\\back\nline\ttab";
  const std::vector<rt::RegionProfileEntry> entries = {
      make_entry(nasty, std::numeric_limits<double>::infinity()),
      make_entry("plain", std::nan("")),
  };
  std::ostringstream os;
  write_region_profiles_json(os, entries);
  const std::string json = os.str();

  // The document must not contain bare inf/nan tokens (invalid JSON)...
  EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_deviation\": \"inf\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_deviation\": \"nan\""), std::string::npos) << json;
  // ...and no raw control characters or unescaped quotes inside strings.
  EXPECT_EQ(json.find(nasty), std::string::npos) << json;
  // Round trip: a real unescape of the first row's label recovers it.
  std::istringstream is(json);
  std::string line;
  std::getline(is, line);  // "["
  std::getline(is, line);  // first entry
  EXPECT_EQ(json_string_value(line, "region"), nasty);
}

TEST(ProfileDump, CsvEscapesLabelsRfc4180) {
  const std::string path = "/tmp/raptor_test_profile_dump.csv";
  const std::string nasty = "mod \"q\",comma";
  write_region_profiles_csv(path, {make_entry(nasty, 0.25), make_entry("plain", 1e300)});
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  std::remove(path.c_str());

  const auto fields1 = csv_parse(row1);
  ASSERT_EQ(fields1.size(), 9u) << row1;  // quoting kept the comma inside one field
  EXPECT_EQ(fields1.front(), nasty);      // round trip through a real RFC 4180 parser
  const auto fields2 = csv_parse(row2);
  ASSERT_EQ(fields2.size(), 9u);
  EXPECT_EQ(fields2.front(), "plain");
  // The wall-clock column (DESIGN.md §16) sits between trunc_fraction and
  // max_deviation; csv_parse counting 9 fields pins its presence.
  EXPECT_NE(header.find("trunc_fraction,seconds,max_deviation"), std::string::npos) << header;
}

TEST(ProfileDump, CsvNumbersKeepTheirDigits) {
  // std::to_string(double) printed 1e-9 as 0.000000 and 1e300 as a
  // 301-digit integer; every CSV double goes through io::csv_number.
  const std::string path = "test_io_profile_digits.csv";
  rt::RegionProfileEntry tiny = make_entry("tiny", 1e-9);
  tiny.profile.seconds = 1e300;
  rt::RegionProfileEntry huge = make_entry("huge", 1e300);
  huge.profile.seconds = 1e-9;
  write_region_profiles_csv(path, {tiny, huge});
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  std::remove(path.c_str());

  const auto fields1 = csv_parse(row1);
  const auto fields2 = csv_parse(row2);
  ASSERT_EQ(fields1.size(), 9u) << row1;
  ASSERT_EQ(fields2.size(), 9u) << row2;
  // Columns 6 and 7: seconds, max_deviation.
  EXPECT_EQ(std::stod(fields1[6]), 1e300);
  EXPECT_EQ(std::stod(fields1[7]), 1e-9);
  EXPECT_EQ(std::stod(fields2[6]), 1e-9);
  EXPECT_EQ(std::stod(fields2[7]), 1e300);
  EXPECT_EQ(fields1[6], "1e+300");
  EXPECT_EQ(fields1[7], "1e-09");
  EXPECT_EQ(fields1[5], "0.6666666667");  // trunc_fraction 10 / 15
}

TEST(ProfileDump, CsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_field("plain/label"), "plain/label");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("two\nlines"), "\"two\nlines\"");
}

// The Prometheus label escaper lives in the same support/escape.hpp the
// JSON/CSV writers above use (one backslash-escaping core), so a region
// label serializes consistently across every format the tree emits.
TEST(Escape, PrometheusLabelRoundTrip) {
  const std::string nasty = "mod \"quoted\"\\back\nline\ttab";
  const std::string escaped = prom_escape_label(nasty);
  // The exposition format escapes exactly backslash, quote and newline.
  EXPECT_EQ(escaped, "mod \\\"quoted\\\"\\\\back\\nline\ttab");
  EXPECT_EQ(prom_unescape_label(escaped), nasty);
  // Plain labels pass through untouched in both directions.
  EXPECT_EQ(prom_escape_label("hydro/flux_x"), "hydro/flux_x");
  EXPECT_EQ(prom_unescape_label("hydro/flux_x"), "hydro/flux_x");
  // Unknown escapes are kept literally (sloppy-input tolerance), and a
  // trailing lone backslash survives.
  EXPECT_EQ(prom_unescape_label("a\\zb"), "a\\zb");
  EXPECT_EQ(prom_unescape_label("tail\\"), "tail\\");
}

TEST(Escape, SharedCoreAgreesAcrossFormats) {
  // Both escapers map the shared trio the same way; JSON additionally maps
  // the control set. Pinning the pair here catches either implementation
  // drifting away from the shared core.
  const std::string trio = "q\"b\\n\n";
  EXPECT_EQ(prom_escape_label(trio), "q\\\"b\\\\n\\n");
  EXPECT_EQ(json_escape(trio), "q\\\"b\\\\n\\n");
  EXPECT_EQ(json_escape("bell\x07tab\t"), "bell\\u0007tab\\t");
  EXPECT_EQ(prom_escape_label("bell\x07tab\t"), "bell\x07tab\t");
}

// -- Golden bytes of the two src JSON documents ------------------------------
//
// /profile and /report (and raptor_trace --json) are read by the monitor,
// the CI smoke steps and perfbench's checks, so their bytes are pinned on
// fixed inputs: a label with every JSON escape class, +inf and NaN values,
// empty lists, and a region with no exponent range.

namespace {

/// Quote, backslash, the five mnemonic controls, two \u00xx controls and a
/// UTF-8 byte pair, which passes through.
const std::string kEveryEscape = "q\"b\\n\nb\bf\fr\rt\tu\x01v\x1fw/\xc3\xa9";

std::vector<rt::RegionProfileEntry> golden_profiles() {
  rt::RegionProfileEntry a = make_entry(kEveryEscape, std::numeric_limits<double>::infinity());
  a.profile.counters.trunc_bytes = 123456789012345ULL;
  a.profile.counters.full_bytes = 7;
  a.profile.seconds = 0.125;
  rt::RegionProfileEntry b = make_entry("hydro/riemann", std::nan(""));
  b.profile.counters.trunc_flops = 0;
  b.profile.counters.full_flops = 3;
  b.profile.seconds = 1.0 / 3.0;
  b.profile.flagged = 0;
  return {a, b};
}

/// A capture whose first region has an exponent range and a deviation of
/// 2 (dev_max +inf); the second region is labelled with every escape class.
trace::TraceData golden_trace() {
  trace::TraceData td;
  td.sample_stride = 64;
  td.drops = {{0, 3}, {1, 4}};
  td.regions = {"hydro/recon", kEveryEscape};
  trace::RegionHist h;
  for (const double v : {1.5, -0.25e-3, 0.0, 6.0e10}) h.exp.add(v);
  h.dev.add(1e-5);
  h.dev.add(2.0);
  td.histograms = {{0, h}};
  return td;
}

/// Two report rows: one from golden_trace's histogram, with NaN seconds, and
/// one with no exponent range.
std::vector<trace::RegionReport> golden_reports() {
  std::vector<trace::RegionReport> reports = trace::build_reports(golden_trace());
  reports.front().seconds = std::nan("");
  reports.front().events = 9;
  reports.front().ops = 576;
  reports.front().trunc_ops = 512;
  trace::RegionReport& bare = reports.emplace_back();
  bare.label = kEveryEscape;
  bare.mem_ops = 2;
  bare.seconds = 2.5e-7;
  return reports;
}

}  // namespace

TEST(GoldenJson, RegionProfilesBytesArePinned) {
  std::ostringstream os;
  write_region_profiles_json(os, golden_profiles());
  EXPECT_EQ(os.str(), R"json([
  {"region": "q\"b\\n\nb\bf\fr\rt\tu\u0001v\u001fw/é", "trunc_flops": 10, "full_flops": 5, "trunc_bytes": 123456789012345, "full_bytes": 7, "trunc_fraction": 0.666667, "seconds": 0.125, "max_deviation": "inf", "flagged": 2},
  {"region": "hydro/riemann", "trunc_flops": 0, "full_flops": 3, "trunc_bytes": 0, "full_bytes": 0, "trunc_fraction": 0, "seconds": 0.333333, "max_deviation": "nan", "flagged": 0}
]
)json");
  std::ostringstream empty;
  write_region_profiles_json(empty, {});
  EXPECT_EQ(empty.str(), "[\n]\n");
}

TEST(GoldenJson, TraceReportBytesArePinned) {
  EXPECT_EQ(trace::report_json(golden_trace(), golden_reports()), R"json({"sample_stride": 64, "dropped": 7, "regions": [
  {"region": "hydro/recon", "events": 9, "sampled_ops": 576, "trunc_ops": 512, "mem_ops": 0, "exp_min": -12, "exp_max": 35, "zero": 1, "subnormal": 0, "inf": 0, "nan": 0, "seconds": "nan", "dev_p99": "inf", "dev_max": "inf"},
  {"region": "q\"b\\n\nb\bf\fr\rt\tu\u0001v\u001fw/é", "events": 0, "sampled_ops": 0, "trunc_ops": 0, "mem_ops": 2, "zero": 0, "subnormal": 0, "inf": 0, "nan": 0, "seconds": 2.5e-07, "dev_p99": 0, "dev_max": 0}
], "recommendations": [
  {"region": "hydro/recon", "exp_bits": 7, "man_bits": 52, "min_exp": -12, "max_exp": 35}
]}
)json");
  EXPECT_EQ(trace::report_json(trace::TraceData{}, {}),
            "{\"sample_stride\": 0, \"dropped\": 0, \"regions\": [\n], \"recommendations\": [\n]}\n");
}

}  // namespace
}  // namespace raptor::io
