// Automated per-region precision search (DESIGN.md §10): profile a workload
// per region, bisect each region's mantissa width to the narrowest format
// that keeps the workload's error under tolerance, emit the recommendation
// as a profile config, and verify it end to end by re-applying the config.
//
// Run: ./precision_search [--workloads=sod,bubble] [--tol=1e-3] [--quick]
//                         [--min-man=4] [--exp=11] [--verbose]
//                         [--profile-csv] [--profile-json]
//
// Exit status is nonzero if any workload's verification run misses the
// tolerance (the CI smoke step relies on this).
#include <cstdio>
#include <sstream>

#include "io/profile_dump.hpp"
#include "search/workloads.hpp"
#include "support/cli.hpp"

using namespace raptor;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run_one(const search::Workload& w, const search::SearchOptions& opts, const Cli& cli) {
  std::printf("=== %s: per-region precision search (tol %.2e) ===\n", w.name.c_str(),
              opts.tolerance);
  const search::PrecisionSearch driver(opts);
  const auto result = driver.run(w);

  std::printf("reference profile (per-region flops):\n");
  std::printf("  %-16s %14s %14s %8s\n", "region", "trunc_flops", "full_flops", "share");
  u64 total = 0;
  for (const auto& e : result.reference_profile) total += e.profile.counters.total_flops();
  for (const auto& e : result.reference_profile) {
    const auto& c = e.profile.counters;
    std::printf("  %-16s %14llu %14llu %7.1f%%\n", e.label.c_str(),
                static_cast<unsigned long long>(c.trunc_flops),
                static_cast<unsigned long long>(c.full_flops),
                total > 0 ? 100.0 * static_cast<double>(c.total_flops()) /
                                static_cast<double>(total)
                          : 0.0);
  }
  if (cli.has("profile-csv")) {
    const std::string path = w.name + "_region_profile.csv";
    io::write_region_profiles_csv(path, result.reference_profile);
    std::printf("reference profile written to %s\n", path.c_str());
  }
  if (cli.has("profile-json")) {
    const std::string path = w.name + "_region_profile.json";
    io::write_region_profiles_json(path, result.reference_profile);
    std::printf("reference profile written to %s\n", path.c_str());
  }

  std::printf("choices (%d candidate evaluations):\n", result.evaluations);
  for (const auto& c : result.choices) {
    if (c.truncated) {
      std::printf("  %-16s -> %s  (err %.3e at acceptance)\n", c.region.c_str(),
                  c.format.to_string().c_str(), c.error);
    } else {
      std::printf("  %-16s -> native\n", c.region.c_str());
    }
  }

  const std::string text = rt::emit_profile(result.config);
  const std::string cfg_path = "precision_search_" + w.name + ".cfg";
  rt::save_profile(cfg_path, result.config);
  std::printf("recommendation (%s):\n%s", cfg_path.c_str(), text.c_str());

  // The emitted text must parse back to the identical recommendation.
  const bool round_trips = rt::parse_profile(text) == result.config;
  std::printf(
      "verification: err %.3e (tol %.2e), truncated flops %.1f%%, work-weighted share %.3f, "
      "round-trip %s\n",
      result.final_error, opts.tolerance, 100.0 * result.trunc_fraction, result.trunc_share,
      round_trips ? "ok" : "FAILED");
  const bool ok = result.within_tolerance && round_trips;
  std::printf("%s: %s\n\n", w.name.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  search::WorkloadOptions wopts;
  wopts.quick = cli.has("quick");
  search::SearchOptions opts;
  opts.tolerance = cli.get_double("tol", 1e-3);
  opts.min_man = cli.get_int("min-man", 4);
  opts.exp_bits = cli.get_int("exp", 11);
  if (cli.has("verbose")) {
    opts.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  }
  int failures = 0;
  for (const auto& name : split_csv(cli.get("workloads", "sod,bubble"))) {
    failures += run_one(search::builtin_workload(name, wopts), opts, cli);
  }
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
