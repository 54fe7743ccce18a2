#include "search/precision_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/registry.hpp"

namespace raptor::search {

double scaled_max_error(const std::vector<double>& ref, const std::vector<double>& cand) {
  if (ref.size() != cand.size()) return std::numeric_limits<double>::infinity();
  double scale = 0.0;
  for (const double r : ref) {
    if (std::isfinite(r)) scale = std::max(scale, std::fabs(r));
  }
  if (scale < 1e-300) scale = 1.0;
  double worst = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const double r = ref[k], c = cand[k];
    const bool r_bad = !std::isfinite(r), c_bad = !std::isfinite(c);
    if (r_bad && c_bad) continue;  // diverged identically: nothing new
    if (r_bad || c_bad) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, std::fabs(c - r) / scale);
  }
  return worst;
}

namespace {

void log_line(const SearchOptions& opts, const std::string& msg) {
  if (opts.log) opts.log(msg);
}

/// Live search progress for the telemetry layer (DESIGN.md §16): how many
/// regions the greedy pass has decided, out of how many, and the
/// work-weighted truncation share of the choices so far. A dashboard
/// polling /metrics watches a long search converge region by region.
struct SearchProgress {
  telemetry::Gauge done;
  telemetry::Gauge total;
  telemetry::Gauge share;

  explicit SearchProgress(std::size_t total_regions) {
    auto& reg = telemetry::Registry::instance();
    done = reg.gauge("raptor_search_regions_done",
                    "Regions the precision search has decided so far");
    total = reg.gauge("raptor_search_regions_total",
                      "Regions the precision search will decide");
    share = reg.gauge("raptor_search_trunc_share",
                      "Work-weighted truncation share of the choices so far");
    done.set(0.0);
    total.set(static_cast<double>(total_regions));
    share.set(0.0);
  }

  void update(const std::vector<RegionChoice>& choices) {
    done.set(static_cast<double>(choices.size()));
    share.set(flop_weighted_trunc_share(choices));
  }
};

}  // namespace

SearchResult PrecisionSearch::run(const Workload& workload) const {
  RAPTOR_REQUIRE(static_cast<bool>(workload.run), "precision search: workload has no callback");
  RAPTOR_REQUIRE(opts_.min_man >= 1 && opts_.min_man <= opts_.max_man && opts_.max_man <= 61,
                 "precision search: bad mantissa range");
  auto& R = rt::Runtime::instance();
  const ErrorMetric metric = opts_.metric ? opts_.metric : ErrorMetric(scaled_max_error);
  SearchResult out;

  // 1. Reference run: native precision, per-region profiling on.
  R.reset_all();
  R.set_hw_fastpath(true);  // sweep speed; bit-identical (DESIGN.md §8)
  R.set_region_profiling(true);
  const std::vector<double> ref = workload.run();
  out.reference_profile = R.region_profiles();
  R.set_region_profiling(false);

  u64 total_flops = 0;
  double total_seconds = 0.0;
  for (const auto& e : out.reference_profile) {
    total_flops += e.profile.counters.total_flops();
    total_seconds += e.profile.seconds;
  }

  // Candidate regions: explicit list, or every profiled region by flop
  // count descending (region_profiles is already sorted that way).
  std::vector<std::pair<std::string, u64>> candidates;
  const auto profiled_flops = [&](const std::string& label) -> u64 {
    for (const auto& e : out.reference_profile) {
      if (e.label == label) return e.profile.counters.total_flops();
    }
    return 0;
  };
  const auto profiled_bytes = [&](const std::string& label) -> u64 {
    for (const auto& e : out.reference_profile) {
      if (e.label == label) return e.profile.counters.total_bytes();
    }
    return 0;
  };
  const auto profiled_seconds = [&](const std::string& label) -> double {
    for (const auto& e : out.reference_profile) {
      if (e.label == label) return e.profile.seconds;
    }
    return 0.0;
  };
  if (!workload.regions.empty()) {
    for (const auto& r : workload.regions) candidates.emplace_back(r, profiled_flops(r));
  } else {
    for (const auto& e : out.reference_profile) {
      if (e.label != "<toplevel>") {
        candidates.emplace_back(e.label, e.profile.counters.total_flops());
      }
    }
  }

  // 2. Greedy per-region bisection, keeping accepted choices applied.
  SearchProgress progress(candidates.size());
  const auto exp_for = [&](const std::string& region) {
    for (const auto& [label, bits] : opts_.exp_hints) {
      if (label == region) return bits;
    }
    return opts_.exp_bits;
  };
  const auto spec_of = [](const sf::Format& f) {
    rt::TruncationSpec spec;
    spec.for64 = f;
    return spec;
  };
  // Re-install every accepted choice (after clearing a failed candidate's
  // override); each choice carries its own exponent width.
  const auto reapply_choices = [&]() {
    R.clear_region_formats();
    for (const auto& c : out.choices) {
      if (c.truncated) R.set_region_format(c.region, spec_of(c.format));
    }
  };
  const auto evaluate = [&]() {
    ++out.evaluations;
    return metric(ref, workload.run());
  };

  for (const auto& [region, flops] : candidates) {
    const int ebits = exp_for(region);
    RAPTOR_REQUIRE(ebits >= 2 && ebits <= 18, "precision search: bad exponent-width hint");
    // Identity guard: truncating 64-bit ops to (11, 52) is the identity, so
    // the top of the search range is feasible for free in the default
    // family. An exponent-hinted region forfeits this (Format{e<11, 52}
    // really truncates) and pays one feasibility evaluation instead.
    const bool top_is_identity = ebits == 11 && opts_.max_man == 52;
    RegionChoice choice;
    choice.region = region;
    choice.flops = flops;
    choice.bytes = profiled_bytes(region);
    choice.seconds = profiled_seconds(region);
    if (total_flops > 0 && static_cast<double>(flops) <
                               opts_.min_flop_share * static_cast<double>(total_flops)) {
      log_line(opts_, "  region " + region + ": skipped (<" +
                          std::to_string(100.0 * opts_.min_flop_share) + "% of flops)");
      out.choices.push_back(std::move(choice));
      progress.update(out.choices);
      continue;
    }
    // Time-share skip (DESIGN.md §16): a region that never shows up on the
    // wall clock cannot repay its search cost, however many flops it counts.
    if (opts_.min_time_share > 0.0 && total_seconds > 0.0 &&
        choice.seconds < opts_.min_time_share * total_seconds) {
      log_line(opts_, "  region " + region + ": skipped (<" +
                          std::to_string(100.0 * opts_.min_time_share) + "% of wall-clock)");
      out.choices.push_back(std::move(choice));
      progress.update(out.choices);
      continue;
    }
    int lo = opts_.min_man;
    int hi = opts_.max_man;
    double err_at_hi = 0.0;
    bool feasible = top_is_identity;
    if (!feasible) {
      R.set_region_format(region, spec_of(sf::Format{ebits, hi}));
      err_at_hi = evaluate();
      feasible = err_at_hi <= opts_.tolerance;
    }
    if (!feasible) {
      // Even the widest candidate format breaks tolerance: leave native.
      reapply_choices();
      log_line(opts_, "  region " + region + ": left native (err " +
                          std::to_string(err_at_hi) + " at m=" + std::to_string(hi) + ")");
      out.choices.push_back(std::move(choice));
      progress.update(out.choices);
      continue;
    }
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      R.set_region_format(region, spec_of(sf::Format{ebits, mid}));
      const double err = evaluate();
      log_line(opts_, "  region " + region + ": m=" + std::to_string(mid) + " err " +
                          std::to_string(err) + (err <= opts_.tolerance ? " ok" : " too coarse"));
      if (err <= opts_.tolerance) {
        hi = mid;
        err_at_hi = err;
      } else {
        lo = mid + 1;
      }
    }
    if (top_is_identity && hi == opts_.max_man) {
      // Identity format: no truncation benefit; leave the region native.
      reapply_choices();
      log_line(opts_, "  region " + region + ": left native (needs full precision)");
    } else {
      choice.truncated = true;
      choice.format = sf::Format{ebits, hi};
      choice.error = err_at_hi;
      R.set_region_format(region, spec_of(choice.format));
      log_line(opts_, "  region " + region + ": chose " + choice.format.to_string());
    }
    out.choices.push_back(std::move(choice));
    progress.update(out.choices);
  }

  // 3. Emit the recommendation and verify it end to end.
  for (const auto& c : out.choices) {
    if (c.truncated) {
      rt::RegionFormat rf;
      rf.region = c.region;
      rf.spec = spec_of(c.format);
      out.config.region_formats.push_back(std::move(rf));
    }
  }
  R.reset_all();
  R.set_hw_fastpath(true);
  apply_profile(R, out.config);
  const std::vector<double> final_run = workload.run();
  out.final_error = metric(ref, final_run);
  out.final_counters = R.counters();
  out.trunc_fraction = out.final_counters.trunc_fraction();
  out.within_tolerance = out.final_error <= opts_.tolerance;
  R.reset_all();
  return out;
}

SearchResult flat_format_search(const Workload& workload, const SearchOptions& opts) {
  RAPTOR_REQUIRE(static_cast<bool>(workload.run), "flat search: workload has no callback");
  RAPTOR_REQUIRE(!workload.regions.empty(), "flat search: workload lists no regions");
  RAPTOR_REQUIRE(opts.min_man >= 1 && opts.min_man <= opts.max_man && opts.max_man <= 61,
                 "flat search: bad mantissa range");
  auto& R = rt::Runtime::instance();
  const ErrorMetric metric = opts.metric ? opts.metric : ErrorMetric(scaled_max_error);
  SearchResult out;

  R.reset_all();
  R.set_hw_fastpath(true);
  R.set_region_profiling(true);
  const std::vector<double> ref = workload.run();
  out.reference_profile = R.region_profiles();
  R.set_region_profiling(false);
  const auto profiled = [&](const std::string& label) -> rt::RegionProfile {
    for (const auto& e : out.reference_profile) {
      if (e.label == label) return e.profile;
    }
    return {};
  };

  const auto apply_all = [&](int man) {
    rt::TruncationSpec spec;
    spec.for64 = sf::Format{opts.exp_bits, man};
    R.clear_region_formats();
    for (const auto& region : workload.regions) R.set_region_format(region, spec);
  };
  const auto evaluate = [&]() {
    ++out.evaluations;
    return metric(ref, workload.run());
  };

  // One shared bisection over all regions at once (same identity guard as
  // the per-region driver: (11, 52) on 64-bit ops truncates nothing).
  int lo = opts.min_man;
  int hi = opts.max_man;
  double err_at_hi = 0.0;
  bool feasible = opts.exp_bits == 11 && opts.max_man == 52;
  if (!feasible) {
    apply_all(hi);
    err_at_hi = evaluate();
    feasible = err_at_hi <= opts.tolerance;
  }
  bool truncated = false;
  if (feasible) {
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      apply_all(mid);
      const double err = evaluate();
      log_line(opts, "  flat: m=" + std::to_string(mid) + " err " + std::to_string(err) +
                         (err <= opts.tolerance ? " ok" : " too coarse"));
      if (err <= opts.tolerance) {
        hi = mid;
        err_at_hi = err;
      } else {
        lo = mid + 1;
      }
    }
    truncated = !(opts.exp_bits == 11 && hi == 52);
  }
  const sf::Format chosen{opts.exp_bits, hi};
  for (const auto& region : workload.regions) {
    RegionChoice c;
    c.region = region;
    const rt::RegionProfile prof = profiled(region);
    c.flops = prof.counters.total_flops();
    c.bytes = prof.counters.total_bytes();
    c.seconds = prof.seconds;
    c.truncated = truncated;
    if (truncated) {
      c.format = chosen;
      c.error = err_at_hi;
      rt::RegionFormat rf;
      rf.region = region;
      rf.spec.for64 = chosen;
      out.config.region_formats.push_back(std::move(rf));
    }
    out.choices.push_back(std::move(c));
  }

  R.reset_all();
  R.set_hw_fastpath(true);
  apply_profile(R, out.config);
  const std::vector<double> final_run = workload.run();
  out.final_error = metric(ref, final_run);
  out.final_counters = R.counters();
  out.trunc_fraction = out.final_counters.trunc_fraction();
  out.within_tolerance = out.final_error <= opts.tolerance;
  R.reset_all();
  return out;
}

double flop_weighted_trunc_share(const std::vector<RegionChoice>& choices) {
  double saved = 0.0, total = 0.0;
  for (const auto& c : choices) {
    // Arithmetic plus memory words: copy-dominated regions (guard fills) do
    // their truncated work as traffic, which count_mem records in bytes.
    const double w = static_cast<double>(c.flops) + static_cast<double>(c.bytes) / 8.0;
    total += w;
    if (c.truncated) saved += w * (52.0 - c.format.man_bits) / 52.0;
  }
  return total > 0.0 ? saved / total : 0.0;
}

}  // namespace raptor::search
