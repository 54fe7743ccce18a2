#include "search/precision_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// Bit-for-bit equality of two observables: unlike ==, NaN payloads and
/// signed zeros count.
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
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

/// Steps 1-3 of the search (precision_search.hpp) with `groups` as the
/// search units: each group is a set of labels that share one format. No
/// groups means one group per candidate region — workload.regions, or every
/// profiled region by flop count descending. Every label of a group gets
/// its own RegionChoice (its own flops, bytes and seconds; the group's
/// decision), so the emitted config and the trunc share read per label.
SearchResult search_groups(const Workload& workload, const SearchOptions& opts,
                           std::vector<std::vector<std::string>> groups) {
  RAPTOR_REQUIRE(static_cast<bool>(workload.run), "precision search: workload has no callback");
  RAPTOR_REQUIRE(opts.min_man >= 1 && opts.min_man <= opts.max_man && opts.max_man <= 61,
                 "precision search: bad mantissa range");
  auto& R = rt::Runtime::instance();
  const ErrorMetric metric = opts.metric ? opts.metric : ErrorMetric(scaled_max_error);
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
  const auto profiled = [&](const std::string& label) -> rt::RegionProfile {
    for (const auto& e : out.reference_profile) {
      if (e.label == label) return e.profile;
    }
    return {};
  };

  // Candidate regions: explicit list, or every profiled region by flop
  // count descending (region_profiles is already sorted that way).
  if (groups.empty()) {
    if (!workload.regions.empty()) {
      for (const auto& r : workload.regions) groups.push_back({r});
    } else {
      for (const auto& e : out.reference_profile) {
        if (e.label != "<toplevel>") groups.push_back({e.label});
      }
    }
  }
  std::size_t labels = 0;
  for (const auto& g : groups) labels += g.size();

  // 2. Greedy per-group bisection, keeping accepted choices applied.
  SearchProgress progress(labels);
  const auto exp_for = [&](const std::string& region) {
    for (const auto& [label, bits] : opts.exp_hints) {
      if (label == region) return bits;
    }
    return opts.exp_bits;
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
  // One evaluation: its error and the observable the inert-group rule
  // compares with `base`.
  struct Probe {
    double err = 0.0;
    std::vector<double> obs;
  };
  const auto evaluate = [&]() {
    ++out.evaluations;
    Probe p;
    p.obs = workload.run();
    p.err = metric(ref, p.obs);
    return p;
  };
  // The observable of the configuration the next group's probes start from:
  // the reference run's, then the accepting run's of each truncated group.
  std::vector<double> base = ref;

  for (const auto& group : groups) {
    // One choice per label with its reference profile; commit() records
    // them with the group's decision.
    std::vector<RegionChoice> picks;
    u64 flops = 0;
    double seconds = 0.0;
    std::string name;
    for (const auto& label : group) {
      const rt::RegionProfile prof = profiled(label);
      RegionChoice& c = picks.emplace_back();
      c.region = label;
      c.flops = prof.counters.total_flops();
      c.bytes = prof.counters.total_bytes();
      c.seconds = prof.seconds;
      flops += c.flops;
      seconds += c.seconds;
      name += (name.empty() ? "" : ",") + label;
    }
    const auto commit = [&]() {
      out.choices.insert(out.choices.end(), picks.begin(), picks.end());
      progress.update(out.choices);
    };
    const auto set_group = [&](const sf::Format& f) {
      for (const auto& label : group) R.set_region_format(label, spec_of(f));
    };
    const int ebits = exp_for(group.front());
    RAPTOR_REQUIRE(ebits >= 2 && ebits <= 18, "precision search: bad exponent-width hint");
    // Identity guard: truncating 64-bit ops to (11, 52) is the identity, so
    // the top of the search range is feasible for free in the default
    // family. An exponent-hinted region forfeits this (Format{e<11, 52}
    // really truncates) and pays one feasibility evaluation instead.
    const bool top_is_identity = ebits == 11 && opts.max_man == 52;
    if (total_flops > 0 &&
        static_cast<double>(flops) < opts.min_flop_share * static_cast<double>(total_flops)) {
      log_line(opts, "  region " + name + ": skipped (<" +
                         std::to_string(100.0 * opts.min_flop_share) + "% of flops)");
      commit();
      continue;
    }
    // Time-share skip (DESIGN.md §16): a region that never shows up on the
    // wall clock cannot repay its search cost, however many flops it counts.
    if (opts.min_time_share > 0.0 && total_seconds > 0.0 &&
        seconds < opts.min_time_share * total_seconds) {
      log_line(opts, "  region " + name + ": skipped (<" +
                         std::to_string(100.0 * opts.min_time_share) + "% of wall-clock)");
      commit();
      continue;
    }
    int lo = opts.min_man;
    int hi = opts.max_man;
    // Every evaluation of the group logs its format, its error and why it
    // was chosen: "top" (the hinted family's widest format), "bisect" or
    // "inert-bottom".
    const auto probe = [&](int m, const char* why) {
      set_group(sf::Format{ebits, m});
      Probe p = evaluate();
      log_line(opts, "  region " + name + ": m=" + std::to_string(m) + " err " +
                         std::to_string(p.err) +
                         (p.err <= opts.tolerance ? " ok" : " too coarse") + " [" + why + "]");
      return p;
    };
    // Inert-group rule (DESIGN.md §10): the first accepted probe whose
    // observable is bit-identical to `base` sends the next probe to the
    // bracket's bottom, which is the answer if it passes (it is min_man, or
    // lo - 1 already failed); if it fails, the bisection goes on as before
    // and reuses that result should a midpoint land on it.
    Probe at_hi;  // the evaluation that accepted hi (none while hi is the free identity)
    int bottom = 0;  // m of the inert-bottom probe once made (0: not yet)
    double bottom_err = 0.0;
    const auto accept = [&](int m, Probe p) {
      hi = m;
      const bool inert = bottom == 0 && lo < hi && same_bytes(p.obs, base);
      at_hi = std::move(p);
      if (!inert) return;
      bottom = lo;
      Probe b = probe(lo, "inert-bottom");
      bottom_err = b.err;
      if (b.err <= opts.tolerance) {
        hi = lo;
        at_hi = std::move(b);
      }
    };
    if (!top_is_identity) {
      Probe top = probe(hi, "top");
      if (top.err > opts.tolerance) {
        // Even the widest candidate format breaks tolerance: leave native.
        reapply_choices();
        log_line(opts, "  region " + name + ": left native (err " + std::to_string(top.err) +
                           " at m=" + std::to_string(hi) + ")");
        commit();
        continue;
      }
      accept(hi, std::move(top));
    }
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (mid == bottom) {  // the inert-bottom probe, which failed
        log_line(opts, "  region " + name + ": m=" + std::to_string(mid) +
                           " too coarse (its inert-bottom probe read err " +
                           std::to_string(bottom_err) + ")");
        lo = mid + 1;
        continue;
      }
      Probe p = probe(mid, "bisect");
      if (p.err <= opts.tolerance) {
        accept(mid, std::move(p));
      } else {
        lo = mid + 1;
      }
    }
    if (top_is_identity && hi == opts.max_man) {
      // Identity format: no truncation benefit; leave the region native.
      reapply_choices();
      log_line(opts, "  region " + name + ": left native (needs full precision)");
    } else {
      for (RegionChoice& c : picks) {
        c.truncated = true;
        c.format = sf::Format{ebits, hi};
        c.error = at_hi.err;
      }
      set_group(picks.front().format);
      base = std::move(at_hi.obs);
      log_line(opts, "  region " + name + ": chose " + picks.front().format.to_string());
    }
    commit();
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
  out.trunc_share = flop_weighted_trunc_share(out.choices);
  out.within_tolerance = out.final_error <= opts.tolerance;
  R.reset_all();
  return out;
}

}  // namespace

SearchResult PrecisionSearch::run(const Workload& workload) const {
  return search_groups(workload, opts_, {});
}

SearchResult flat_format_search(const Workload& workload, const SearchOptions& opts) {
  RAPTOR_REQUIRE(!workload.regions.empty(), "flat search: workload lists no regions");
  SearchOptions flat = opts;
  flat.min_flop_share = 0.0;
  flat.min_time_share = 0.0;
  flat.exp_hints.clear();
  return search_groups(workload, flat, {workload.regions});
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
