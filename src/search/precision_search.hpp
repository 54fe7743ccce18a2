// Automated per-region precision search (DESIGN.md §10): closes the paper's
// profiling loop. RAPTOR's counters tell you *where* truncated work happens;
// this driver decides *which format each region can afford*:
//
//   1. reference run at native precision with region profiling on — yields
//      the observable vector and the per-region flop ranking;
//   2. greedy per-region search, one region after another in the order of
//      Workload::regions (by reference flops, descending, when that list is
//      empty): bisect the mantissa width (at fixed exponent width) to the
//      narrowest format whose workload error stays under tolerance, keeping
//      already-chosen region formats applied while searching the next
//      region. Inert-group rule: the first accepted probe of a region whose
//      observable is bit-identical to that of the configuration the
//      region's probes start from (the reference run, or the accepting run
//      of the last truncated region) sends the next probe to the bottom of
//      the bracket; if that passes it is the answer, otherwise the
//      bisection goes on unchanged. So every answer is plain bisection's,
//      reached by the same probes plus one, or the bracket's bottom
//      measured within tolerance;
//   3. emit the recommendation as a rt::ProfileConfig of `region`
//      directives — consumable by parse_profile/apply_profile — and verify
//      it with a final run, reporting the achieved error and truncated-flop
//      fraction.
//
// The driver owns the global Runtime while running (it resets it on entry
// and leaves it reset on return). Workload callbacks run the application
// under whatever truncation the driver has configured and return an
// observable vector; they must be deterministic and must not install their
// own truncation scopes.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/profile_config.hpp"

namespace raptor::search {

/// A profiled application the driver can re-run under candidate formats.
struct Workload {
  std::string name;
  /// Regions to search, in the order given. Empty: every region observed in
  /// the reference profile, ranked by flop count descending.
  std::vector<std::string> regions;
  /// Run under the current runtime configuration; returns the observable
  /// vector the error metric compares (solution samples, diagnostics, ...).
  std::function<std::vector<double>()> run;
};

/// Error metric comparing a candidate run's observable against the
/// reference run's. Must return +inf (not NaN) for catastrophic divergence.
using ErrorMetric =
    std::function<double(const std::vector<double>& ref, const std::vector<double>& cand)>;

/// Default metric: max |cand - ref| scaled by the reference's max
/// magnitude; one-sided NaN counts as infinite error.
[[nodiscard]] double scaled_max_error(const std::vector<double>& ref,
                                      const std::vector<double>& cand);

struct SearchOptions {
  /// Maximum tolerated metric value for an accepted format.
  double tolerance = 1e-3;
  /// Candidate format family: Format{exp_bits, m} for m in [min_man, max_man].
  int exp_bits = 11;
  int min_man = 4;
  int max_man = 52;
  /// Regions whose reference-profile flop count is below this fraction of
  /// the total are left untouched (searching them cannot move the needle).
  double min_flop_share = 0.01;
  /// Wall-clock analogue of min_flop_share (DESIGN.md §16): regions whose
  /// reference-profile self-time is below this fraction of the total
  /// profiled time are skipped too — truncating a time-cheap region cannot
  /// move the wall clock, however flop-heavy it looks. Either filter alone
  /// skips a region. 0 (default) disables the time filter.
  double min_time_share = 0.0;
  /// Per-region exponent-width overrides (the trace subsystem's
  /// `--recommend` output, DESIGN.md §12): a region listed here bisects its
  /// mantissa in the Format{hint, m} family instead of Format{exp_bits, m},
  /// so the search starts from an exponent width matched to the region's
  /// observed dynamic range. Note a hinted region loses the free identity
  /// guard (Format{e<11, 52} is not the identity), costing one feasibility
  /// evaluation — the price of searching a narrower family.
  std::vector<std::pair<std::string, int>> exp_hints;
  /// Metric override (default: scaled_max_error).
  ErrorMetric metric;
  /// Progress callback (e.g. [](const std::string& s) { puts(s.c_str()); }).
  /// Each evaluation logs one line "  region <name>: m=<m> err <e> ok|too
  /// coarse [<why>]", where why is top, bisect or inert-bottom.
  std::function<void(const std::string&)> log;
};

/// Decision for one region.
struct RegionChoice {
  std::string region;
  bool truncated = false;                 ///< false: left at native precision
  sf::Format format = sf::Format::fp64(); ///< chosen format when truncated
  u64 flops = 0;                          ///< reference-profile flops in this region
  u64 bytes = 0;                          ///< reference-profile memory traffic
  double seconds = 0.0;                   ///< reference-profile wall-clock self-time
  double error = 0.0;                     ///< metric at the accepting evaluation
};

struct SearchResult {
  std::vector<RegionChoice> choices;
  /// The recommendation: `region` directives for every truncated choice.
  /// Round-trips through emit_profile/parse_profile and re-applies with
  /// apply_profile.
  rt::ProfileConfig config;
  /// Reference-run per-region profile (flop ranking input).
  std::vector<rt::RegionProfileEntry> reference_profile;
  /// Final verification run with `config` applied.
  rt::CounterSnapshot final_counters;
  double final_error = 0.0;
  /// Share of the final run's flops that were truncated.
  double trunc_fraction = 0.0;
  /// Work-weighted mantissa savings of `choices`
  /// (flop_weighted_trunc_share): unlike trunc_fraction it also weighs the
  /// memory words of copy-dominated regions such as the AMR guard fills.
  double trunc_share = 0.0;
  bool within_tolerance = false;
  /// Workload evaluations spent on the search (excluding reference+final).
  int evaluations = 0;
};

class PrecisionSearch {
 public:
  explicit PrecisionSearch(SearchOptions opts = {}) : opts_(std::move(opts)) {}

  [[nodiscard]] SearchResult run(const Workload& workload) const;

 private:
  SearchOptions opts_;
};

/// Best *flat* single-format configuration at the same tolerance: the
/// search above with one search unit, the group of all the workload's
/// regions, so one mantissa bisection in the Format{opts.exp_bits, m}
/// family (inert-group rule included) applies to every region
/// simultaneously. The baseline the per-region (e.g. per-AMR-level) search
/// must beat — a flat format is forced to the width of the most sensitive
/// region, while the per-region search narrows each region independently
/// (DESIGN.md §15). Ignores min_flop_share, min_time_share and exp_hints;
/// the result carries one RegionChoice per region, all with the same format
/// (or all untruncated when even the widest candidate misses tolerance).
[[nodiscard]] SearchResult flat_format_search(const Workload& workload,
                                              const SearchOptions& opts = {});

/// Work-weighted mantissa-savings share of a choice set:
///   sum_r w_r * (52 - m_r) / 52  /  sum_r w_r,   w_r = flops_r + bytes_r / 8
/// where untruncated regions contribute zero savings. The weight counts
/// both arithmetic and memory words because copy-dominated regions (the
/// per-level guard fills) do their truncated work as traffic, not flops.
/// 0 when everything stays native, 1 only in the (unreachable) limit of
/// zero-mantissa formats everywhere. The per-level-vs-flat acceptance
/// metric: a larger share means more of the mantissa work in the searched
/// regions was eliminated at equal error budget.
[[nodiscard]] double flop_weighted_trunc_share(const std::vector<RegionChoice>& choices);

}  // namespace raptor::search
