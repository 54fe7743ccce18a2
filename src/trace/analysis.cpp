#include "trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/json.hpp"

namespace raptor::trace {

int min_exp_bits(i32 min_exp, i32 max_exp) {
  for (int e = 2; e <= 11; ++e) {
    const i32 bias = (1 << (e - 1)) - 1;
    if (bias >= max_exp && 1 - bias <= min_exp) return e;
  }
  return 11;
}

int man_bits_hint(const DevHistogram& dev, int default_man) {
  if (dev.total() == 0) return default_man;
  const double p99 = dev.quantile(0.99);
  if (p99 <= 0.0) return std::clamp(default_man, 4, 52);
  if (!std::isfinite(p99) || p99 >= 1.0) return 52;  // catastrophic: stay wide
  // p99 ~ 2^-man; two guard bits absorb accumulation beyond the per-op bound.
  const int man = static_cast<int>(std::ceil(-std::log2(p99))) + 2;
  return std::clamp(man, 4, 52);
}

TraceData merge_traces(const std::vector<TraceData>& shards) {
  TraceData out;
  if (shards.empty()) return out;
  out.sample_stride = shards.front().sample_stride;
  out.ring_capacity = 0;

  std::map<std::string, u32> slot_of;
  const auto intern = [&](const std::string& label) {
    const auto [it, inserted] = slot_of.try_emplace(label, static_cast<u32>(out.regions.size()));
    if (inserted) {
      RAPTOR_REQUIRE(out.regions.size() <= 0xFFFF,
                     "trace merge: region label table exhausted (65536 labels)");
      out.regions.push_back(label);
    }
    return it->second;
  };

  std::map<u32, RegionHist> hists;
  std::map<u32, double> seconds;  ///< wall-clock sums by merged slot
  u32 thread_base = 0;
  for (const TraceData& td : shards) {
    if (td.sample_stride != out.sample_stride) out.sample_stride = 0;  // mixed
    out.ring_capacity = std::max(out.ring_capacity, td.ring_capacity);
    std::vector<u32> remap(td.regions.size());
    for (std::size_t slot = 0; slot < td.regions.size(); ++slot) {
      remap[slot] = intern(td.regions[slot]);
    }
    // A slot with no string entry has no label to key on; all such slots
    // share the reader's "<unknown>" name and therefore one merged region.
    const auto remap_slot = [&](u32 slot) {
      return slot < remap.size() ? remap[slot] : intern(td.region_name(slot));
    };
    u32 threads_here = 0;
    for (const DecodedEvent& e : td.events) {
      DecodedEvent ne = e;
      ne.thread = thread_base + e.thread;
      ne.region = static_cast<u16>(remap_slot(e.region));
      threads_here = std::max(threads_here, e.thread + 1);
      out.events.push_back(ne);
    }
    for (const auto& [thread, dropped] : td.drops) {
      out.drops.emplace_back(thread_base + thread, dropped);
      threads_here = std::max(threads_here, thread + 1);
    }
    for (const auto& [slot, hist] : td.histograms) hists[remap_slot(slot)].merge(hist);
    for (const auto& [slot, secs] : td.region_seconds) seconds[remap_slot(slot)] += secs;
    thread_base += threads_here;
  }
  out.histograms.assign(hists.begin(), hists.end());
  out.region_seconds.assign(seconds.begin(), seconds.end());
  return out;
}

std::vector<RegionReport> build_reports(const TraceData& td) {
  std::map<u16, RegionReport> by_slot;
  const bool have_hists = !td.histograms.empty();

  for (const DecodedEvent& e : td.events) {
    RegionReport& r = by_slot[e.region];
    ++r.events;
    r.ops += e.count;
    r.ops_by_kind[e.kind] += e.count;
    if (e.flags & kFlagTruncated) r.trunc_ops += e.count;
    if (e.flags & kFlagMem) r.mem_ops += e.count;
    if (!have_hists) {
      // Histogram-free fallback: spread a span's count over its min/max
      // exponent classes (the per-element distribution was not persisted).
      if (e.exp_min == e.exp_max) {
        r.exp.add_class(e.exp_min, e.count);
      } else {
        r.exp.add_class(e.exp_min, (e.count + 1) / 2);
        r.exp.add_class(e.exp_max, e.count / 2);
      }
      if (e.dev_bucket != kDevNone) r.dev.add_bucket(e.dev_bucket, e.count);
    }
  }
  if (have_hists) {
    for (const auto& [slot, hist] : td.histograms) {
      RegionReport& r = by_slot[static_cast<u16>(slot)];
      r.exp.merge(hist.exp);
      r.dev.merge(hist.dev);
    }
  }
  // Wall-clock 'T' blocks: a region with time but no sampled events still
  // gets a report row (time-heavy, flop-light — exactly the rows a
  // min-time-share ranking must see).
  for (const auto& [slot, secs] : td.region_seconds) {
    by_slot[static_cast<u16>(slot)].seconds += secs;
  }

  std::vector<RegionReport> out;
  out.reserve(by_slot.size());
  for (auto& [slot, report] : by_slot) {
    report.label = td.region_name(slot);
    out.push_back(std::move(report));
  }
  std::sort(out.begin(), out.end(), [](const RegionReport& a, const RegionReport& b) {
    if (a.ops != b.ops) return a.ops > b.ops;
    return a.exp.total() > b.exp.total();
  });
  return out;
}

std::vector<Recommendation> recommend(const TraceData& td, int default_man) {
  std::vector<Recommendation> recs;
  for (const RegionReport& r : build_reports(td)) {
    if (!r.exp.has_range()) continue;  // no finite results observed: nothing to base a format on
    Recommendation rec;
    rec.label = r.label;
    rec.min_exp = r.exp.min_exp;
    rec.max_exp = r.exp.max_exp;
    rec.exp_bits = min_exp_bits(rec.min_exp, rec.max_exp);
    rec.man_bits = man_bits_hint(r.dev, default_man);
    recs.push_back(std::move(rec));
  }
  return recs;
}

std::string recommendations_to_profile(const std::vector<Recommendation>& recs) {
  std::string out = "# raptor profile (trace --recommend)\n";
  for (const Recommendation& r : recs) {
    // "<toplevel>" is the synthetic outside-any-region label; a region
    // directive for it could never bind (overrides resolve at region entry).
    if (r.label == "<toplevel>") continue;
    // The config grammar splits "region <label> <spec>" on whitespace, so a
    // label containing whitespace cannot be expressed; leave a breadcrumb.
    if (r.label.find_first_of(" \t") != std::string::npos) {
      out += "# skipped (label contains whitespace): " + r.label + '\n';
      continue;
    }
    out += "region ";
    out += r.label;
    out += " 64_to_";
    out += std::to_string(r.exp_bits);
    out += '_';
    out += std::to_string(r.man_bits);
    out += '\n';
  }
  return out;
}

std::string report_json(const TraceData& td, const std::vector<RegionReport>& reports) {
  std::ostringstream out;
  json::Writer w(out);
  w.begin_object()
      .field("sample_stride", td.sample_stride)
      .field("dropped", td.total_dropped())
      .key("regions")
      .begin_array();
  for (const RegionReport& r : reports) {
    w.begin_object()
        .field("region", r.label)
        .field("events", r.events)
        .field("sampled_ops", r.ops)
        .field("trunc_ops", r.trunc_ops)
        .field("mem_ops", r.mem_ops);
    if (r.exp.has_range()) w.field("exp_min", r.exp.min_exp).field("exp_max", r.exp.max_exp);
    w.field("zero", r.exp.zero)
        .field("subnormal", r.exp.subnormal)
        .field("inf", r.exp.inf)
        .field("nan", r.exp.nan)
        .field("seconds", r.seconds)
        .field("dev_p99", r.dev.quantile(0.99))
        .field("dev_max", r.dev.max_bound())
        .end_object();
  }
  w.end_array().key("recommendations").begin_array();
  for (const Recommendation& r : recommend(td)) {
    w.begin_object()
        .field("region", r.label)
        .field("exp_bits", r.exp_bits)
        .field("man_bits", r.man_bits)
        .field("min_exp", r.min_exp)
        .field("max_exp", r.max_exp)
        .end_object();
  }
  w.end_array().end_object();
  return out.str();
}

}  // namespace raptor::trace
