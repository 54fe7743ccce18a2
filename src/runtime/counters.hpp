// Operation and memory-traffic counters (paper §3.4: "the runtime also keeps
// track of how many floating-point operations are executed and how much
// memory is accessed in truncated and non-truncated regions"). These feed
// the Figure 7 bar plots and the §7.2 hardware co-design model.
//
// Each aggregate is written once, as a template on its field type
// (DESIGN.md §7):
//   * `Value` (the plain type): CounterSnapshot and RegionProfile, the
//     values readers get;
//   * `Cell` (a single-writer atomic): the runtime's per-thread
//     accumulators, which other threads read while their owner writes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/opkind.hpp"
#include "support/common.hpp"

namespace raptor::rt {

/// Field type of the values readers get: the plain type itself.
template <class T>
using Value = T;

/// Field type of a per-thread accumulator. Only the owning thread writes
/// it, with a relaxed load and a relaxed store: no read-modify-write, lock
/// or fence, so a bump compiles to plain moves. Any thread may read it
/// meanwhile; a read sees each store whole, and successive reads never
/// step back.
template <class T>
class Cell {
 public:
  Cell() = default;
  Cell& operator=(T v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  Cell& operator+=(T d) { return *this = v_.load(std::memory_order_relaxed) + d; }
  operator T() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<T> v_{};
};

/// Flops and memory bytes, truncated and full, in total and per OpKind.
template <template <class> class F>
struct BasicCounters {
  F<u64> trunc_flops{};
  F<u64> full_flops{};
  F<u64> trunc_bytes{};
  F<u64> full_bytes{};
  std::array<F<u64>, kNumOpKinds> trunc_by_kind{};
  std::array<F<u64>, kNumOpKinds> full_by_kind{};

  /// Record `n` operations of kind `k` (trunc or full). The batch entry
  /// points use this to update counters once per span instead of once per
  /// op; the scalar path is the n == 1 case.
  void bump_ops(OpKind k, bool trunc, u64 n) {
    if (trunc) {
      trunc_flops += n;
      trunc_by_kind[static_cast<int>(k)] += n;
    } else {
      full_flops += n;
      full_by_kind[static_cast<int>(k)] += n;
    }
  }

  template <template <class> class G>
  void merge(const BasicCounters<G>& o) {
    trunc_flops += o.trunc_flops;
    full_flops += o.full_flops;
    trunc_bytes += o.trunc_bytes;
    full_bytes += o.full_bytes;
    for (int i = 0; i < kNumOpKinds; ++i) {
      trunc_by_kind[i] += o.trunc_by_kind[i];
      full_by_kind[i] += o.full_by_kind[i];
    }
  }

  /// Zero every field (Cell fields cannot be assigned a fresh aggregate).
  void clear() {
    trunc_flops = 0;
    full_flops = 0;
    trunc_bytes = 0;
    full_bytes = 0;
    for (F<u64>& c : trunc_by_kind) c = 0;
    for (F<u64>& c : full_by_kind) c = 0;
  }

  [[nodiscard]] u64 total_flops() const { return trunc_flops + full_flops; }
  [[nodiscard]] u64 total_bytes() const { return trunc_bytes + full_bytes; }

  /// Fraction of FP operations executed in truncated precision (the
  /// "Truncated FP ops" column of Tables 2 and 3).
  [[nodiscard]] double trunc_fraction() const {
    const u64 t = total_flops();
    return t == 0 ? 0.0 : static_cast<double>(trunc_flops) / static_cast<double>(t);
  }
};

using CounterSnapshot = BasicCounters<Value>;

/// Per-region aggregate (the precision-search input, DESIGN.md §10): the
/// counters of every operation executed while the region was innermost on
/// its thread, plus the worst mem-mode deviation observed there. Collected
/// per thread and merged on read, like CounterSnapshot.
template <template <class> class F>
struct BasicRegionProfile {
  BasicCounters<F> counters;
  F<double> seconds{};        ///< wall-clock self-time (exclusive, DESIGN.md §16)
  F<double> max_deviation{};  ///< worst mem-mode result deviation (0 in op-mode)
  F<u64> flagged{};           ///< mem-mode results above the deviation threshold

  template <template <class> class G>
  void merge(const BasicRegionProfile<G>& o) {
    counters.merge(o.counters);
    seconds += o.seconds;
    const double dev = o.max_deviation;
    max_deviation = max_deviation > dev ? max_deviation : dev;
    flagged += o.flagged;
  }
};

using RegionProfile = BasicRegionProfile<Value>;

/// One labelled row of Runtime::region_profiles().
struct RegionProfileEntry {
  std::string label;
  RegionProfile profile;
};

/// One deviation-heatmap record (mem-mode, paper §6.3): operations at
/// `location` whose truncated result deviated from the FP64 shadow by more
/// than the configured threshold.
struct FlagRecord {
  std::string location;  ///< region label (or explicit source location)
  OpKind op = OpKind::Add;
  u64 flagged = 0;  ///< results above threshold
  u64 fresh = 0;    ///< results above threshold whose inputs were all below
  double max_deviation = 0.0;
};

}  // namespace raptor::rt
