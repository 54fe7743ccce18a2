// Live metrics registry (DESIGN.md §16): named gauges and callback metrics,
// exposed over the exposition layer (exposition.hpp) and the poll-based
// TCP server (server.hpp).
//
// The registry keeps no per-thread state: the counts it serves already
// live elsewhere, mostly in the runtime's per-thread accumulators, and a
// callback reads them at scrape time.
//
//   * Gauges are process-wide atomic doubles with last-write-wins set().
//   * Callback metrics hold a std::function evaluated at snapshot time —
//     the bridge to state the runtime already counts (op counters,
//     shadow-table occupancy, trace accounting): the hot path pays nothing
//     new, the scrape pays one read per series. Kind Counter renders a
//     source that is already a monotonic total as a Prometheus counter.
//
// Registration is idempotent: registering the same (name, labels) series
// again returns a handle to the existing metric, so wiring code can run
// once per process or once per test without duplicating series.
//
// Concurrency: registration, snapshot() and reset() take the registry
// mutex; Gauge::set() is one relaxed atomic store. snapshot() is safe at
// any time, as safe as the callbacks it evaluates.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/common.hpp"

namespace raptor::telemetry {

enum class MetricKind { Counter, Gauge };

using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry;

/// Handle to a process-wide gauge (atomic double, last-write-wins set).
class Gauge {
 public:
  Gauge() = default;
  void set(double v);
  [[nodiscard]] double value() const;

 private:
  friend class Registry;
  Gauge(Registry* reg, u32 slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  u32 slot_ = 0;
};

/// One metric in a Snapshot.
struct Sample {
  MetricKind kind = MetricKind::Counter;
  std::string name;
  std::string help;
  Labels labels;
  u64 count = 0;      ///< counters
  double value = 0.0; ///< gauges (and callback counters, pre-cast)
};

struct Snapshot {
  std::vector<Sample> samples;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide instance (leaked, like rt::Runtime: immune to shutdown
  /// order).
  static Registry& instance();

  // -- Registration (idempotent per (name, labels) series) ----------------

  Gauge gauge(std::string_view name, std::string_view help = {}, Labels labels = {});
  /// Callback metric evaluated at snapshot time. `kind` Counter renders as
  /// a Prometheus counter (for sources that are already monotonic totals,
  /// like the runtime's op counters); Gauge for instantaneous values.
  void callback(MetricKind kind, std::string_view name, std::function<double()> fn,
                std::string_view help = {}, Labels labels = {});

  // -- Reads --------------------------------------------------------------

  /// Every metric (gauges read, callbacks evaluated), in registration order.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every gauge and drop all callback registrations. Gauge
  /// definitions and handles stay valid.
  void reset();

  /// Number of registered series (tests).
  [[nodiscard]] std::size_t size() const;

 private:
  friend class Gauge;

  /// Process-wide gauge slots (atomic doubles, bit-cast through u64).
  static constexpr u32 kGaugeCapacity = 512;

  struct MetricDef {
    MetricKind kind = MetricKind::Counter;
    std::string name;
    std::string help;
    Labels labels;
    u32 gauge_slot = 0;               ///< gauges
    bool is_callback = false;         ///< true: no slot, fn at snapshot
    std::function<double()> fn;       ///< callbacks
  };

  u32 register_metric(MetricDef def);  ///< returns index; caller holds no lock

  mutable std::mutex mu_;
  std::vector<MetricDef> defs_;
  std::map<std::string, u32> index_;  ///< name + serialized labels -> defs_ index
  u32 next_gauge_ = 0;
  std::unique_ptr<std::atomic<u64>[]> gauges_{new std::atomic<u64>[kGaugeCapacity]{}};
};

}  // namespace raptor::telemetry
