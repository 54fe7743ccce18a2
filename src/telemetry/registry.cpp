#include "telemetry/registry.hpp"

#include <bit>

namespace raptor::telemetry {

namespace {

/// Stable series key: metric name plus labels in registration order. Label
/// values may contain anything, so separate with bytes that cannot appear
/// in metric/label names.
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

Registry& Registry::instance() {
  static Registry* reg = new Registry();  // leaked: immune to shutdown order
  return *reg;
}

// -- registration -----------------------------------------------------------

u32 Registry::register_metric(MetricDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = series_key(def.name, def.labels);
  if (auto it = index_.find(key); it != index_.end()) {
    RAPTOR_REQUIRE(defs_[it->second].kind == def.kind &&
                       defs_[it->second].is_callback == def.is_callback,
                   "telemetry: series re-registered with a different kind");
    return it->second;
  }
  if (!def.is_callback) {
    RAPTOR_REQUIRE(next_gauge_ < kGaugeCapacity, "telemetry: gauge capacity exhausted");
    def.gauge_slot = next_gauge_++;
  }
  const u32 idx = static_cast<u32>(defs_.size());
  defs_.push_back(std::move(def));
  index_.emplace(key, idx);
  return idx;
}

Gauge Registry::gauge(std::string_view name, std::string_view help, Labels labels) {
  MetricDef def;
  def.kind = MetricKind::Gauge;
  def.name = std::string(name);
  def.help = std::string(help);
  def.labels = std::move(labels);
  const u32 idx = register_metric(std::move(def));
  std::lock_guard<std::mutex> lock(mu_);
  return Gauge(this, defs_[idx].gauge_slot);
}

void Registry::callback(MetricKind kind, std::string_view name, std::function<double()> fn,
                        std::string_view help, Labels labels) {
  MetricDef def;
  def.kind = kind;
  def.name = std::string(name);
  def.help = std::string(help);
  def.labels = std::move(labels);
  def.is_callback = true;
  const u32 idx = register_metric(std::move(def));
  // Registration is idempotent but the callback is always replaced:
  // wiring code re-runs after Registry::reset() (which drops callbacks)
  // and must be able to re-arm a surviving series.
  std::lock_guard<std::mutex> lock(mu_);
  defs_[idx].fn = std::move(fn);
}

void Registry::snapshot_hook(std::string_view key, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, hook] : hooks_) {
    if (k == key) {
      hook = std::move(fn);
      return;
    }
  }
  hooks_.emplace_back(std::string(key), std::move(fn));
}

// -- gauges -----------------------------------------------------------------

void Gauge::set(double v) {
  if (reg_ == nullptr) return;
  reg_->gauges_[slot_].store(std::bit_cast<u64>(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  if (reg_ == nullptr) return 0.0;
  return std::bit_cast<double>(reg_->gauges_[slot_].load(std::memory_order_relaxed));
}

// -- reads ------------------------------------------------------------------

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, hook] : hooks_) hook();
  snap.samples.reserve(defs_.size());
  for (const MetricDef& d : defs_) {
    Sample s;
    s.kind = d.kind;
    s.name = d.name;
    s.help = d.help;
    s.labels = d.labels;
    if (d.is_callback) {
      const double v = d.fn ? d.fn() : 0.0;
      s.value = v;
      s.count = v <= 0 ? 0 : static_cast<u64>(v);
    } else {
      s.value = std::bit_cast<double>(gauges_[d.gauge_slot].load(std::memory_order_relaxed));
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (u32 i = 0; i < kGaugeCapacity; ++i) gauges_[i].store(0, std::memory_order_relaxed);
  // Drop callbacks: they capture state (often the Runtime) that tests
  // reset independently; wiring code re-registers them.
  std::vector<MetricDef> kept;
  kept.reserve(defs_.size());
  std::map<std::string, u32> index;
  for (MetricDef& d : defs_) {
    if (d.is_callback) continue;
    index.emplace(series_key(d.name, d.labels), static_cast<u32>(kept.size()));
    kept.push_back(std::move(d));
  }
  defs_ = std::move(kept);
  index_ = std::move(index);
  hooks_.clear();
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.size();
}

}  // namespace raptor::telemetry
