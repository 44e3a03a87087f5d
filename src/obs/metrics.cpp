#include "obs/metrics.hpp"

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <variant>

#include "util/check.hpp"
#include "util/mutex.hpp"

namespace cgc::obs {

void Gauge::raise_max(std::int64_t candidate) {
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !max_.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

void Gauge::add(std::int64_t delta) {
  const std::int64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_max(now);
}

void Gauge::set(std::int64_t value) {
  value_.store(value, std::memory_order_relaxed);
  raise_max(value);
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[stats::bucketing::log2_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~std::uint64_t{0} ? 0 : v;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::approx_percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  // Rank of the target observation, 1-based; walk buckets upward.
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(n));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank || seen == n) {
      // Inclusive upper bound of bucket b (exact max for the top one).
      return b >= 64 ? max() : stats::bucketing::log2_upper(b);
    }
  }
  return max();
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// One registry slot; the variant enforces one-kind-per-name.
using Metric = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                            std::unique_ptr<Histogram>>;

struct Registry {
  util::Mutex mutex;
  // Guarded: the map structure. The metric objects behind the
  // unique_ptrs are lock-free (atomics) and are mutated unguarded by
  // design — registration returns stable references.
  std::map<std::string, Metric, std::less<>> metrics
      CGC_GUARDED_BY(mutex);
};

/// Leaked so atexit exporters never race static destruction.
Registry& registry() {
  static auto* r = new Registry;
  return *r;
}

template <typename T>
T& find_or_create(std::string_view name, const char* kind) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  auto it = r.metrics.find(name);
  if (it == r.metrics.end()) {
    it = r.metrics.emplace(std::string(name), std::make_unique<T>()).first;
  }
  auto* slot = std::get_if<std::unique_ptr<T>>(&it->second);
  CGC_CHECK_MSG(slot != nullptr, "metric '" + std::string(name) +
                                     "' already registered as another kind "
                                     "(wanted " +
                                     kind + ")");
  return **slot;
}

}  // namespace

Counter& counter(std::string_view name) {
  return find_or_create<Counter>(name, "counter");
}

Gauge& gauge(std::string_view name) {
  return find_or_create<Gauge>(name, "gauge");
}

Histogram& histogram(std::string_view name) {
  return find_or_create<Histogram>(name, "histogram");
}

void reset_metrics() {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  for (auto& [name, metric] : r.metrics) {
    std::visit([](auto& m) { m->reset(); }, metric);
  }
}

void write_metrics_json(std::ostream& out) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  // Names are dotted identifiers chosen by call sites — no escaping
  // beyond what std::map ordering already guarantees (determinism).
  out << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, metric] : r.metrics) {
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      out << sep << "\n    \"" << name << "\": " << (*c)->value();
      sep = ",";
    }
  }
  out << "\n  },\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, metric] : r.metrics) {
    if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      out << sep << "\n    \"" << name << "\": {\"value\": " << (*g)->value()
          << ", \"max\": " << (*g)->max() << "}";
      sep = ",";
    }
  }
  out << "\n  },\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, metric] : r.metrics) {
    if (const auto* h = std::get_if<std::unique_ptr<Histogram>>(&metric)) {
      const Histogram& hist = **h;
      out << sep << "\n    \"" << name << "\": {\"count\": " << hist.count()
          << ", \"sum\": " << hist.sum() << ", \"min\": " << hist.min()
          << ", \"max\": " << hist.max() << ", \"mean\": " << hist.mean()
          << ", \"p50\": " << hist.approx_percentile(0.50)
          << ", \"p95\": " << hist.approx_percentile(0.95)
          << ", \"p99\": " << hist.approx_percentile(0.99) << "}";
      sep = ",";
    }
  }
  out << "\n  }\n}\n";
}

}  // namespace cgc::obs
