#include "trace/host_load.hpp"

#include <algorithm>

namespace cgc::trace {

HostLoadSeries::HostLoadSeries(std::int64_t machine_id, TimeSec start,
                               TimeSec period)
    : machine_id_(machine_id), start_(start), period_(period) {
  CGC_CHECK_MSG(period > 0, "sample period must be positive");
}

void HostLoadSeries::append(const float cpu_by_band[kNumBands],
                            const float mem_by_band[kNumBands],
                            float mem_assigned, float page_cache,
                            std::int32_t running, std::int32_t pending) {
  for (std::size_t b = 0; b < kNumBands; ++b) {
    cpu_[b].push_back(cpu_by_band[b]);
    mem_[b].push_back(mem_by_band[b]);
  }
  mem_assigned_.push_back(mem_assigned);
  page_cache_.push_back(page_cache);
  running_.push_back(running);
  pending_.push_back(pending);
}

void HostLoadSeries::reserve(std::size_t n) {
  for (std::size_t b = 0; b < kNumBands; ++b) {
    cpu_[b].reserve(n);
    mem_[b].reserve(n);
  }
  mem_assigned_.reserve(n);
  page_cache_.reserve(n);
  running_.reserve(n);
  pending_.reserve(n);
}

void HostLoadSeries::resize(std::size_t n) {
  for (std::size_t b = 0; b < kNumBands; ++b) {
    cpu_[b].resize(n);
    mem_[b].resize(n);
  }
  mem_assigned_.resize(n);
  page_cache_.resize(n);
  running_.resize(n);
  pending_.resize(n);
}

float HostLoadSeries::cpu_total(std::size_t i) const {
  return cpu_[0][i] + cpu_[1][i] + cpu_[2][i];
}

float HostLoadSeries::mem_total(std::size_t i) const {
  return mem_[0][i] + mem_[1][i] + mem_[2][i];
}

float HostLoadSeries::cpu_from_band(PriorityBand min_band,
                                    std::size_t i) const {
  float total = 0.0f;
  for (std::size_t b = static_cast<std::size_t>(min_band); b < kNumBands;
       ++b) {
    total += cpu_[b][i];
  }
  return total;
}

float HostLoadSeries::mem_from_band(PriorityBand min_band,
                                    std::size_t i) const {
  float total = 0.0f;
  for (std::size_t b = static_cast<std::size_t>(min_band); b < kNumBands;
       ++b) {
    total += mem_[b][i];
  }
  return total;
}

std::vector<double> HostLoadSeries::cpu_relative(double capacity,
                                                 PriorityBand min_band) const {
  CGC_CHECK_MSG(capacity > 0.0, "capacity must be positive");
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out[i] = std::clamp(cpu_from_band(min_band, i) / capacity, 0.0, 1.0);
  }
  return out;
}

std::vector<double> HostLoadSeries::mem_relative(double capacity,
                                                 PriorityBand min_band) const {
  CGC_CHECK_MSG(capacity > 0.0, "capacity must be positive");
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out[i] = std::clamp(mem_from_band(min_band, i) / capacity, 0.0, 1.0);
  }
  return out;
}

namespace {
template <typename F>
float max_over(std::size_t n, F&& value_at) {
  float best = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    best = std::max(best, value_at(i));
  }
  return best;
}
}  // namespace

float HostLoadSeries::max_cpu() const {
  return max_over(size(), [this](std::size_t i) { return cpu_total(i); });
}

float HostLoadSeries::max_mem() const {
  return max_over(size(), [this](std::size_t i) { return mem_total(i); });
}

float HostLoadSeries::max_mem_assigned() const {
  return max_over(size(), [this](std::size_t i) { return mem_assigned_[i]; });
}

float HostLoadSeries::max_page_cache() const {
  return max_over(size(), [this](std::size_t i) { return page_cache_[i]; });
}

}  // namespace cgc::trace
