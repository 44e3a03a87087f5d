// Per-machine host-load time series (structure-of-arrays).
//
// One HostLoadSeries per machine: usage sampled at a fixed period
// (default 5 minutes, like the Google trace), split by priority band so
// analyzers can compute "all tasks" vs "high-priority only" views
// (Figs 10-12). Stored as parallel float vectors — compact (Core
// Guidelines Per.16) and cache-friendly for the month-long scans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/types.hpp"

namespace cgc::trace {

/// Host-load samples for a single machine. All metric vectors share the
/// same length; entry i is the sample at time start + i * period.
/// Usage values are in absolute normalized units (same scale as Machine
/// capacities); divide by capacity for relative usage.
class HostLoadSeries {
 public:
  HostLoadSeries() = default;
  HostLoadSeries(std::int64_t machine_id, TimeSec start, TimeSec period);

  /// Appends one sample; the per-band arrays index by PriorityBand.
  void append(const float cpu_by_band[kNumBands],
              const float mem_by_band[kNumBands], float mem_assigned,
              float page_cache, std::int32_t running, std::int32_t pending);

  /// Reserves room for `n` samples in every column, so appending up to
  /// `n` samples never reallocates.
  void reserve(std::size_t n);

  /// Resizes every column to `n` samples; new samples are zero.
  void resize(std::size_t n);

  std::int64_t machine_id() const { return machine_id_; }
  TimeSec start() const { return start_; }
  TimeSec period() const { return period_; }
  std::size_t size() const { return mem_assigned_.size(); }
  bool empty() const { return mem_assigned_.empty(); }
  TimeSec time_at(std::size_t i) const {
    return start_ + static_cast<TimeSec>(i) * period_;
  }

  float cpu(PriorityBand band, std::size_t i) const {
    return cpu_[static_cast<std::size_t>(band)][i];
  }
  float mem(PriorityBand band, std::size_t i) const {
    return mem_[static_cast<std::size_t>(band)][i];
  }
  /// Total usage across all bands at sample i.
  float cpu_total(std::size_t i) const;
  float mem_total(std::size_t i) const;
  /// Usage summed over bands >= min_band (the paper's "high-priority"
  /// views are min_band = kHigh; "mid+high" is kMid).
  float cpu_from_band(PriorityBand min_band, std::size_t i) const;
  float mem_from_band(PriorityBand min_band, std::size_t i) const;

  float mem_assigned(std::size_t i) const { return mem_assigned_[i]; }
  float page_cache(std::size_t i) const { return page_cache_[i]; }
  std::int32_t running(std::size_t i) const { return running_[i]; }
  std::int32_t pending(std::size_t i) const { return pending_[i]; }

  /// Whole sample columns as spans (columnar access: the CGCS store
  /// writes and reads host load through these).
  std::span<const float> cpu_samples(PriorityBand band) const {
    return cpu_[static_cast<std::size_t>(band)];
  }
  std::span<float> cpu_samples(PriorityBand band) {
    return cpu_[static_cast<std::size_t>(band)];
  }
  std::span<const float> mem_samples(PriorityBand band) const {
    return mem_[static_cast<std::size_t>(band)];
  }
  std::span<float> mem_samples(PriorityBand band) {
    return mem_[static_cast<std::size_t>(band)];
  }
  std::span<const float> mem_assigned_samples() const { return mem_assigned_; }
  std::span<float> mem_assigned_samples() { return mem_assigned_; }
  std::span<const float> page_cache_samples() const { return page_cache_; }
  std::span<float> page_cache_samples() { return page_cache_; }
  std::span<const std::int32_t> running_samples() const { return running_; }
  std::span<std::int32_t> running_samples() { return running_; }
  std::span<const std::int32_t> pending_samples() const { return pending_; }
  std::span<std::int32_t> pending_samples() { return pending_; }

  /// Relative usage series (usage / capacity, clamped to [0,1]) for
  /// bands >= min_band. capacity must be positive.
  std::vector<double> cpu_relative(double capacity,
                                   PriorityBand min_band) const;
  std::vector<double> mem_relative(double capacity,
                                   PriorityBand min_band) const;

  /// Maximum over the series, all bands summed.
  float max_cpu() const;
  float max_mem() const;
  float max_mem_assigned() const;
  float max_page_cache() const;

 private:
  std::int64_t machine_id_ = 0;
  TimeSec start_ = 0;
  TimeSec period_ = util::kSamplePeriod;
  std::vector<float> cpu_[kNumBands];
  std::vector<float> mem_[kNumBands];
  std::vector<float> mem_assigned_;
  std::vector<float> page_cache_;
  std::vector<std::int32_t> running_;
  std::vector<std::int32_t> pending_;
};

}  // namespace cgc::trace
