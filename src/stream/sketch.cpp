#include "stream/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace cgc::stream {

namespace {

/// Appends a POD value's bytes (fixed width, native little-endian on
/// every platform we build for) to a state string.
template <typename T>
void append_pod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamingEcdf
// ---------------------------------------------------------------------------

StreamingEcdf::StreamingEcdf(double relative_error) : alpha_(relative_error) {
  CGC_CHECK_MSG(relative_error > 0.0 && relative_error < 0.5,
                "StreamingEcdf relative error must be in (0, 0.5)");
  ln_gamma_ = std::log(stats::bucketing::log_gamma_for_error(alpha_));
  inv_ln_gamma_ = 1.0 / ln_gamma_;
}

void StreamingEcdf::ensure_bucket(std::int32_t index) {
  if (counts_.empty()) {
    base_ = index;
    counts_.assign(1, 0);
    return;
  }
  if (index < base_) {
    counts_.insert(counts_.begin(),
                   static_cast<std::size_t>(base_ - index), 0);
    base_ = index;
  } else if (const auto off = static_cast<std::size_t>(index - base_);
             off >= counts_.size()) {
    counts_.resize(off + 1, 0);
  }
}

void StreamingEcdf::add_n(double x, std::uint64_t n) {
  if (n == 0) {
    return;
  }
  const std::int32_t index = stats::bucketing::log_index(x, inv_ln_gamma_);
  ensure_bucket(index);
  counts_[static_cast<std::size_t>(index - base_)] += n;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += n;
}

void StreamingEcdf::merge(const StreamingEcdf& other) {
  CGC_CHECK_MSG(alpha_ == other.alpha_,
                "cannot merge StreamingEcdfs with different error bounds");
  if (other.count_ == 0) {
    return;
  }
  ensure_bucket(other.base_);
  ensure_bucket(other.base_ +
                static_cast<std::int32_t>(other.counts_.size()) - 1);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[static_cast<std::size_t>(
        other.base_ + static_cast<std::int32_t>(i) - base_)] +=
        other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

double StreamingEcdf::mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      sum += static_cast<double>(counts_[i]) *
             stats::bucketing::log_value(
                 base_ + static_cast<std::int32_t>(i), ln_gamma_);
    }
  }
  return sum / static_cast<double>(count_);
}

double StreamingEcdf::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Same rank convention as stats::Ecdf::quantile: the smallest value
  // whose cumulative fraction reaches q.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t rank = std::max<std::uint64_t>(target, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const double v = stats::bucketing::log_value(
          base_ + static_cast<std::int32_t>(i), ln_gamma_);
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

std::vector<std::pair<double, double>> StreamingEcdf::plot_points(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> points;
  if (count_ == 0 || max_points == 0) {
    return points;
  }
  // Occupied buckets in order; downsample evenly if there are more than
  // max_points of them (always keeping the last, where F reaches 1).
  std::vector<std::pair<double, double>> full;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    seen += counts_[i];
    const double v = std::clamp(
        stats::bucketing::log_value(base_ + static_cast<std::int32_t>(i),
                                    ln_gamma_),
        min_, max_);
    full.emplace_back(v,
                      static_cast<double>(seen) /
                          static_cast<double>(count_));
  }
  if (full.size() <= max_points) {
    return full;
  }
  const double step = static_cast<double>(full.size() - 1) /
                      static_cast<double>(max_points - 1);
  for (std::size_t p = 0; p < max_points; ++p) {
    points.push_back(full[static_cast<std::size_t>(
        std::lround(static_cast<double>(p) * step))]);
  }
  points.back() = full.back();
  return points;
}

void StreamingEcdf::append_state(std::string* out) const {
  append_pod(out, alpha_);
  append_pod(out, count_);
  append_pod(out, min_);
  append_pod(out, max_);
  // Trim leading/trailing zero buckets so physically different layouts
  // of the same logical state serialize identically.
  std::size_t lo = 0;
  std::size_t hi = counts_.size();
  while (lo < hi && counts_[lo] == 0) {
    ++lo;
  }
  while (hi > lo && counts_[hi - 1] == 0) {
    --hi;
  }
  append_pod(out, static_cast<std::int32_t>(
                      base_ + static_cast<std::int32_t>(lo)));
  append_pod(out, static_cast<std::uint64_t>(hi - lo));
  for (std::size_t i = lo; i < hi; ++i) {
    append_pod(out, counts_[i]);
  }
}

// ---------------------------------------------------------------------------
// CounterBank
// ---------------------------------------------------------------------------

std::size_t CounterBank::pindex(int priority) {
  const int clamped = std::clamp<int>(priority, trace::kMinPriority,
                                      trace::kMaxPriority);
  return static_cast<std::size_t>(clamped - trace::kMinPriority);
}

void CounterBank::add(int priority, trace::TaskEventType type,
                      std::int64_t n) {
  counts_[pindex(priority)][static_cast<std::size_t>(type)] += n;
  total_ += n;
}

void CounterBank::merge(const CounterBank& other) {
  for (std::size_t p = 0; p < counts_.size(); ++p) {
    for (std::size_t e = 0; e < counts_[p].size(); ++e) {
      counts_[p][e] += other.counts_[p][e];
    }
  }
  total_ += other.total_;
}

std::int64_t CounterBank::count(int priority,
                                trace::TaskEventType type) const {
  return counts_[pindex(priority)][static_cast<std::size_t>(type)];
}

std::int64_t CounterBank::total(trace::TaskEventType type) const {
  std::int64_t sum = 0;
  for (const auto& row : counts_) {
    sum += row[static_cast<std::size_t>(type)];
  }
  return sum;
}

std::int64_t CounterBank::submits_in_band(trace::PriorityBand band) const {
  std::int64_t sum = 0;
  for (int p = trace::kMinPriority; p <= trace::kMaxPriority; ++p) {
    if (trace::band_of(p) == band) {
      sum += count(p, trace::TaskEventType::kSubmit);
    }
  }
  return sum;
}

std::int64_t CounterBank::abnormal_terminals() const {
  std::int64_t sum = 0;
  for (std::size_t e = 0; e < trace::kNumTaskEventTypes; ++e) {
    const auto type = static_cast<trace::TaskEventType>(e);
    if (trace::is_abnormal(type)) {
      sum += total(type);
    }
  }
  return sum;
}

std::int64_t CounterBank::terminals() const {
  std::int64_t sum = 0;
  for (std::size_t e = 0; e < trace::kNumTaskEventTypes; ++e) {
    const auto type = static_cast<trace::TaskEventType>(e);
    if (trace::is_terminal(type)) {
      sum += total(type);
    }
  }
  return sum;
}

void CounterBank::append_state(std::string* out) const {
  for (const auto& row : counts_) {
    for (const std::int64_t c : row) {
      append_pod(out, c);
    }
  }
  append_pod(out, total_);
}

// ---------------------------------------------------------------------------
// ExtendedP2
// ---------------------------------------------------------------------------

ExtendedP2::ExtendedP2(std::vector<double> probes)
    : probes_(std::move(probes)) {
  CGC_CHECK_MSG(!probes_.empty(), "ExtendedP2 needs at least one probe");
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    CGC_CHECK_MSG(probes_[i] > 0.0 && probes_[i] < 1.0,
                  "ExtendedP2 probes must be in (0, 1)");
    CGC_CHECK_MSG(i == 0 || probes_[i] > probes_[i - 1],
                  "ExtendedP2 probes must be strictly increasing");
  }
  // Markers: min, midpoints around each probe, max — the classic
  // extended_p_square layout of 2K+3 markers.
  const std::size_t m = 2 * probes_.size() + 3;
  heights_.assign(m, 0.0);
  positions_.assign(m, 0.0);
}

double ExtendedP2::desired_position(std::size_t marker) const {
  // Desired quantile of each marker: 0, p1/2, p1, (p1+p2)/2, p2, ...,
  // (pK+1)/2, 1.
  const std::size_t m = heights_.size();
  double dq = 0.0;
  if (marker == 0) {
    dq = 0.0;
  } else if (marker == m - 1) {
    dq = 1.0;
  } else if (marker % 2 == 0) {
    dq = probes_[marker / 2 - 1];
  } else {
    const std::size_t k = marker / 2;  // midpoint below probe k
    const double lo = k == 0 ? 0.0 : probes_[k - 1];
    const double hi = k == probes_.size() ? 1.0 : probes_[k];
    dq = 0.5 * (lo + hi);
  }
  return 1.0 + dq * (static_cast<double>(count_) - 1.0);
}

void ExtendedP2::add(double x) {
  const std::size_t m = heights_.size();
  if (count_ < m) {
    // Warm-up: collect the first m samples exactly.
    heights_[count_] = x;
    ++count_;
    if (count_ == m) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < m; ++i) {
        positions_[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }
  ++count_;
  // Locate the cell and bump endpoint markers.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[m - 1]) {
    heights_[m - 1] = std::max(heights_[m - 1], x);
    k = m - 2;
  } else {
    k = static_cast<std::size_t>(
            std::upper_bound(heights_.begin(), heights_.end(), x) -
            heights_.begin()) -
        1;
  }
  for (std::size_t i = k + 1; i < m; ++i) {
    positions_[i] += 1.0;
  }
  // Adjust interior markers toward their desired positions with the P²
  // parabolic formula, falling back to linear when non-monotone.
  for (std::size_t i = 1; i + 1 < m; ++i) {
    const double desired = desired_position(i);
    const double d = desired - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double np = positions_[i] + sign;
      const double h_above = heights_[i + 1] - heights_[i];
      const double h_below = heights_[i] - heights_[i - 1];
      // Parabolic prediction.
      double nh =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((np - positions_[i - 1] + sign) * h_above / above +
               (positions_[i + 1] - np - sign) * h_below / below);
      if (nh <= heights_[i - 1] || nh >= heights_[i + 1]) {
        // Linear fallback.
        nh = sign > 0 ? heights_[i] + h_above / above
                      : heights_[i] - h_below / below;
      }
      heights_[i] = nh;
      positions_[i] = np;
    }
  }
}

double ExtendedP2::estimate(std::size_t probe_index) const {
  CGC_CHECK(probe_index < probes_.size());
  const std::size_t m = heights_.size();
  if (count_ == 0) {
    return 0.0;
  }
  if (count_ < m) {
    // Exact during warm-up: order statistics of what we have.
    std::vector<double> sorted(heights_.begin(),
                               heights_.begin() +
                                   static_cast<std::ptrdiff_t>(count_));
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(probes_[probe_index] * static_cast<double>(count_)));
    return sorted[std::min(sorted.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
  }
  return heights_[2 * (probe_index + 1)];
}

void ExtendedP2::append_state(std::string* out) const {
  append_pod(out, count_);
  for (const double p : probes_) {
    append_pod(out, p);
  }
  for (const double h : heights_) {
    append_pod(out, h);
  }
  for (const double p : positions_) {
    append_pod(out, p);
  }
}

}  // namespace cgc::stream
