// cgc::stream — streaming (one-pass) variants of the stats
// kernels the batch analyzers use.
//
// The batch pipeline computes the paper's distributions from complete
// in-memory sample vectors (stats::Ecdf sorts the whole sample). The
// online daemon cannot hold a month of events, so each kernel here is a
// fixed-size summary with three contracts:
//
//   1. add(x) is O(1) and allocation-free on the hot path (amortized:
//      the ECDF's bucket array grows to the data's dynamic range once).
//   2. The count-based kernels (StreamingEcdf, CounterBank) merge:
//      merge(other) combines two summaries built over disjoint slices
//      of a stream into the summary of the union, exactly and
//      order-invariantly — integer bucket adds commute and associate,
//      so any merge tree over any slice permutation yields bit-identical
//      state. SlidingWindow adds up pane summaries this way. The
//      floating-point kernels (ExtendedP2 here, and the windows' Welford
//      stats::RunningStats) are not merged: their state depends on
//      sample order, so the engine feeds each window's copy directly,
//      in arrival order.
//   3. Accuracy is bounded and documented: StreamingEcdf quantiles are
//      within relative error α of the exact sample quantile (log-γ
//      buckets, DDSketch-style, stats/bucketing.hpp); ExtendedP2 is a
//      constant-space heuristic (the extended_p_square idiom) with no
//      hard bound — it is the cheap per-window probe, not the metric of
//      record.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stats/bucketing.hpp"
#include "trace/types.hpp"

namespace cgc::stream {

// ---------------------------------------------------------------------------
// StreamingEcdf — incremental ECDF / log-γ histogram with bounded
// relative error.
// ---------------------------------------------------------------------------

/// One-pass ECDF over non-negative samples. Values are counted into
/// geometric buckets of ratio γ = (1+α)/(1-α); a reported quantile is
/// the geometric midpoint of its bucket clamped to the exact [min, max],
/// which keeps it within relative error α of the exact sample quantile.
/// merge() is an exact bucket-wise add — order-invariant bit-identical.
class StreamingEcdf {
 public:
  explicit StreamingEcdf(double relative_error = 0.01);

  void add(double x) { add_n(x, 1); }
  /// Adds `n` observations of value `x` (used by snapshot builders).
  void add_n(double x, std::uint64_t n);

  /// Folds `other` into this summary. Exact: the result's buckets equal
  /// the union stream's buckets whatever the merge order or grouping.
  void merge(const StreamingEcdf& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double relative_error() const { return alpha_; }
  /// Exact extremes of the stream (0 when empty).
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Mean of bucket representatives (within α of the exact mean).
  double mean() const;

  /// Smallest representative value v with F(v) >= q; within relative
  /// error α of the exact sample quantile. 0 on an empty summary.
  double quantile(double q) const;

  /// Up to `max_points` (value, F) pairs over the occupied buckets —
  /// the streaming analogue of stats::Ecdf::plot_points.
  std::vector<std::pair<double, double>> plot_points(
      std::size_t max_points = 200) const;

  /// Appends a canonical byte serialization (used by the determinism
  /// tests and the window spill format). Equal states ⇔ equal bytes.
  void append_state(std::string* out) const;

 private:
  /// counts_[i] holds bucket base_ + i of the log-γ scheme.
  void ensure_bucket(std::int32_t index);

  double alpha_;
  double ln_gamma_;
  double inv_ln_gamma_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::int32_t base_ = 0;
  std::vector<std::uint64_t> counts_;
};

// ---------------------------------------------------------------------------
// CounterBank — per-priority × per-event-type counters (Fig 2 / Fig 8
// online).
// ---------------------------------------------------------------------------

/// Integer counter bank over the 12 priorities × 8 task event types.
/// merge() adds counter-wise — exact and order-invariant.
class CounterBank {
 public:
  void add(int priority, trace::TaskEventType type, std::int64_t n = 1);
  void merge(const CounterBank& other);

  /// Count of `type` events at `priority` (1-based, clamped into 1..12).
  std::int64_t count(int priority, trace::TaskEventType type) const;
  /// Total events of `type` across priorities.
  std::int64_t total(trace::TaskEventType type) const;
  std::int64_t total() const { return total_; }
  /// SUBMIT events inside a priority band — the streaming Fig 2 view.
  std::int64_t submits_in_band(trace::PriorityBand band) const;
  /// Abnormal terminal events (EVICT/FAIL/KILL/LOST) across priorities.
  std::int64_t abnormal_terminals() const;
  /// All terminal events.
  std::int64_t terminals() const;

  void append_state(std::string* out) const;

 private:
  static std::size_t pindex(int priority);

  std::array<std::array<std::int64_t, trace::kNumTaskEventTypes>,
             trace::kNumPriorities>
      counts_{};
  std::int64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// ExtendedP2 — constant-space quantile probes (the extended_p_square
// accumulator idiom).
// ---------------------------------------------------------------------------

/// Extended P² estimator: maintains 2K+3 markers tracking K probe
/// quantiles simultaneously with parabolic (P²) marker adjustment.
/// A heuristic — accurate on smooth unimodal data, unbounded error in
/// adversarial cases; the engine uses it as the cheap per-window probe
/// while StreamingEcdf carries the documented error bound.
class ExtendedP2 {
 public:
  /// Probes must be strictly increasing, each in (0, 1).
  explicit ExtendedP2(std::vector<double> probes = {0.5, 0.9, 0.95, 0.99});

  void add(double x);

  std::uint64_t count() const { return count_; }
  std::span<const double> probes() const { return probes_; }
  /// Current estimate for probe i (exact while count <= marker count).
  double estimate(std::size_t probe_index) const;

  void append_state(std::string* out) const;

 private:
  double desired_position(std::size_t marker) const;

  std::vector<double> probes_;
  std::vector<double> heights_;    ///< marker heights (sorted)
  std::vector<double> positions_;  ///< marker positions (1-based)
  std::uint64_t count_ = 0;
};

}  // namespace cgc::stream
