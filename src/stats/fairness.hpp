// Fairness index.
//
// Jain's fairness index is the paper's measure of job-submission
// stability (Table I): f(x) = (Σx)² / (n·Σx²) over per-hour submission
// counts.
#pragma once

#include <span>

namespace cgc::stats {

/// Jain's fairness index in (0, 1]; 1 means perfectly even. Returns 0
/// for an empty sample or an all-zero sample.
double jain_fairness(std::span<const double> values);

}  // namespace cgc::stats
