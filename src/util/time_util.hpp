// Time constants and formatting shared across the library.
//
// All trace timestamps are in seconds since trace start (int64). The
// Google trace samples usage every 5 minutes; a "month" means the paper's
// 30-day window.
#pragma once

#include <cstdint>
#include <string>

namespace cgc::util {

using TimeSec = std::int64_t;

inline constexpr TimeSec kSecondsPerMinute = 60;
inline constexpr TimeSec kSecondsPerHour = 3600;
inline constexpr TimeSec kSecondsPerDay = 86400;
inline constexpr TimeSec kSecondsPerMonth = 30 * kSecondsPerDay;

/// The Google trace's measurement/sampling period.
inline constexpr TimeSec kSamplePeriod = 5 * kSecondsPerMinute;

/// Converts seconds to fractional days (for plotting against the paper's
/// day-scaled axes).
double to_days(TimeSec t);

/// Converts seconds to fractional minutes.
double to_minutes(TimeSec t);

/// Human-readable duration, e.g. "2d 03:15:42" or "00:05:00".
std::string format_duration(TimeSec t);

}  // namespace cgc::util
