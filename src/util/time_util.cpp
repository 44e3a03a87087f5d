#include "util/time_util.hpp"

#include <cstdio>

namespace cgc::util {

double to_days(TimeSec t) {
  return static_cast<double>(t) / static_cast<double>(kSecondsPerDay);
}

double to_minutes(TimeSec t) {
  return static_cast<double>(t) / static_cast<double>(kSecondsPerMinute);
}

std::string format_duration(TimeSec t) {
  const bool negative = t < 0;
  if (negative) {
    t = -t;
  }
  const TimeSec days = t / kSecondsPerDay;
  const TimeSec rem = t % kSecondsPerDay;
  const TimeSec h = rem / kSecondsPerHour;
  const TimeSec m = (rem % kSecondsPerHour) / kSecondsPerMinute;
  const TimeSec s = rem % kSecondsPerMinute;
  char buf[64];
  if (days > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldd %02lld:%02lld:%02lld",
                  negative ? "-" : "", static_cast<long long>(days),
                  static_cast<long long>(h), static_cast<long long>(m),
                  static_cast<long long>(s));
  } else {
    std::snprintf(buf, sizeof(buf), "%s%02lld:%02lld:%02lld",
                  negative ? "-" : "", static_cast<long long>(h),
                  static_cast<long long>(m), static_cast<long long>(s));
  }
  return buf;
}

}  // namespace cgc::util
