// Minimal leveled logger. Thread-safe (a single mutex serializes lines),
// writes to stderr. Level is process-global and settable via
// CGC_LOG_LEVEL=debug|info|warn|error.
#pragma once

#include <sstream>
#include <string>

namespace cgc::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Current process-global level (default kInfo, or CGC_LOG_LEVEL env).
LogLevel log_level();

namespace detail {
void log_line(LogLevel level, const std::string& message);
}  // namespace detail

/// Stream-style log statement builder:
///   CGC_LOG(kInfo) << "generated " << n << " jobs";
class LogMessage {
 public:
  /// Starts a message at `level`; emitted (or dropped) on destruction.
  explicit LogMessage(LogLevel level) : level_(level) {}
  /// Writes the buffered line if `level` clears the active threshold.
  ~LogMessage() {
    if (level_ >= log_level()) {
      detail::log_line(level_, stream_.str());
    }
  }
  /// Appends any streamable value to the pending line.
  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace cgc::util

#define CGC_LOG(level) ::cgc::util::LogMessage(::cgc::util::LogLevel::level)
