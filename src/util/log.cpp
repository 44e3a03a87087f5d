#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/mutex.hpp"

namespace cgc::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::once_flag g_env_once;
// Serializes whole lines onto stderr; no data is guarded, only the
// interleaving of fprintf calls.
Mutex g_io_mutex;

void init_from_env() {
  const char* env = std::getenv("CGC_LOG_LEVEL");
  if (env == nullptr) {
    return;
  }
  if (std::strcmp(env, "debug") == 0) {
    g_level = LogLevel::kDebug;
  } else if (std::strcmp(env, "info") == 0) {
    g_level = LogLevel::kInfo;
  } else if (std::strcmp(env, "warn") == 0) {
    g_level = LogLevel::kWarn;
  } else if (std::strcmp(env, "error") == 0) {
    g_level = LogLevel::kError;
  }
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel log_level() {
  std::call_once(g_env_once, init_from_env);
  return g_level.load(std::memory_order_relaxed);
}

namespace detail {

void log_line(LogLevel level, const std::string& message) {
  MutexLock lock(g_io_mutex);
  std::fprintf(stderr, "[cgc %-5s] %s\n", level_name(level),
               message.c_str());
}

}  // namespace detail

}  // namespace cgc::util
