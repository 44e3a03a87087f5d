#include "util/check.hpp"

#include <sstream>

namespace cgc::util::detail {

void fail_check(const char* expr, const char* file, int line,
                const std::string& message) {
  std::ostringstream oss;
  oss << "CGC_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!message.empty()) {
    oss << " — " << message;
  }
  throw Error(oss.str());
}

}  // namespace cgc::util::detail
