// Clean fixture: an input reader that reports bad input as a data
// error and keeps CGC_CHECK for a marked invariant only.
#include <stdexcept>
#include <string>

#define CGC_CHECK(expr) ((void)(expr))

namespace cgc::util {
struct DataError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
}

int parse_count(const std::string& field, const int* cursor) {
  // cgc-lint: allow(input-check) caller contract: the cursor is the
  // reader's own, never file data.
  CGC_CHECK(cursor != nullptr);
  if (field.empty()) {
    throw cgc::util::DataError("empty count field");
  }
  return static_cast<int>(field.size());
}
