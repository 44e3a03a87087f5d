#include "util/file.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "util/check.hpp"

namespace cgc::util {

ReadStatus read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    return std::filesystem::exists(path, ec) ? ReadStatus::kCorrupt
                                             : ReadStatus::kMissing;
  }
  out->assign(std::istreambuf_iterator<char>(in), {});
  return in.bad() ? ReadStatus::kCorrupt : ReadStatus::kOk;
}

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  close_or_throw(out, tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw TransientError("cannot rename " + tmp + " -> " + path + ": " +
                         ec.message());
  }
}

void close_or_throw(std::ofstream& out, const std::string& path) {
  out.close();
  if (out.fail()) {
    throw TransientError("cannot write " + path);
  }
}

}  // namespace cgc::util
