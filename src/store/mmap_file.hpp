// Read-only memory-mapped file (RAII). The CGCS reader keeps one map
// alive for the lifetime of every zero-copy span it hands out.
//
// On POSIX the file is mapped MAP_PRIVATE/PROT_READ; elsewhere (or if
// mmap fails, e.g. on a filesystem without mapping support) the file is
// read into a heap buffer, preserving the same interface at the cost of
// one copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cgc::store {

class MmapFile {
 public:
  /// Maps `path`; throws cgc::util::DataError naming the path when the
  /// file cannot be opened or read. Empty files are valid (data() is an
  /// empty span).
  explicit MmapFile(const std::string& path);
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::span<const std::uint8_t> data() const {
    return {data_, size_};
  }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }
  /// True when backed by a real mapping rather than the heap fallback.
  bool mapped() const { return mapped_; }

 private:
  std::string path_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  ///< owns bytes when !mapped_
};

}  // namespace cgc::store
