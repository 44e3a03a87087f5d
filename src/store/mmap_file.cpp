#include "store/mmap_file.hpp"

#include <cstdio>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CGC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cgc::store {

namespace {

/// Heap fallback: slurp the whole file.
void read_whole_file(const std::string& path,
                     std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw util::DataError("cannot open store file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    throw util::DataError("cannot stat store file: " + path);
  }
  out->resize(static_cast<std::size_t>(size));
  const std::size_t got =
      out->empty() ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) {
    throw util::DataError("short read on store file: " + path);
  }
}

}  // namespace

MmapFile::MmapFile(const std::string& path) : path_(path) {
#ifdef CGC_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw util::DataError("cannot open store file: " + path);
  }
  struct stat st {};
  const bool statted = ::fstat(fd, &st) == 0;
  if (statted && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<const std::uint8_t*>(map);
      size_ = static_cast<std::size_t>(st.st_size);
      mapped_ = true;
    }
  }
  ::close(fd);
  if (mapped_ || (statted && st.st_size == 0)) {
    return;  // mapped, or a valid empty file
  }
  read_whole_file(path, &fallback_);
  data_ = fallback_.data();
  size_ = fallback_.size();
#else
  read_whole_file(path, &fallback_);
  data_ = fallback_.data();
  size_ = fallback_.size();
#endif
}

MmapFile::~MmapFile() {
#ifdef CGC_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

}  // namespace cgc::store
