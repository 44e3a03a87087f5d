#include "sweep/lease.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string_view>
#include <utility>

#include "fault/fault.hpp"

namespace cgc::sweep {

namespace fs = std::filesystem;

std::uint64_t monotonic_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::optional<Lease> Lease::try_acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return std::nullopt;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  Lease lease(fd, path);
  lease.refresh(0);
  return lease;
}

Lease::Lease(Lease&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

Lease& Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

Lease::~Lease() { release(); }

bool Lease::refresh(std::uint64_t progress) {
  if (fd_ < 0) {
    return false;
  }
  // Deterministic stand-in for losing the lease (NFS hiccup, operator
  // deleting the file, a fencing bug): the holder must treat a failed
  // refresh as "stop writing to this dir".
  if (fault::inject("sweep.lease_steal", progress)) {
    release();
    return false;
  }
  char buf[96];
  const int n = std::snprintf(buf, sizeof(buf),
                              "pid %" PRId64 "\nprogress %" PRIu64
                              "\nmono_ns %" PRIu64 "\n",
                              static_cast<std::int64_t>(::getpid()), progress,
                              monotonic_now_ns());
  if (n <= 0) {
    return false;
  }
  if (::lseek(fd_, 0, SEEK_SET) != 0 || ::ftruncate(fd_, 0) != 0) {
    return false;
  }
  ssize_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd_, buf + off, static_cast<size_t>(n - off));
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += w;
  }
  return true;
}

void Lease::release() {
  if (fd_ < 0) {
    return;
  }
  // Unlink before closing so a racing try_acquire() of the old path
  // either sees our still-held lock or no file at all.
  ::unlink(path_.c_str());
  ::flock(fd_, LOCK_UN);
  ::close(fd_);
  fd_ = -1;
}

LeaseInfo read_lease(const std::string& path) {
  LeaseInfo info;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return info;
  }
  info.exists = true;
  char buf[256];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::int64_t pid = 0;
    std::uint64_t progress = 0;
    std::uint64_t mono = 0;
    if (std::sscanf(buf,
                    "pid %" SCNd64 "\nprogress %" SCNu64
                    "\nmono_ns %" SCNu64,
                    &pid, &progress, &mono) == 3) {
      info.pid = pid;
      info.progress = progress;
      info.mono_ns = mono;
    }
  }
  // A shared-lock probe: succeeds iff no live process holds LOCK_EX.
  if (::flock(fd, LOCK_SH | LOCK_NB) == 0) {
    ::flock(fd, LOCK_UN);
    info.held = false;
  } else {
    info.held = true;
  }
  ::close(fd);
  return info;
}

QuarantineReport quarantine_stale(const std::string& dir,
                                  const std::vector<std::string>& recorded) {
  QuarantineReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return report;
  }
  const fs::path root = fs::path(dir);
  const fs::path quarantine_dir = root / "quarantine";
  auto move_aside = [&](const fs::path& p, const std::string& rel) {
    fs::create_directories(quarantine_dir, ec);
    // Flatten the relative path so quarantined files from subdirs do
    // not need their tree recreated.
    std::string flat = rel;
    for (char& c : flat) {
      if (c == '/') {
        c = '_';
      }
    }
    fs::rename(p, quarantine_dir / (flat + ".quarantined"), ec);
    if (!ec) {
      report.moved.push_back(rel);
    }
  };
  auto is_recorded = [&](const std::string& rel) {
    for (const std::string& r : recorded) {
      if (r == rel) {
        return true;
      }
    }
    return false;
  };
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (fs::recursive_directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory(ec)) {
      if (entry.path().filename() == "quarantine") {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    const std::string rel = fs::relative(entry.path(), root, ec).string();
    const std::string name = entry.path().filename().string();
    if (name == "worker.log" || name == "report.json" ||
        name == "supervisor.json") {
      continue;
    }
    if (ends_with(name, ".lease")) {
      const LeaseInfo info = read_lease(entry.path().string());
      if (!info.held) {
        report.stale_lease = true;
        move_aside(entry.path(), rel);
      }
      continue;
    }
    // Staging litter: `*.tmp` from an interrupted util::write_file_atomic
    // (report.json.tmp), `*.tmp.<pid>` from an interrupted cache build.
    if (name.find(".tmp.") != std::string::npos || ends_with(name, ".tmp")) {
      move_aside(entry.path(), rel);
      continue;
    }
    // A .dat the report never stamped: the worker died between writing
    // the output and checkpointing. Resume must not trust it — the
    // write may be torn — so it goes aside and the case re-runs.
    if (ends_with(name, ".dat") && !is_recorded(rel)) {
      move_aside(entry.path(), rel);
    }
  }
  return report;
}

}  // namespace cgc::sweep
