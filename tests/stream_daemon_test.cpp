// Tests for the daemon's graceful-shutdown path and spill verification:
// SIGTERM/SIGINT raise a cooperative flag, ingest stops at the next
// batch boundary, the open window still spills through the normal
// flush, the summary stamps `interrupted`, and `verify_spill` vouches
// for (or indicts) what landed on disk.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "stream/daemon.hpp"
#include "stream/shutdown.hpp"
#include "util/check.hpp"

namespace cgc::stream {
namespace {

namespace fs = std::filesystem;

/// Streams the given lines one underflow at a time, raising the
/// shutdown flag just before line `cutoff` — a SIGTERM landing
/// mid-stream, made deterministic.
class ShutdownAtLineBuf : public std::streambuf {
 public:
  ShutdownAtLineBuf(std::vector<std::string> lines, std::size_t cutoff)
      : lines_(std::move(lines)), cutoff_(cutoff) {}

 protected:
  int_type underflow() override {
    if (next_ >= lines_.size()) {
      return traits_type::eof();
    }
    if (next_ == cutoff_) {
      request_shutdown();
    }
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(),
         current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t cutoff_;
  std::size_t next_ = 0;
  std::string current_;
};

/// A valid Google task_events row: time (us), job, task, submit event,
/// file priority 1.
std::string event_line(std::int64_t time_s, int job, int task) {
  return std::to_string(time_s * 1000000) + ",," + std::to_string(job) +
         "," + std::to_string(task) + ",,0,user,0,1";
}

class StreamDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_shutdown();
    dir_ = fs::temp_directory_path() /
           ("cgc_stream_daemon_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    clear_shutdown();
    fs::remove_all(dir_);
  }

  std::string spill_dir() const { return (dir_ / "spill").string(); }

  fs::path dir_;
};

TEST_F(StreamDaemonTest, SignalHandlersRaiseTheFlag) {
  install_shutdown_handlers();
  ASSERT_FALSE(shutdown_requested());
  std::raise(SIGTERM);
  EXPECT_TRUE(shutdown_requested());
  clear_shutdown();
  std::raise(SIGINT);
  EXPECT_TRUE(shutdown_requested());
}

TEST_F(StreamDaemonTest, UninterruptedRunSpillsVerifiableWindows) {
  DaemonConfig config;
  config.generate = true;
  config.generate_days = 0.1;  // ~8640 s: at least two hourly windows
  config.spill_dir = spill_dir();
  std::istringstream in;
  std::ostringstream out;
  DaemonStats stats;
  const int rc = run_daemon(config, in, out, &stats);
  EXPECT_EQ(rc, util::kExitOk);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_GE(stats.windows_spilled, 2u);
  EXPECT_NE(out.str().find("\"interrupted\": false"), std::string::npos);

  const SpillAudit audit = verify_spill(spill_dir());
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.windows, stats.windows_spilled);
  EXPECT_EQ(audit.windows_clean, audit.windows);
}

TEST_F(StreamDaemonTest, MidStreamShutdownSpillsTheOpenWindow) {
  // 20 rows, one every 10 minutes; the flag goes up before row 5, so
  // ingest stops inside the first hourly window.
  std::vector<std::string> lines;
  for (int i = 0; i < 20; ++i) {
    lines.push_back(event_line(i * 600, /*job=*/1, /*task=*/i));
  }
  ShutdownAtLineBuf buf(std::move(lines), /*cutoff=*/5);
  std::istream in(&buf);

  DaemonConfig config;
  config.input = "-";
  config.batch_size = 2;
  config.spill_dir = spill_dir();
  std::ostringstream out;
  DaemonStats stats;
  const int rc = run_daemon(config, in, out, &stats);

  // An operator's shutdown is not an error — and nothing was lost.
  EXPECT_EQ(rc, util::kExitOk);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_GT(stats.events, 0u);
  EXPECT_LT(stats.events, 20u);
  EXPECT_GE(stats.windows_spilled, 1u);  // the open window, via flush
  EXPECT_NE(out.str().find("\"interrupted\": true"), std::string::npos);

  const SpillAudit audit = verify_spill(spill_dir());
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.windows, stats.windows_spilled);
}

TEST_F(StreamDaemonTest, VerifySpillFlagsCorruptedWindowStore) {
  DaemonConfig config;
  config.generate = true;
  config.generate_days = 0.1;
  config.spill_dir = spill_dir();
  std::istringstream in;
  std::ostringstream out;
  ASSERT_EQ(run_daemon(config, in, out), util::kExitOk);

  {
    std::ofstream corrupt(spill_dir() + "/window-000000.cgcs",
                          std::ios::binary | std::ios::trunc);
    corrupt << "not a store file";
  }
  const SpillAudit audit = verify_spill(spill_dir());
  EXPECT_FALSE(audit.clean());
  EXPECT_TRUE(audit.fatal());
  EXPECT_EQ(audit.windows_clean + 1, audit.windows);
}

TEST_F(StreamDaemonTest, VerifySpillFlagsManifestCountMismatch) {
  DaemonConfig config;
  config.generate = true;
  config.generate_days = 0.1;
  config.spill_dir = spill_dir();
  std::istringstream in;
  std::ostringstream out;
  ASSERT_EQ(run_daemon(config, in, out), util::kExitOk);

  // Tamper the first manifest row's raw_events stamp.
  const std::string manifest = spill_dir() + "/windows.jsonl";
  std::string content;
  {
    std::ifstream f(manifest, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::string needle = "\"raw_events\": ";
  const std::string::size_type pos = content.find(needle);
  ASSERT_NE(pos, std::string::npos);
  content.insert(pos + needle.size(), "9");  // prepend a digit
  {
    std::ofstream f(manifest, std::ios::binary | std::ios::trunc);
    f << content;
  }
  const SpillAudit audit = verify_spill(spill_dir());
  EXPECT_FALSE(audit.clean());
  EXPECT_TRUE(audit.fatal());
}

TEST_F(StreamDaemonTest, SpillManifestReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  if (!fs::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  fs::create_directories(spill_dir());
  const std::string manifest = spill_dir() + "/windows.jsonl";
  fs::create_symlink("/dev/full", manifest);
  DaemonConfig config;
  config.generate = true;
  config.generate_days = 0.1;
  config.spill_dir = spill_dir();
  std::istringstream in;
  std::ostringstream out;
  try {
    run_daemon(config, in, out);
    ADD_FAILURE() << "a manifest on a full disk did not throw";
  } catch (const util::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find(manifest), std::string::npos)
        << e.what();
  }
}

TEST_F(StreamDaemonTest, DamagedStoreInputIsLossy) {
  // 256 SUBMITs in four 64-row event groups; one group's time chunk
  // fails its CRC, so a degraded load drops that group's rows.
  trace::TraceSet trace("damaged-input");
  for (int i = 0; i < 256; ++i) {
    trace.add_event({.time = 60 * i, .job_id = i, .machine_id = -1,
                     .task_index = 0, .type = trace::TaskEventType::kSubmit,
                     .priority = 3});
  }
  trace.finalize();
  const std::string path = (dir_ / "damaged.cgcs").string();
  store::WriteOptions options;
  options.chunks.rows_per_chunk = 64;
  store::write_cgcs(trace, path, options);
  std::uint64_t flip_at = 0;
  const store::StoreReader clean(path);
  for (const store::ChunkMeta& c : clean.chunks()) {
    if (c.section == store::SectionId::kEvents &&
        c.column == store::ColumnId::kTime && c.row_begin == 64) {
      flip_at = c.offset;
    }
  }
  ASSERT_GT(flip_at, 0u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(flip_at));
    const char byte = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.put(static_cast<char>(byte ^ 0x01));
  }

  DaemonConfig config;
  config.input = path;
  std::istringstream in;
  std::ostringstream out;
  DaemonStats stats;
  EXPECT_EQ(run_daemon(config, in, out, &stats), util::kExitFailure);
  EXPECT_TRUE(stats.health.lossy());
  EXPECT_EQ(stats.health.rows_lost, 64u);
  EXPECT_EQ(stats.events, 192u);
  EXPECT_NE(out.str().find("\"rows_lost\": 64"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"lossy\": true"), std::string::npos);
}

TEST_F(StreamDaemonTest, VerifySpillThrowsWithoutManifest) {
  EXPECT_THROW(verify_spill((dir_ / "nowhere").string()), util::Error);
}

}  // namespace
}  // namespace cgc::stream
