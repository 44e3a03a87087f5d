// Tests for degraded-mode CGCS reads: quarantine-and-continue under
// chunk corruption, exact damage accounting (including against seeded
// fault injection at multiple worker counts), and repair via rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "store/cgcs_format.hpp"
#include "store/encoding.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::store {
namespace {

using trace::HostLoadSeries;
using trace::Job;
using trace::kNumBands;
using trace::Machine;
using trace::Task;
using trace::TaskEvent;
using trace::TaskEventType;
using trace::TraceSet;

/// Small rows_per_chunk so a modest trace spans many row groups and a
/// single damaged chunk loses a small, precisely known row range.
constexpr std::size_t kRowsPerChunk = 256;
constexpr std::size_t kNumEvents = 2000;
constexpr std::size_t kNumTasks = 600;

TraceSet make_trace() {
  TraceSet trace("degraded-test");
  for (std::size_t i = 0; i < kNumTasks; ++i) {
    const auto id = static_cast<std::int64_t>(i);
    Job job;
    job.job_id = id;
    job.user_id = id % 13;
    job.priority = static_cast<std::uint8_t>(1 + i % 12);
    job.submit_time = static_cast<util::TimeSec>(10 * i);
    job.end_time = job.submit_time + 500;
    job.num_tasks = 1;
    job.cpu_parallelism = 1.0f + static_cast<float>(i % 7);
    job.mem_usage = 0.25f * static_cast<float>(i % 5);
    trace.add_job(job);

    Task task;
    task.job_id = id;
    task.task_index = 0;
    task.priority = job.priority;
    task.submit_time = job.submit_time;
    task.schedule_time = job.submit_time + 5;
    task.end_time = job.end_time;
    task.end_event = i % 3 == 0 ? TaskEventType::kFinish : TaskEventType::kKill;
    task.machine_id = static_cast<std::int64_t>(i % 16);
    task.cpu_request = job.cpu_parallelism;
    task.cpu_usage = 0.5f * job.cpu_parallelism;
    task.mem_usage = job.mem_usage;
    trace.add_task(task);
  }
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    trace.add_event({.time = static_cast<util::TimeSec>(3 * i),
                     .job_id = static_cast<std::int64_t>(i % kNumTasks),
                     .machine_id = static_cast<std::int64_t>(i % 16),
                     .task_index = 0,
                     .type = i % 2 == 0 ? TaskEventType::kSubmit
                                        : TaskEventType::kSchedule,
                     .priority = static_cast<std::uint8_t>(1 + i % 12)});
  }
  for (std::int64_t machine_id = 0; machine_id < 16; ++machine_id) {
    Machine m;
    m.machine_id = machine_id;
    m.cpu_capacity = 1.0f;
    m.mem_capacity = 0.5f;
    trace.add_machine(m);

    HostLoadSeries h(machine_id, /*start=*/300, /*period=*/300);
    for (int i = 0; i < 20; ++i) {
      const float cpu[kNumBands] = {0.1f, 0.2f, 0.3f};
      const float mem[kNumBands] = {0.1f, 0.1f, 0.2f};
      h.append(cpu, mem, 0.4f, 0.1f, i, i % 3);
    }
    trace.add_host_load(std::move(h));
  }
  trace.finalize();
  return trace;
}

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class StoreDegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::configure("");
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_degraded_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "victim.cgcs").string();
    trace_ = make_trace();
    WriteOptions options;
    options.chunks.rows_per_chunk = kRowsPerChunk;
    write_cgcs(trace_, path_, options);
    bytes_ = slurp(path_);
  }
  void TearDown() override {
    fault::configure("");
    std::filesystem::remove_all(dir_);
  }

  /// First chunk of `section` with a payload, from a healthy reader.
  ChunkMeta find_chunk(SectionId section) const {
    const StoreReader reader(path_);
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.section == section && c.payload_size > 0) {
        return c;
      }
    }
    ADD_FAILURE() << "no payload chunk in section "
                  << static_cast<int>(section);
    return {};
  }

  void corrupt_payload_byte(std::uint64_t offset) {
    std::string mutated = bytes_;
    ASSERT_LT(offset, mutated.size());
    mutated[offset] ^= 0x01;
    spit(path_, mutated);
  }

  std::filesystem::path dir_;
  std::string path_;
  std::string bytes_;
  TraceSet trace_;
};

TEST_F(StoreDegradedTest, EventChunkCorruptionDropsExactlyThatGroup) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  // Strict mode still refuses the file outright.
  {
    const StoreReader strict(path_);
    EXPECT_THROW(strict.load_trace_set(), util::DataError);
  }

  const StoreReader reader(path_, ReadMode::kDegraded);
  const TraceSet degraded = reader.load_trace_set();
  const DamageReport damage = reader.damage();

  EXPECT_FALSE(damage.clean());
  EXPECT_EQ(damage.rows_lost, victim.row_count);
  EXPECT_EQ(degraded.events().size(), kNumEvents - victim.row_count);
  EXPECT_EQ(degraded.tasks().size(), kNumTasks);
  ASSERT_EQ(damage.chunks_quarantined(), 1u);
  EXPECT_EQ(damage.chunks[0].offset, victim.offset);
  EXPECT_NE(damage.chunks[0].reason.find("CRC"), std::string::npos)
      << damage.chunks[0].reason;

  // The surviving events are exactly the written ones minus the dropped
  // row range [row_begin, row_begin + row_count).
  for (std::size_t i = 0; i < degraded.events().size(); ++i) {
    const std::size_t original =
        i < victim.row_begin ? i : i + victim.row_count;
    EXPECT_EQ(degraded.events()[i].time, trace_.events()[original].time);
    EXPECT_EQ(degraded.events()[i].job_id, trace_.events()[original].job_id);
  }
}

TEST_F(StoreDegradedTest, ScanSkipsDamagedGroupAndAccounts) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  const StoreReader reader(path_, ReadMode::kDegraded);
  std::size_t seen = 0;
  const ScanStats stats = reader.scan(
      EventPredicate{}, [&seen](std::span<const TaskEvent> batch) {
        seen += batch.size();
      });
  EXPECT_EQ(seen, kNumEvents - victim.row_count);
  EXPECT_EQ(stats.rows_decoded, kNumEvents - victim.row_count);
  EXPECT_EQ(reader.damage().rows_lost, victim.row_count);
}

/// (offset, column, reason) of every quarantined chunk, order-free.
std::set<std::tuple<std::uint64_t, ColumnId, std::string>> quarantined(
    const DamageReport& damage) {
  std::set<std::tuple<std::uint64_t, ColumnId, std::string>> out;
  for (const QuarantinedChunk& q : damage.chunks) {
    out.emplace(q.offset, q.column, q.reason);
  }
  return out;
}

TEST_F(StoreDegradedTest, ScanAndLoadShareTheDegradedRule) {
  // Two damaged event row groups, the first with two damaged chunks.
  std::vector<ChunkMeta> victims;
  {
    const StoreReader reader(path_);
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.section != SectionId::kEvents || c.payload_size == 0) {
        continue;
      }
      const bool first_group = c.row_begin == 0;
      if ((first_group && (c.column == ColumnId::kTime ||
                           c.column == ColumnId::kJobId)) ||
          (c.row_begin == 2 * kRowsPerChunk &&
           c.column == ColumnId::kPriority)) {
        victims.push_back(c);
      }
    }
  }
  ASSERT_EQ(victims.size(), 3u);
  std::string mutated = bytes_;
  for (const ChunkMeta& c : victims) {
    mutated[c.offset] ^= 0x01;
  }
  spit(path_, mutated);

  const StoreReader loader(path_, ReadMode::kDegraded);
  const TraceSet loaded = loader.load_trace_set();
  const StoreReader scanner(path_, ReadMode::kDegraded);
  std::vector<TaskEvent> scanned;
  scanner.scan(EventPredicate{}, [&scanned](std::span<const TaskEvent> b) {
    scanned.insert(scanned.end(), b.begin(), b.end());
  });

  EXPECT_EQ(loaded.events().size(), kNumEvents - 2 * kRowsPerChunk);
  ASSERT_EQ(scanned.size(), loaded.events().size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    const TaskEvent& a = scanned[i];
    const TaskEvent& b = loaded.events()[i];
    EXPECT_TRUE(a.time == b.time && a.job_id == b.job_id &&
                a.machine_id == b.machine_id &&
                a.task_index == b.task_index && a.type == b.type &&
                a.priority == b.priority)
        << "event " << i;
  }
  const DamageReport load_damage = loader.damage();
  const DamageReport scan_damage = scanner.damage();
  EXPECT_EQ(load_damage.rows_lost, 2 * kRowsPerChunk);
  EXPECT_EQ(scan_damage.rows_lost, load_damage.rows_lost);
  EXPECT_EQ(quarantined(scan_damage), quarantined(load_damage));
  EXPECT_EQ(scan_damage.chunks_quarantined(), victims.size());
}

TEST_F(StoreDegradedTest, VerifyAllListsEveryDamagedChunkInOneCall) {
  // One damaged chunk per section, plus a second in one events group.
  std::vector<ChunkMeta> victims;
  {
    const StoreReader reader(path_);
    std::set<SectionId> hit;
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.payload_size > 0 && hit.insert(c.section).second) {
        victims.push_back(c);
      }
    }
    const ChunkMeta events = *std::find_if(
        victims.begin(), victims.end(),
        [](const ChunkMeta& c) { return c.section == SectionId::kEvents; });
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.section == SectionId::kEvents && c.payload_size > 0 &&
          c.row_begin == events.row_begin && c.column != events.column) {
        victims.push_back(c);
        break;
      }
    }
  }
  ASSERT_EQ(victims.size(), kNumSections + 1);
  std::string mutated = bytes_;
  std::set<std::uint64_t> expected;
  for (const ChunkMeta& c : victims) {
    mutated[c.offset] ^= 0x01;
    expected.insert(c.offset);
  }
  spit(path_, mutated);

  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kDegraded}) {
    const StoreReader reader(path_, mode);
    const DamageReport damage = reader.verify_all();
    std::set<std::uint64_t> offsets;
    for (const QuarantinedChunk& q : damage.chunks) {
      offsets.insert(q.offset);
    }
    EXPECT_EQ(offsets, expected);
    EXPECT_EQ(damage.chunks_quarantined(), expected.size());
    EXPECT_EQ(damage.rows_lost, 0u);  // verifying drops no rows
  }
}

TEST_F(StoreDegradedTest, SmallSectionDamageZeroFillsNotDrops) {
  const ChunkMeta victim = find_chunk(SectionId::kJobs);
  corrupt_payload_byte(victim.offset);

  const StoreReader reader(path_, ReadMode::kDegraded);
  const TraceSet degraded = reader.load_trace_set();
  const DamageReport damage = reader.damage();

  // Row counts are preserved; only the damaged column's values default.
  EXPECT_EQ(degraded.jobs().size(), kNumTasks);
  EXPECT_EQ(damage.rows_lost, 0u);
  EXPECT_EQ(damage.values_defaulted, victim.row_count);
}

TEST_F(StoreDegradedTest, InjectedCorruptionAccountsExactly) {
  fault::configure("store.chunk_crc:p=0.2,seed=17");

  // Expected damage, computed from the chunk directory and the same
  // pure fire function the reader consults.
  std::uint64_t expected_event_rows = 0;
  std::uint64_t expected_task_rows = 0;
  std::uint64_t expected_defaulted = 0;
  std::set<std::uint64_t> expected_offsets;
  {
    const StoreReader probe(path_);  // strict: directory only, no loads
    std::set<std::pair<int, std::uint64_t>> damaged_groups;
    for (const ChunkMeta& c : probe.chunks()) {
      if (!fault::inject("store.chunk_crc", c.offset)) {
        continue;
      }
      expected_offsets.insert(c.offset);
      if (c.section == SectionId::kTasks ||
          c.section == SectionId::kEvents) {
        damaged_groups.emplace(static_cast<int>(c.section), c.row_begin);
      } else {
        expected_defaulted += c.row_count;
      }
    }
    for (const ChunkMeta& c : probe.chunks()) {
      // Count each damaged row group once, via its first column chunk.
      if (damaged_groups.count(
              {static_cast<int>(c.section), c.row_begin}) == 0) {
        continue;
      }
      damaged_groups.erase({static_cast<int>(c.section), c.row_begin});
      (c.section == SectionId::kEvents ? expected_event_rows
                                       : expected_task_rows) += c.row_count;
    }
  }
  ASSERT_GT(expected_offsets.size(), 0u) << "spec injected nothing; tune p=";

  const auto run_degraded = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    exec::ScopedPool scoped(&pool);
    const StoreReader reader(path_, ReadMode::kDegraded);
    const TraceSet degraded = reader.load_trace_set();
    EXPECT_EQ(degraded.events().size(), kNumEvents - expected_event_rows);
    EXPECT_EQ(degraded.tasks().size(), kNumTasks - expected_task_rows);
    return reader.damage();
  };

  const DamageReport serial = run_degraded(1);
  EXPECT_EQ(serial.rows_lost, expected_event_rows + expected_task_rows);
  EXPECT_EQ(serial.values_defaulted, expected_defaulted);
  std::set<std::uint64_t> quarantined;
  for (const QuarantinedChunk& q : serial.chunks) {
    quarantined.insert(q.offset);
    EXPECT_NE(q.reason.find("injected fault"), std::string::npos)
        << q.reason;
  }
  EXPECT_EQ(quarantined, expected_offsets);

  // Same spec, different worker count: identical damage.
  const DamageReport parallel = run_degraded(8);
  EXPECT_EQ(parallel.rows_lost, serial.rows_lost);
  EXPECT_EQ(parallel.values_defaulted, serial.values_defaulted);
  EXPECT_EQ(parallel.chunks_quarantined(), serial.chunks_quarantined());
}

TEST_F(StoreDegradedTest, RepairRewritesCleanScanningFile) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  DamageReport damage;
  const TraceSet salvaged = read_cgcs_degraded(path_, &damage);
  EXPECT_EQ(damage.rows_lost, victim.row_count);

  const std::string repaired = (dir_ / "repaired.cgcs").string();
  write_cgcs(salvaged, repaired);

  // The rewrite must scan clean in strict mode and keep the survivors.
  const TraceSet clean = read_cgcs(repaired);
  EXPECT_EQ(clean.events().size(), kNumEvents - victim.row_count);
  EXPECT_EQ(clean.tasks().size(), kNumTasks);
}

TEST_F(StoreDegradedTest, BoundsInvalidChunkQuarantinedAtOpen) {
  // Point the last directory entry's offset past EOF and re-seal the
  // footer CRC, so only chunk-level validation can object. Directory
  // entries are fixed-size (3x u8 + 4x u64 + 2x i64 + 2x f64 + u32 =
  // 71 bytes) and the directory is the footer's tail.
  constexpr std::size_t kEntrySize = 71;
  const std::size_t trailer_at = bytes_.size() - kTrailerSize;
  std::uint64_t footer_offset = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    footer_offset |= static_cast<std::uint64_t>(
                         static_cast<unsigned char>(bytes_[trailer_at + i]))
                     << (8 * i);
  }
  std::string mutated = bytes_;
  // Re-point the chunk at the footer itself: its payload then ends past
  // footer_offset, tripping "chunk payload out of bounds" without the
  // u64 overflow an all-FF offset would invite.
  const std::size_t offset_field = trailer_at - kEntrySize + 3;
  for (std::size_t i = 0; i < 8; ++i) {
    mutated[offset_field + i] =
        static_cast<char>((footer_offset >> (8 * i)) & 0xFF);
  }
  const std::uint32_t new_crc = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(mutated.data()) + footer_offset,
      trailer_at - footer_offset));
  for (std::size_t i = 0; i < 4; ++i) {
    mutated[trailer_at + 8 + i] =
        static_cast<char>((new_crc >> (8 * i)) & 0xFF);
  }
  spit(path_, mutated);

  EXPECT_THROW(StoreReader{path_}, util::DataError);

  const StoreReader reader(path_, ReadMode::kDegraded);
  const DamageReport damage = reader.damage();
  ASSERT_GE(damage.chunks_quarantined(), 1u);
  EXPECT_NE(damage.chunks[0].reason.find("out of bounds"),
            std::string::npos)
      << damage.chunks[0].reason;
  // The rest of the file still loads.
  EXPECT_NO_THROW(reader.load_trace_set());
}

}  // namespace
}  // namespace cgc::store
