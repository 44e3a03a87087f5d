// Tests for the CGCS columnar trace store: lossless round-trips,
// zone-map pushdown, zero-copy spans, and rejection of corrupted files
// (including out-of-range event types that pass the CRC).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/google_model.hpp"
#include "store/cgcs_format.hpp"
#include "store/encoding.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"

namespace cgc::store {
namespace {

using trace::HostLoadSeries;
using trace::Job;
using trace::kNumBands;
using trace::Machine;
using trace::PriorityBand;
using trace::Task;
using trace::TaskEvent;
using trace::TaskEventType;
using trace::TraceSet;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

/// Every event `reader` yields for `predicate`, gathered from scan().
std::vector<TaskEvent> scan_all(const StoreReader& reader,
                                const EventPredicate& predicate) {
  std::vector<TaskEvent> out;
  reader.scan(predicate, [&out](std::span<const TaskEvent> batch) {
    out.insert(out.end(), batch.begin(), batch.end());
  });
  return out;
}

/// A small but fully populated Google-model trace: generated jobs and
/// tasks, per-task synthetic events, a heterogeneous machine park, and
/// host-load series. Deterministic (fixed model seed, LCG samples).
TraceSet make_model_trace() {
  gen::GoogleModelConfig config;
  config.seed = 7;
  const gen::GoogleWorkloadModel model(config);
  TraceSet trace = model.generate_workload(/*horizon=*/2 * 3600);

  for (const Machine& m : model.make_machines(16)) {
    trace.add_machine(m);
  }

  // Events derived from the task records (SUBMIT/SCHEDULE/terminal), so
  // every event column gets realistic, varied values.
  for (const Task& t : trace.tasks()) {
    trace.add_event({.time = t.submit_time, .job_id = t.job_id,
                     .machine_id = -1, .task_index = t.task_index,
                     .type = TaskEventType::kSubmit, .priority = t.priority});
    if (t.schedule_time >= 0) {
      trace.add_event({.time = t.schedule_time, .job_id = t.job_id,
                       .machine_id = t.machine_id, .task_index = t.task_index,
                       .type = TaskEventType::kSchedule,
                       .priority = t.priority});
    }
    if (t.end_time >= 0) {
      trace.add_event({.time = t.end_time, .job_id = t.job_id,
                       .machine_id = t.machine_id, .task_index = t.task_index,
                       .type = t.end_event, .priority = t.priority});
    }
  }

  std::uint64_t lcg = 0x243F6A8885A308D3ull;
  const auto next_float = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(lcg >> 40) / static_cast<float>(1u << 24);
  };
  for (std::int64_t machine_id = 0; machine_id < 16; ++machine_id) {
    HostLoadSeries h(machine_id, /*start=*/300, /*period=*/300);
    for (int i = 0; i < 40; ++i) {
      const float cpu[kNumBands] = {next_float(), next_float(), next_float()};
      const float mem[kNumBands] = {next_float(), next_float(), next_float()};
      h.append(cpu, mem, next_float(), next_float(),
               static_cast<std::int32_t>(lcg % 50),
               static_cast<std::int32_t>(lcg % 7));
    }
    trace.add_host_load(std::move(h));
  }
  trace.finalize();
  return trace;
}

void expect_equal(const TaskEvent& a, const TaskEvent& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.task_index, b.task_index);
  EXPECT_EQ(a.machine_id, b.machine_id);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.priority, b.priority);
}

void expect_equal_traces(const TraceSet& a, const TraceSet& b) {
  EXPECT_EQ(a.system_name(), b.system_name());
  EXPECT_EQ(a.duration(), b.duration());
  EXPECT_EQ(a.memory_in_mb(), b.memory_in_mb());

  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    const Job& x = a.jobs()[i];
    const Job& y = b.jobs()[i];
    EXPECT_EQ(x.job_id, y.job_id);
    EXPECT_EQ(x.user_id, y.user_id);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.submit_time, y.submit_time);
    EXPECT_EQ(x.end_time, y.end_time);
    EXPECT_EQ(x.num_tasks, y.num_tasks);
    EXPECT_EQ(x.cpu_parallelism, y.cpu_parallelism);  // bit-exact
    EXPECT_EQ(x.mem_usage, y.mem_usage);
  }

  ASSERT_EQ(a.tasks().size(), b.tasks().size());
  for (std::size_t i = 0; i < a.tasks().size(); ++i) {
    const Task& x = a.tasks()[i];
    const Task& y = b.tasks()[i];
    EXPECT_EQ(x.job_id, y.job_id);
    EXPECT_EQ(x.task_index, y.task_index);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.submit_time, y.submit_time);
    EXPECT_EQ(x.schedule_time, y.schedule_time);
    EXPECT_EQ(x.end_time, y.end_time);
    EXPECT_EQ(x.end_event, y.end_event);
    EXPECT_EQ(x.machine_id, y.machine_id);
    EXPECT_EQ(x.resubmits, y.resubmits);
    EXPECT_EQ(x.cpu_request, y.cpu_request);
    EXPECT_EQ(x.mem_request, y.mem_request);
    EXPECT_EQ(x.cpu_usage, y.cpu_usage);
    EXPECT_EQ(x.mem_usage, y.mem_usage);
  }

  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    expect_equal(a.events()[i], b.events()[i]);
  }

  ASSERT_EQ(a.machines().size(), b.machines().size());
  for (std::size_t i = 0; i < a.machines().size(); ++i) {
    const Machine& x = a.machines()[i];
    const Machine& y = b.machines()[i];
    EXPECT_EQ(x.machine_id, y.machine_id);
    EXPECT_EQ(x.cpu_capacity, y.cpu_capacity);
    EXPECT_EQ(x.mem_capacity, y.mem_capacity);
    EXPECT_EQ(x.page_cache_capacity, y.page_cache_capacity);
    EXPECT_EQ(x.attributes, y.attributes);
  }

  ASSERT_EQ(a.host_load().size(), b.host_load().size());
  for (std::size_t i = 0; i < a.host_load().size(); ++i) {
    const HostLoadSeries& x = a.host_load()[i];
    const HostLoadSeries& y = b.host_load()[i];
    EXPECT_EQ(x.machine_id(), y.machine_id());
    EXPECT_EQ(x.start(), y.start());
    EXPECT_EQ(x.period(), y.period());
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t s = 0; s < x.size(); ++s) {
      for (const PriorityBand band :
           {PriorityBand::kLow, PriorityBand::kMid, PriorityBand::kHigh}) {
        EXPECT_EQ(x.cpu(band, s), y.cpu(band, s));
        EXPECT_EQ(x.mem(band, s), y.mem(band, s));
      }
      EXPECT_EQ(x.mem_assigned(s), y.mem_assigned(s));
      EXPECT_EQ(x.page_cache(s), y.page_cache(s));
      EXPECT_EQ(x.running(s), y.running(s));
      EXPECT_EQ(x.pending(s), y.pending(s));
    }
  }
}

TEST_F(StoreTest, RoundTripsGoogleModelTrace) {
  const TraceSet original = make_model_trace();
  ASSERT_GT(original.jobs().size(), 100u);
  ASSERT_GT(original.events().size(), 100u);
  const std::string p = path("model.cgcs");
  write_cgcs(original, p);

  const TraceSet loaded = read_cgcs(p);
  expect_equal_traces(original, loaded);
}

TEST_F(StoreTest, RoundTripsWithTinyChunks) {
  // rows_per_chunk far below the section sizes exercises multi-chunk
  // sections, delta restarts at chunk boundaries, and the scatter paths.
  const TraceSet original = make_model_trace();
  const std::string p = path("tiny_chunks.cgcs");
  WriteOptions options;
  options.chunks.rows_per_chunk = 7;
  write_cgcs(original, p, options);

  const StoreReader reader(p);
  EXPECT_GT(reader.chunks().size(), 100u);
  expect_equal_traces(original, reader.load_trace_set());
}

/// A grid-archive trace: jobs and tasks only, memory in MB.
TraceSet make_grid_trace() {
  TraceSet original("grid-das2");
  original.set_memory_in_mb(true);
  Job j;
  j.job_id = 1;
  j.submit_time = 100;
  j.end_time = 500;
  j.cpu_parallelism = 16.0f;
  j.mem_usage = 2048.0f;
  original.add_job(j);
  Task t;
  t.job_id = 1;
  t.submit_time = 100;
  t.schedule_time = 120;
  t.end_time = 500;
  t.cpu_request = 16.0f;
  original.add_task(t);
  original.set_duration(86400);
  original.finalize();
  return original;
}

/// make_grid_trace() with host load: series of 13, 0, 5 and 1 samples,
/// so 7-row groups straddle series and step over an empty one.
TraceSet make_grid_hostload_trace() {
  TraceSet trace = make_grid_trace();
  std::int32_t v = 0;
  std::int64_t machine_id = 3;
  for (const int samples : {13, 0, 5, 1}) {
    HostLoadSeries h(machine_id++, /*start=*/0, /*period=*/300);
    for (int i = 0; i < samples; ++i, ++v) {
      const float cpu[kNumBands] = {0.01f * v, 0.02f * v, 0.03f * v};
      const float mem[kNumBands] = {0.5f * v, 0.25f, 0.125f * v};
      h.append(cpu, mem, 64.0f * v, 8.0f, v % 4, -v);
    }
    trace.add_host_load(std::move(h));
  }
  trace.finalize();
  return trace;
}

TEST_F(StoreTest, RoundTripsGridHostLoadAcrossRowGroups) {
  const TraceSet original = make_grid_hostload_trace();
  const std::string p = path("grid_hostload.cgcs");
  WriteOptions options;
  options.chunks.rows_per_chunk = 7;
  write_cgcs(original, p, options);
  expect_equal_traces(original, read_cgcs(p));
}

TEST_F(StoreTest, RoundTripsEmptyHostLoadGridTrace) {
  // Grid archives (SWF/GWA) have jobs and tasks only; machines,
  // events, and host-load stay empty and memory lands in MB.
  const TraceSet original = make_grid_trace();
  const std::string p = path("grid.cgcs");
  write_cgcs(original, p);
  const TraceSet loaded = read_cgcs(p);
  EXPECT_TRUE(loaded.memory_in_mb());
  EXPECT_TRUE(loaded.machines().empty());
  EXPECT_TRUE(loaded.host_load().empty());
  EXPECT_TRUE(loaded.events().empty());
  expect_equal_traces(original, loaded);
}

TEST_F(StoreTest, RoundTripsEmptyTrace) {
  TraceSet original("empty");
  original.set_duration(10);
  original.finalize();
  const std::string p = path("empty.cgcs");
  write_cgcs(original, p);
  const TraceSet loaded = read_cgcs(p);
  EXPECT_EQ(loaded.system_name(), "empty");
  EXPECT_EQ(loaded.duration(), 10);
  EXPECT_TRUE(loaded.jobs().empty());
  EXPECT_TRUE(loaded.events().empty());
}

TEST_F(StoreTest, OutOfRangeEventTypeIsDamage) {
  // One SCHEDULE and one event whose type byte (9) lies past the enum:
  // a bit-rotted or hostile file that still passes every CRC.
  TraceSet original("bad-type");
  original.add_event({.time = 100, .job_id = 1, .machine_id = -1,
                      .task_index = 0, .type = TaskEventType::kSchedule,
                      .priority = 3});
  original.add_event({.time = 200, .job_id = 1, .machine_id = -1,
                      .task_index = 0, .type = static_cast<TaskEventType>(9),
                      .priority = 3});
  original.set_duration(300);
  original.finalize();
  const std::string p = path("bad_type.cgcs");
  write_cgcs(original, p);

  // Strict mode refuses the file, through load and scan alike.
  try {
    read_cgcs(p);
    FAIL() << "expected DataError";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("event type out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(scan_all(StoreReader(p), EventPredicate{}),
               util::DataError);

  // Degraded mode drops the row group and accounts it, like a CRC
  // failure: the type chunk is quarantined and no event survives.
  DamageReport damage;
  const TraceSet degraded = read_cgcs_degraded(p, &damage);
  EXPECT_TRUE(degraded.events().empty());
  EXPECT_EQ(damage.rows_lost, 2u);
  ASSERT_EQ(damage.chunks_quarantined(), 1u);
  EXPECT_EQ(damage.chunks[0].column, ColumnId::kEventType);
  const StoreReader scanner(p, ReadMode::kDegraded);
  EXPECT_TRUE(scan_all(scanner, EventPredicate{}).empty());
  EXPECT_EQ(scanner.damage().rows_lost, 2u);
}

TEST_F(StoreTest, StoreInfoMatchesTraceSummary) {
  const TraceSet original = make_model_trace();
  const std::string p = path("info.cgcs");
  write_cgcs(original, p);
  const StoreReader reader(p);
  const StoreInfo& info = reader.info();
  EXPECT_EQ(info.system_name, original.system_name());
  EXPECT_EQ(info.duration, original.duration());
  EXPECT_EQ(info.num_jobs, original.jobs().size());
  EXPECT_EQ(info.num_tasks, original.tasks().size());
  EXPECT_EQ(info.num_events, original.events().size());
  EXPECT_EQ(info.num_machines, original.machines().size());
  EXPECT_EQ(info.num_hostload_series, original.host_load().size());
  EXPECT_EQ(info.file_size, std::filesystem::file_size(p));
}

TEST_F(StoreTest, ZeroCopySpansExposeRawColumns) {
  const TraceSet original = make_model_trace();
  const std::string p = path("spans.cgcs");
  write_cgcs(original, p);
  const StoreReader reader(p);

  // The chunk directory lists a column's chunks in row order.
  const auto chunks_of = [&reader](SectionId section, ColumnId column) {
    std::vector<const ChunkMeta*> out;
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.section == section && c.column == column) {
        EXPECT_TRUE(out.empty() || out.back()->row_begin < c.row_begin);
        out.push_back(&c);
      }
    }
    return out;
  };
  const auto chunks =
      chunks_of(SectionId::kMachines, ColumnId::kCpuCapacity);
  ASSERT_EQ(chunks.size(), 1u);
  const std::span<const float> cpu = reader.f32_span(*chunks[0]);
  ASSERT_EQ(cpu.size(), original.machines().size());
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    EXPECT_EQ(cpu[i], original.machines()[i].cpu_capacity);
  }

  const auto pri_chunks =
      chunks_of(SectionId::kEvents, ColumnId::kPriority);
  ASSERT_FALSE(pri_chunks.empty());
  std::size_t row = 0;
  for (const ChunkMeta* chunk : pri_chunks) {
    for (const std::uint8_t v : reader.u8_span(*chunk)) {
      EXPECT_EQ(v, original.events()[row++].priority);
    }
  }
  EXPECT_EQ(row, original.events().size());
}

TEST_F(StoreTest, ZoneMapPruningMatchesBruteForce) {
  const TraceSet original = make_model_trace();
  const std::string p = path("prune.cgcs");
  WriteOptions options;
  options.chunks.rows_per_chunk = 64;  // many row groups to prune
  write_cgcs(original, p, options);
  const StoreReader reader(p);

  EventPredicate window;
  window.time_min = original.duration() / 4;
  window.time_max = original.duration() / 2;

  std::vector<TaskEvent> scanned;
  const ScanStats stats =
      reader.scan(window, [&](std::span<const TaskEvent> batch) {
        scanned.insert(scanned.end(), batch.begin(), batch.end());
      });

  std::vector<TaskEvent> expected;
  for (const TaskEvent& e : original.events()) {
    if (window.matches(e)) {
      expected.push_back(e);
    }
  }
  ASSERT_EQ(scanned.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_equal(scanned[i], expected[i]);
  }

  // Events are time-sorted, so a quarter-trace window must skip groups.
  EXPECT_GT(stats.row_groups_total, 4u);
  EXPECT_LT(stats.row_groups_scanned, stats.row_groups_total);
  EXPECT_EQ(stats.rows_matched, expected.size());
}

TEST_F(StoreTest, JobIdPredicateFilters) {
  const TraceSet original = make_model_trace();
  const std::string p = path("jobid.cgcs");
  write_cgcs(original, p);
  const StoreReader reader(p);

  const std::int64_t target = original.events()[0].job_id;
  EventPredicate pred;
  pred.job_id_min = target;
  pred.job_id_max = target;
  const std::vector<TaskEvent> got = scan_all(reader, pred);
  std::size_t expected = 0;
  for (const TaskEvent& e : original.events()) {
    expected += e.job_id == target ? 1 : 0;
  }
  EXPECT_EQ(got.size(), expected);
  for (const TaskEvent& e : got) {
    EXPECT_EQ(e.job_id, target);
  }
}

TEST_F(StoreTest, OpenPredicateScansEverything) {
  const TraceSet original = make_model_trace();
  const std::string p = path("full.cgcs");
  write_cgcs(original, p);
  const StoreReader reader(p);
  const ScanStats stats =
      reader.scan(EventPredicate{}, [](std::span<const TaskEvent>) {});
  EXPECT_EQ(stats.row_groups_scanned, stats.row_groups_total);
  EXPECT_EQ(stats.rows_decoded, original.events().size());
  EXPECT_EQ(stats.rows_matched, original.events().size());
}

// ---------------------------------------------------------------------------
// Corruption rejection
// ---------------------------------------------------------------------------

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class StoreCorruptionTest : public StoreTest {
 protected:
  void SetUp() override {
    StoreTest::SetUp();
    path_ = path("victim.cgcs");
    TraceSet trace = make_model_trace();
    write_cgcs(trace, path_);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), kHeaderSize + kTrailerSize);
  }

  void expect_rejected(const std::string& mutated,
                       const std::string& expected_substr) {
    spit(path_, mutated);
    try {
      const StoreReader reader(path_);
      reader.load_trace_set();
      FAIL() << "expected Error mentioning '" << expected_substr << "'";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(expected_substr),
                std::string::npos)
          << e.what();
    }
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StoreCorruptionTest, RejectsBadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  expect_rejected(mutated, "bad magic");
}

TEST_F(StoreCorruptionTest, RejectsUnsupportedVersion) {
  std::string mutated = bytes_;
  mutated[4] = 99;  // u32 format_version directly after the magic
  expect_rejected(mutated, "unsupported format version");
}

TEST_F(StoreCorruptionTest, RejectsTruncatedFile) {
  expect_rejected(bytes_.substr(0, bytes_.size() - 8), "bad end magic");
}

TEST_F(StoreCorruptionTest, RejectsFileShorterThanHeader) {
  expect_rejected(bytes_.substr(0, 10), "shorter than header");
}

TEST_F(StoreCorruptionTest, RejectsFooterOffsetOutOfBounds) {
  std::string mutated = bytes_;
  // Trailer starts 16 bytes from the end with the u64 footer offset.
  const std::size_t trailer = mutated.size() - kTrailerSize;
  for (std::size_t i = 0; i < 8; ++i) {
    mutated[trailer + i] = static_cast<char>(0xFF);
  }
  expect_rejected(mutated, "footer offset out of bounds");
}

TEST_F(StoreCorruptionTest, RejectsCorruptedFooter) {
  std::string mutated = bytes_;
  // Flip a byte a little before the trailer — inside the footer bytes.
  mutated[mutated.size() - kTrailerSize - 4] ^= 0x40;
  expect_rejected(mutated, "CRC");
}

TEST_F(StoreCorruptionTest, RejectsCorruptedChunkPayload) {
  // Find a chunk payload via a healthy reader, then flip one byte in it.
  std::size_t offset = 0;
  {
    const StoreReader reader(path_);
    const ChunkMeta* victim = nullptr;
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.payload_size > 0) {
        victim = &c;
        break;
      }
    }
    ASSERT_NE(victim, nullptr);
    offset = victim->offset;
  }
  std::string mutated = bytes_;
  mutated[offset] ^= 0x01;
  expect_rejected(mutated, "CRC");
}

TEST_F(StoreCorruptionTest, MissingFileThrows) {
  EXPECT_THROW(StoreReader(path("does_not_exist.cgcs")), util::Error);
}

void put_le(std::string* bytes, std::size_t at, std::uint64_t value,
            std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t crc_of(const std::string& bytes, std::size_t at,
                     std::size_t size) {
  return crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + at, size));
}

// Directory entries are fixed-size and the footer's tail: section,
// column, encoding (u8 each), then offset, payload_size, row_begin,
// row_count (u64), int/real bounds (4 x 8 B), crc (u32) = 71 bytes.
constexpr std::size_t kEntrySize = 71;
constexpr std::size_t kColumnField = 1;
constexpr std::size_t kEncodingField = 2;
constexpr std::size_t kPayloadSizeField = 11;
constexpr std::size_t kRowCountField = 27;
constexpr std::size_t kCrcField = 67;

/// Byte offset of directory entry `index` of `num_chunks`.
std::size_t entry_at(const std::string& bytes, std::size_t num_chunks,
                     std::size_t index) {
  return bytes.size() - kTrailerSize - (num_chunks - index) * kEntrySize;
}

/// The little-endian integer of `width` bytes at `at`.
std::uint64_t read_le(const std::string& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

/// Re-seals the footer CRC after a directory edit, so only the
/// reader's checks past the footer can object.
void reseal_footer(std::string* bytes) {
  const std::size_t trailer_at = bytes->size() - kTrailerSize;
  const std::uint64_t footer_offset = read_le(*bytes, trailer_at, 8);
  put_le(bytes, trailer_at + 8,
         crc_of(*bytes, footer_offset, trailer_at - footer_offset), 4);
}

/// Eight events in one row group, written to `p`; returns the directory
/// and the file's bytes.
std::pair<std::vector<ChunkMeta>, std::string> write_small_events(
    const std::string& p) {
  TraceSet original("small-events");
  for (int i = 0; i < 8; ++i) {
    original.add_event({.time = 100 * i, .job_id = i, .machine_id = -1,
                        .task_index = 0, .type = TaskEventType::kSubmit,
                        .priority = 3});
  }
  original.set_duration(1000);
  original.finalize();
  write_cgcs(original, p);
  return {StoreReader(p).chunks(), slurp(p)};
}

/// Index of the first chunk of `column` in `section`.
std::size_t chunk_of(const std::vector<ChunkMeta>& chunks, SectionId section,
                     ColumnId column) {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].section == section && chunks[i].column == column) {
      return i;
    }
  }
  ADD_FAILURE() << "no " << section_name(section) << " chunk for column "
                << static_cast<int>(column);
  return 0;
}

/// Both read paths refuse `p` in both modes, though every chunk's
/// payload verifies: the directory itself is inconsistent. verify_all()
/// reports the refusal with the load's reason, quarantines nothing, and
/// the load refuses the file whether or not it ran first.
void expect_load_and_scan_refuse(const std::string& p) {
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kDegraded}) {
    for (const bool verify_first : {false, true}) {
      const StoreReader reader(p, mode);
      if (verify_first) {
        const DamageReport damage = reader.verify_all();
        EXPECT_FALSE(damage.clean());
        EXPECT_TRUE(damage.chunks.empty());
        ASSERT_FALSE(damage.refused.empty());
        try {
          reader.load_trace_set();
          ADD_FAILURE() << "load accepted " << p;
        } catch (const util::DataError& e) {
          EXPECT_NE(std::string(e.what()).find(damage.refused[0].reason),
                    std::string::npos)
              << e.what();
        }
      }
      EXPECT_THROW(reader.load_trace_set(), util::Error);
      EXPECT_THROW(scan_all(reader, EventPredicate{}), util::Error);
    }
  }
}

TEST_F(StoreTest, ShortColumnInEventRowGroupIsRejectedByLoadAndScan) {
  // An events row group whose time chunk claims one row fewer than its
  // other columns, with that chunk's CRC re-sealed over the shorter
  // payload. A scan that trusted another column's row count would read
  // past the decoded times.
  const std::string p = path("short_column.cgcs");
  auto [chunks, bytes] = write_small_events(p);
  const std::size_t index =
      chunk_of(chunks, SectionId::kEvents, ColumnId::kTime);
  const ChunkMeta& time = chunks[index];
  ASSERT_EQ(time.row_count, 8u);
  // The payload prefix holding the first 7 varints.
  const std::uint64_t rows = time.row_count - 1;
  std::size_t prefix = 0;
  for (std::uint64_t seen = 0; seen < rows; ++prefix) {
    if ((static_cast<unsigned char>(bytes[time.offset + prefix]) & 0x80) ==
        0) {
      ++seen;
    }
  }
  const std::size_t entry = entry_at(bytes, chunks.size(), index);
  put_le(&bytes, entry + kPayloadSizeField, prefix, 8);
  put_le(&bytes, entry + kRowCountField, rows, 8);
  put_le(&bytes, entry + kCrcField, crc_of(bytes, time.offset, prefix), 4);
  reseal_footer(&bytes);
  spit(p, bytes);
  expect_load_and_scan_refuse(p);
}

TEST_F(StoreTest, OutOfRangeColumnIdIsRejectedByLoadAndScan) {
  // A directory entry naming a column id past the enum must be refused,
  // not used to index the row group's per-column table.
  const std::string p = path("bad_column.cgcs");
  auto [chunks, bytes] = write_small_events(p);
  const std::size_t index =
      chunk_of(chunks, SectionId::kEvents, ColumnId::kPriority);
  put_le(&bytes, entry_at(bytes, chunks.size(), index) + kColumnField, 200,
         1);
  reseal_footer(&bytes);
  spit(p, bytes);
  expect_load_and_scan_refuse(p);
}

/// `fn` throws util::DataError whose message is the reason and the path
/// only: no assertion text, no source location.
template <typename Fn>
void expect_clean_data_error(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": expected util::DataError";
  } catch (const util::DataError& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.find("CGC_CHECK failed"), std::string::npos)
        << what << ": " << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos)
        << what << ": " << message;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a util::DataError: " << e.what();
  }
}

/// Rewrites directory entry `index` of the file at `p` with `edit`, then
/// re-seals the footer CRC.
template <typename Edit>
void edit_entry(const std::string& p, std::size_t index, Edit&& edit) {
  const std::size_t num_chunks = StoreReader(p).chunks().size();
  std::string bytes = slurp(p);
  edit(&bytes, entry_at(bytes, num_chunks, index));
  reseal_footer(&bytes);
  spit(p, bytes);
}

TEST_F(StoreTest, BadInputIsADataErrorNamingOnlyReasonAndPath) {
  const std::string good = path("good.cgcs");
  write_cgcs(make_model_trace(), good);
  const std::string bytes = slurp(good);

  // Structural damage: refused when the file is opened.
  const std::string truncated = path("truncated.cgcs");
  spit(truncated, bytes.substr(0, bytes.size() - 100));
  expect_clean_data_error([&] { StoreReader reader(truncated); },
                          "truncated");
  std::string mutated = bytes;
  mutated[0] = 'X';
  const std::string bad_magic = path("bad_magic.cgcs");
  spit(bad_magic, mutated);
  expect_clean_data_error([&] { StoreReader reader(bad_magic); },
                          "bad magic");
  mutated = bytes;
  mutated[mutated.size() - kTrailerSize - 4] ^= 0x40;
  const std::string footer_crc = path("footer_crc.cgcs");
  spit(footer_crc, mutated);
  expect_clean_data_error([&] { StoreReader reader(footer_crc); },
                          "footer CRC");

  // A footer row count no file of this size can hold: refused before
  // anything is sized from it.
  mutated = bytes;
  const std::size_t footer_at = static_cast<std::size_t>(
      read_le(mutated, mutated.size() - kTrailerSize, 8));
  const std::size_t name_size = read_le(mutated, footer_at + 4, 4);
  // version, name, duration, memory_in_mb, jobs, tasks, then events.
  put_le(&mutated, footer_at + 4 + 4 + name_size + 8 + 1 + 8 + 8,
         std::uint64_t{1} << 40, 8);
  reseal_footer(&mutated);
  const std::string huge_count = path("huge_count.cgcs");
  spit(huge_count, mutated);
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kDegraded}) {
    expect_clean_data_error([&] { StoreReader reader(huge_count, mode); },
                            "huge event count");
  }

  // A resealed u8 chunk relabelled as varint verifies (its CRC covers
  // the payload, not the encoding) but is not what the schema says.
  const auto relabel_varint = [](std::string* b, std::size_t entry) {
    put_le(b, entry + kEncodingField,
           static_cast<std::uint8_t>(Encoding::kVarint), 1);
  };
  const std::string events = path("events_varint.cgcs");
  const auto event_chunks = write_small_events(events).first;
  edit_entry(events,
             chunk_of(event_chunks, SectionId::kEvents, ColumnId::kPriority),
             relabel_varint);
  const std::string jobs = path("jobs_varint.cgcs");
  spit(jobs, bytes);
  edit_entry(jobs,
             chunk_of(StoreReader(good).chunks(), SectionId::kJobs,
                      ColumnId::kPriority),
             relabel_varint);
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kDegraded}) {
    const StoreReader event_reader(events, mode);
    const DamageReport damage = event_reader.verify_all();
    EXPECT_TRUE(damage.chunks.empty());
    ASSERT_EQ(damage.refused.size(), 1u);
    EXPECT_EQ(damage.refused[0].column, ColumnId::kPriority);
    expect_clean_data_error([&] { event_reader.load_trace_set(); },
                            "events kPriority as varint, load");
    expect_clean_data_error(
        [&] { scan_all(event_reader, EventPredicate{}); },
        "events kPriority as varint, scan");
    const StoreReader job_reader(jobs, mode);
    expect_clean_data_error([&] { job_reader.load_trace_set(); },
                            "jobs kPriority as varint, load");
  }
}

TEST_F(StoreTest, ColumnOutsideItsSectionSchemaIsRefused) {
  // Column ids that exist, but not in this section: a host-load column
  // in events and an event-type column in jobs. A reader that ignored
  // them would leave a field at its default without a word.
  const auto relabel = [](ColumnId column) {
    return [column](std::string* b, std::size_t entry) {
      put_le(b, entry + kColumnField, static_cast<std::uint8_t>(column), 1);
    };
  };
  const std::string events = path("events_cpu_low.cgcs");
  const auto event_chunks = write_small_events(events).first;
  edit_entry(events,
             chunk_of(event_chunks, SectionId::kEvents, ColumnId::kPriority),
             relabel(ColumnId::kCpuLow));
  const std::string jobs = path("jobs_event_type.cgcs");
  write_cgcs(make_model_trace(), jobs);
  edit_entry(jobs,
             chunk_of(StoreReader(jobs).chunks(), SectionId::kJobs,
                      ColumnId::kPriority),
             relabel(ColumnId::kEventType));
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kDegraded}) {
    const StoreReader event_reader(events, mode);
    expect_clean_data_error([&] { event_reader.load_trace_set(); },
                            "host-load column in events, load");
    expect_clean_data_error(
        [&] { scan_all(event_reader, EventPredicate{}); },
        "host-load column in events, scan");
    const StoreReader job_reader(jobs, mode);
    expect_clean_data_error([&] { job_reader.load_trace_set(); },
                            "event-type column in jobs, load");
  }
}

TEST_F(StoreTest, FileBytesArePinned) {
  // The exact bytes write_cgcs makes of fixed traces — chunk order,
  // encodings, zone maps and footer — at the default row group size and
  // at 7 rows, which cuts every section into many row groups and makes
  // host-load groups straddle series. The CRC-32s and sizes were
  // recorded from the writer that spelled out every column by hand.
  struct Pin {
    const char* name;
    TraceSet trace;
    std::size_t rows_per_chunk;
    std::uint32_t crc;
    std::size_t size;
  };
  const Pin pins[] = {
      {"model", make_model_trace(), ChunkOptions{}.rows_per_chunk,
       1837886675u, 1253819},
      {"model_tiny", make_model_trace(), 7, 4201131645u, 8960646},
      {"grid", make_grid_hostload_trace(), ChunkOptions{}.rows_per_chunk,
       654602973u, 3290},
      {"grid_tiny", make_grid_hostload_trace(), 7, 2891487337u, 4776},
  };
  for (const Pin& pin : pins) {
    const std::string p = path(std::string(pin.name) + ".cgcs");
    WriteOptions options;
    options.chunks.rows_per_chunk = pin.rows_per_chunk;
    write_cgcs(pin.trace, p, options);
    const std::string bytes = slurp(p);
    EXPECT_EQ(crc_of(bytes, 0, bytes.size()), pin.crc) << pin.name;
    EXPECT_EQ(bytes.size(), pin.size) << pin.name;
  }
}

}  // namespace
}  // namespace cgc::store
