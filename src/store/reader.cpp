#include "store/reader.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/encoding.hpp"
#include "util/check.hpp"
#include "exec/parallel.hpp"

namespace cgc::store {

static_assert(std::endian::native == std::endian::little,
              "CGCS raw columns assume a little-endian host");

namespace {

using trace::HostLoadSeries;
using trace::kNumBands;
using trace::PriorityBand;

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

std::string bad_file(const std::string& path, const std::string& why) {
  return "not a valid CGCS file (" + why + "): " + path;
}

}  // namespace

std::string DamageReport::summary() const {
  return std::to_string(chunks.size()) + " chunks quarantined, " +
         std::to_string(rows_lost) + " rows lost, " +
         std::to_string(values_defaulted) + " values defaulted";
}

StoreReader::StoreReader(const std::string& path, ReadMode mode)
    : file_(path), mode_(mode) {
  if (obs::metrics_enabled()) {
    static obs::Counter& files_opened = obs::counter("store.files_opened");
    static obs::Counter& bytes_mapped = obs::counter("store.bytes_mapped");
    files_opened.add(1);
    bytes_mapped.add(file_.data().size());
  }
  parse_footer();
  std::vector<std::atomic<bool>> flags(chunks_.size());
  payload_checked_ = std::move(flags);
  std::vector<std::atomic<bool>> bad(chunks_.size());
  chunk_bad_ = std::move(bad);
  validate_chunks();
}

StoreReader::~StoreReader() = default;

void StoreReader::parse_footer() {
  const auto data = file_.data();
  const std::string& path = file_.path();
  CGC_CHECK_MSG(data.size() >= kHeaderSize + kTrailerSize,
                bad_file(path, "file shorter than header + trailer"));
  CGC_CHECK_MSG(std::memcmp(data.data(), kMagic.data(), 4) == 0,
                bad_file(path, "bad magic"));
  BufferReader header(data.subspan(4, kHeaderSize - 4));
  const std::uint32_t version = header.get_u32();
  CGC_CHECK_MSG(version == kFormatVersion,
                bad_file(path, "unsupported format version " +
                                   std::to_string(version)));
  CGC_CHECK_MSG(
      std::memcmp(data.data() + data.size() - 4, kEndMagic.data(), 4) == 0,
      bad_file(path, "bad end magic (truncated file?)"));

  BufferReader trailer(
      data.subspan(data.size() - kTrailerSize, kTrailerSize - 4));
  const std::uint64_t footer_offset = trailer.get_u64();
  const std::uint32_t footer_crc = trailer.get_u32();
  CGC_CHECK_MSG(footer_offset >= kHeaderSize &&
                    footer_offset <= data.size() - kTrailerSize,
                bad_file(path, "footer offset out of bounds"));
  const auto footer_bytes = data.subspan(
      footer_offset, data.size() - kTrailerSize - footer_offset);
  CGC_CHECK_MSG(crc32(footer_bytes) == footer_crc,
                bad_file(path, "footer CRC mismatch"));

  BufferReader footer(footer_bytes);
  const std::uint32_t footer_version = footer.get_u32();
  CGC_CHECK_MSG(footer_version == kFormatVersion,
                bad_file(path, "footer/header version disagreement"));
  info_.system_name = footer.get_string();
  info_.duration = footer.get_i64();
  info_.memory_in_mb = footer.get_u8() != 0;
  info_.num_jobs = footer.get_u64();
  info_.num_tasks = footer.get_u64();
  info_.num_events = footer.get_u64();
  info_.num_machines = footer.get_u64();
  info_.num_hostload_samples = footer.get_u64();
  info_.file_size = data.size();

  const std::uint64_t num_series = footer.get_u64();
  info_.num_hostload_series = num_series;
  series_.reserve(num_series);
  std::uint64_t sample_total = 0;
  for (std::uint64_t i = 0; i < num_series; ++i) {
    SeriesMeta s;
    s.machine_id = footer.get_i64();
    s.start = footer.get_i64();
    s.period = footer.get_i64();
    s.samples = footer.get_u64();
    CGC_CHECK_MSG(s.period > 0, bad_file(path, "non-positive series period"));
    sample_total += s.samples;
    series_.push_back(s);
  }
  CGC_CHECK_MSG(sample_total == info_.num_hostload_samples,
                bad_file(path, "series directory disagrees with sample count"));

  const std::uint32_t num_chunks = footer.get_u32();
  chunks_.reserve(num_chunks);
  for (std::uint32_t i = 0; i < num_chunks; ++i) {
    ChunkMeta c;
    const std::uint8_t section = footer.get_u8();
    CGC_CHECK_MSG(section < kNumSections,
                  bad_file(path, "chunk section id out of range"));
    c.section = static_cast<SectionId>(section);
    c.column = static_cast<ColumnId>(footer.get_u8());
    const std::uint8_t encoding = footer.get_u8();
    CGC_CHECK_MSG(encoding <= static_cast<std::uint8_t>(Encoding::kDeltaVarint),
                  bad_file(path, "chunk encoding out of range"));
    c.encoding = static_cast<Encoding>(encoding);
    c.offset = footer.get_u64();
    c.payload_size = footer.get_u64();
    c.row_begin = footer.get_u64();
    c.row_count = footer.get_u64();
    c.int_min = footer.get_i64();
    c.int_max = footer.get_i64();
    c.real_min = footer.get_f64();
    c.real_max = footer.get_f64();
    c.crc = footer.get_u32();
    chunks_.push_back(c);
  }
  CGC_CHECK_MSG(footer.exhausted(),
                bad_file(path, "footer has trailing bytes"));
  info_.num_chunks = chunks_.size();
  footer_offset_ = footer_offset;
}

void StoreReader::validate_chunks() {
  const std::string& path = file_.path();
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkMeta& c = chunks_[i];
    std::uint64_t section_rows = 0;
    switch (c.section) {
      case SectionId::kJobs:
        section_rows = info_.num_jobs;
        break;
      case SectionId::kTasks:
        section_rows = info_.num_tasks;
        break;
      case SectionId::kEvents:
        section_rows = info_.num_events;
        break;
      case SectionId::kMachines:
        section_rows = info_.num_machines;
        break;
      case SectionId::kHostLoad:
        section_rows = info_.num_hostload_samples;
        break;
    }
    std::string reason;
    // Payloads must live in [header, footer).
    if (c.offset < kHeaderSize ||
        c.offset + c.payload_size > footer_offset_) {
      reason = "chunk payload out of bounds";
    } else if (c.row_begin + c.row_count > section_rows) {
      reason = "chunk rows exceed section size";
    } else if (c.encoding == Encoding::kRawF32) {
      if (c.payload_size != c.row_count * sizeof(float)) {
        reason = "raw f32 chunk payload size mismatch";
      } else if (c.offset % alignof(float) != 0) {
        reason = "raw f32 chunk misaligned";
      }
    } else if (c.encoding == Encoding::kRawU8 &&
               c.payload_size != c.row_count) {
      reason = "raw u8 chunk payload size mismatch";
    }
    if (reason.empty()) {
      continue;
    }
    if (mode_ == ReadMode::kStrict) {
      throw util::DataError(bad_file(path, reason));
    }
    quarantine(c, reason);
  }
}

std::size_t StoreReader::chunk_index(const ChunkMeta& chunk) const {
  const ChunkMeta* base = chunks_.data();
  return (&chunk >= base && &chunk < base + chunks_.size())
             ? static_cast<std::size_t>(&chunk - base)
             : kNoIndex;
}

std::string StoreReader::verify_payload(const ChunkMeta& chunk) const {
  // Verify the payload once per directory chunk; copies of ChunkMeta
  // passed from outside the directory are verified every time. Races on
  // the memo flags are benign — both sides compute the same answer.
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex &&
      payload_checked_[idx].load(std::memory_order_relaxed)) {
    return {};
  }
  if (fault::armed() && fault::inject("store.chunk_crc", chunk.offset)) {
    return "injected fault at store.chunk_crc (section " +
           std::string(section_name(chunk.section)) + ")";
  }
  const auto span = file_.data().subspan(chunk.offset, chunk.payload_size);
  bool crc_ok;
  if (obs::metrics_enabled()) {
    static obs::Histogram& crc_ns = obs::histogram("store.crc_ns");
    const std::uint64_t start = obs::now_ns();
    crc_ok = crc32(span) == chunk.crc;
    crc_ns.observe(obs::now_ns() - start);
  } else {
    crc_ok = crc32(span) == chunk.crc;
  }
  if (!crc_ok) {
    return "chunk CRC mismatch in section " +
           std::string(section_name(chunk.section));
  }
  // A task event type decodes straight into trace::TaskEventType, which
  // indexes fixed per-type tables downstream: a byte past the enum is
  // damage, the same as a CRC failure.
  if ((chunk.column == ColumnId::kEventType ||
       chunk.column == ColumnId::kEndEvent) &&
      chunk.encoding == Encoding::kRawU8 &&
      std::any_of(span.begin(), span.end(), [](std::uint8_t type) {
        return type >= trace::kNumTaskEventTypes;
      })) {
    return "task event type out of range in section " +
           std::string(section_name(chunk.section));
  }
  if (idx != kNoIndex) {
    // exchange() makes the first-transition test exact, so the verified
    // count is one per chunk even when racing accessors double-check.
    const bool already =
        payload_checked_[idx].exchange(true, std::memory_order_relaxed);
    if (!already && obs::metrics_enabled()) {
      static obs::Counter& verified = obs::counter("store.chunks_verified");
      verified.add(1);
    }
  }
  return {};
}

void StoreReader::quarantine(const ChunkMeta& chunk,
                             const std::string& reason) const {
  const std::size_t idx = chunk_index(chunk);
  util::MutexLock lock(damage_mutex_);
  if (idx != kNoIndex) {
    if (chunk_bad_[idx].load(std::memory_order_relaxed)) {
      return;  // already recorded by another accessor
    }
    chunk_bad_[idx].store(true, std::memory_order_relaxed);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& quarantined =
        obs::counter("store.chunks_quarantined");
    quarantined.add(1);
  }
  QuarantinedChunk q;
  q.section = chunk.section;
  q.column = chunk.column;
  q.offset = chunk.offset;
  q.payload_size = chunk.payload_size;
  q.row_begin = chunk.row_begin;
  q.row_count = chunk.row_count;
  q.reason = reason;
  damage_.chunks.push_back(std::move(q));
}

bool StoreReader::chunk_ok(const ChunkMeta& chunk) const noexcept {
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex &&
      chunk_bad_[idx].load(std::memory_order_relaxed)) {
    return false;
  }
  const std::string reason = verify_payload(chunk);
  if (reason.empty()) {
    return true;
  }
  quarantine(chunk, reason);
  return false;
}

DamageReport StoreReader::damage() const {
  util::MutexLock lock(damage_mutex_);
  return damage_;
}

DamageReport StoreReader::verify_all() const {
  for (const ChunkMeta& chunk : chunks_) {
    chunk_ok(chunk);
  }
  return damage();
}

std::span<const std::uint8_t> StoreReader::payload(
    const ChunkMeta& chunk) const {
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex &&
      chunk_bad_[idx].load(std::memory_order_relaxed)) {
    throw util::DataError(
        bad_file(file_.path(), "access to quarantined chunk in section " +
                                   std::string(section_name(chunk.section))));
  }
  const std::string reason = verify_payload(chunk);
  if (!reason.empty()) {
    if (mode_ == ReadMode::kDegraded) {
      quarantine(chunk, reason);
    }
    throw util::DataError(bad_file(file_.path(), reason));
  }
  return file_.data().subspan(chunk.offset, chunk.payload_size);
}

std::span<const float> StoreReader::f32_span(const ChunkMeta& chunk) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawF32,
                "f32_span() on a non-raw-f32 chunk");
  const auto bytes = payload(chunk);
  return {reinterpret_cast<const float*>(bytes.data()), chunk.row_count};
}

std::span<const std::uint8_t> StoreReader::u8_span(
    const ChunkMeta& chunk) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawU8,
                "u8_span() on a non-raw-u8 chunk");
  return payload(chunk);
}

void StoreReader::decode_i64(const ChunkMeta& chunk,
                             std::vector<std::int64_t>* out) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kVarint ||
                    chunk.encoding == Encoding::kDeltaVarint,
                "decode_i64() on a non-integer chunk");
  if (obs::metrics_enabled()) {
    static obs::Counter& decoded = obs::counter("store.chunks_decoded");
    static obs::Histogram& decode_ns = obs::histogram("store.decode_ns");
    decoded.add(1);
    const std::uint64_t start = obs::now_ns();
    decode_i64_column(payload(chunk), chunk.row_count,
                      chunk.encoding == Encoding::kDeltaVarint, out);
    decode_ns.observe(obs::now_ns() - start);
    return;
  }
  decode_i64_column(payload(chunk), chunk.row_count,
                    chunk.encoding == Encoding::kDeltaVarint, out);
}

std::vector<StoreReader::RowGroup> StoreReader::row_groups(
    SectionId section) const {
  std::map<std::uint64_t, RowGroup> by_row;
  for (const ChunkMeta& c : chunks_) {
    if (c.section != section) {
      continue;
    }
    const auto col = static_cast<std::size_t>(c.column);
    CGC_CHECK_MSG(col < kNumColumnIds,
                  bad_file(file_.path(), "chunk column id out of range"));
    RowGroup& g = by_row[c.row_begin];
    g.row_begin = c.row_begin;
    g.row_count = c.row_count;
    g.cols[col] = &c;
  }
  std::vector<RowGroup> out;
  out.reserve(by_row.size());
  for (const auto& [row, group] : by_row) {
    out.push_back(group);
  }
  return out;
}

const ChunkMeta& StoreReader::need(const RowGroup& g, ColumnId col) const {
  const ChunkMeta* c = g.cols[static_cast<std::size_t>(col)];
  CGC_CHECK_MSG(c != nullptr && c->row_count == g.row_count,
                bad_file(file_.path(), "row group missing a column"));
  return *c;
}

bool StoreReader::drop_damaged(const RowGroup& g) const {
  if (mode_ != ReadMode::kDegraded) {
    return false;
  }
  bool bad = false;
  for (const ChunkMeta* c : g.cols) {
    // No short-circuit: the DamageReport lists every damaged chunk.
    if (c != nullptr && !chunk_ok(*c)) {
      bad = true;
    }
  }
  if (bad) {
    util::MutexLock lock(damage_mutex_);
    damage_.rows_lost += g.row_count;
  }
  return bad;
}

void StoreReader::decode_events(const RowGroup& g,
                                trace::TaskEvent* dst) const {
  std::vector<std::int64_t> time, jid, tidx, mid;
  decode_i64(need(g, ColumnId::kTime), &time);
  decode_i64(need(g, ColumnId::kJobId), &jid);
  decode_i64(need(g, ColumnId::kTaskIndex), &tidx);
  decode_i64(need(g, ColumnId::kMachineId), &mid);
  const auto type = u8_span(need(g, ColumnId::kEventType));
  const auto prio = u8_span(need(g, ColumnId::kPriority));
  for (std::size_t i = 0; i < g.row_count; ++i) {
    trace::TaskEvent& e = dst[i];
    e.time = time[i];
    e.job_id = jid[i];
    e.task_index = static_cast<std::int32_t>(tidx[i]);
    e.machine_id = mid[i];
    e.type = static_cast<trace::TaskEventType>(type[i]);
    e.priority = prio[i];
  }
}

namespace {

/// Flattened host-load columns for reconstruction.
struct HostLoadFlat {
  std::vector<float> cpu[kNumBands];
  std::vector<float> mem[kNumBands];
  std::vector<float> mem_assigned;
  std::vector<float> page_cache;
  std::vector<std::int32_t> running;
  std::vector<std::int32_t> pending;
};

}  // namespace

trace::TraceSet StoreReader::load_trace_set() const {
  obs::ScopedTimer timer("store.load_trace_set");
  std::vector<trace::Job> jobs(info_.num_jobs);
  std::vector<trace::Task> tasks(info_.num_tasks);
  std::vector<trace::TaskEvent> events(info_.num_events);
  std::vector<trace::Machine> machines(info_.num_machines);
  HostLoadFlat hl;
  for (std::size_t b = 0; b < kNumBands; ++b) {
    hl.cpu[b].resize(info_.num_hostload_samples);
    hl.mem[b].resize(info_.num_hostload_samples);
  }
  hl.mem_assigned.resize(info_.num_hostload_samples);
  hl.page_cache.resize(info_.num_hostload_samples);
  hl.running.resize(info_.num_hostload_samples);
  hl.pending.resize(info_.num_hostload_samples);

  // Tasks and events dominate the row count, so their chunks are
  // regrouped by row range and every destination struct is filled in a
  // single pass: one sweep of the section array per row group instead
  // of one per column. Groups cover disjoint row ranges, so the
  // fan-out stays race free. Degraded mode drops damaged groups whole
  // (drop_damaged); each leaves a hole in its own range, compacted out
  // after the parallel fill.
  util::Mutex lost_mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lost_tasks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lost_events;

  const std::vector<RowGroup> task_groups = row_groups(SectionId::kTasks);
  exec::parallel_for(0, task_groups.size(), [&](std::size_t gi) {
    const RowGroup& g = task_groups[gi];
    if (drop_damaged(g)) {
      util::MutexLock lock(lost_mutex);
      lost_tasks.emplace_back(g.row_begin, g.row_count);
      return;
    }
    std::vector<std::int64_t> jid, tidx, submit, sched, end_t, mid, resub;
    decode_i64(need(g, ColumnId::kJobId), &jid);
    decode_i64(need(g, ColumnId::kTaskIndex), &tidx);
    decode_i64(need(g, ColumnId::kSubmitTime), &submit);
    decode_i64(need(g, ColumnId::kScheduleTime), &sched);
    decode_i64(need(g, ColumnId::kEndTime), &end_t);
    decode_i64(need(g, ColumnId::kMachineId), &mid);
    decode_i64(need(g, ColumnId::kResubmits), &resub);
    const auto prio = u8_span(need(g, ColumnId::kPriority));
    const auto end_ev = u8_span(need(g, ColumnId::kEndEvent));
    const auto cpu_req = f32_span(need(g, ColumnId::kCpuRequest));
    const auto mem_req = f32_span(need(g, ColumnId::kMemRequest));
    const auto cpu_use = f32_span(need(g, ColumnId::kCpuUsage));
    const auto mem_use = f32_span(need(g, ColumnId::kMemUsage));
    trace::Task* dst = tasks.data() + g.row_begin;
    for (std::size_t i = 0; i < g.row_count; ++i) {
      trace::Task& t = dst[i];
      t.job_id = jid[i];
      t.task_index = static_cast<std::int32_t>(tidx[i]);
      t.priority = prio[i];
      t.submit_time = submit[i];
      t.schedule_time = sched[i];
      t.end_time = end_t[i];
      t.end_event = static_cast<trace::TaskEventType>(end_ev[i]);
      t.machine_id = mid[i];
      t.resubmits = static_cast<std::int32_t>(resub[i]);
      t.cpu_request = cpu_req[i];
      t.mem_request = mem_req[i];
      t.cpu_usage = cpu_use[i];
      t.mem_usage = mem_use[i];
    }
  }, /*grain=*/1);

  const std::vector<RowGroup> event_groups = row_groups(SectionId::kEvents);
  exec::parallel_for(0, event_groups.size(), [&](std::size_t gi) {
    const RowGroup& g = event_groups[gi];
    if (drop_damaged(g)) {
      util::MutexLock lock(lost_mutex);
      lost_events.emplace_back(g.row_begin, g.row_count);
      return;
    }
    decode_events(g, events.data() + g.row_begin);
  }, /*grain=*/1);

  // Compact the dropped row groups out of the task/event arrays,
  // highest range first so earlier offsets stay valid.
  auto compact = []<typename T>(std::vector<T>* rows,
                                 std::vector<std::pair<std::uint64_t,
                                                       std::uint64_t>>
                                     lost) {
    std::sort(lost.begin(), lost.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [begin, count] : lost) {
      rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(begin),
                  rows->begin() + static_cast<std::ptrdiff_t>(begin + count));
    }
  };
  compact(&tasks, std::move(lost_tasks));
  compact(&events, std::move(lost_events));

  // The remaining sections are small (jobs, machines) or already land
  // in flat per-column arrays (host load), so they decode chunk-wise.
  // A damaged chunk here loses one column of a row range, not the whole
  // record: degraded mode leaves those values zero-filled and accounts
  // them, which keeps the host-load series time grids intact.
  exec::parallel_for(0, chunks_.size(), [&](std::size_t ci) {
    const ChunkMeta& c = chunks_[ci];
    if (c.section == SectionId::kTasks || c.section == SectionId::kEvents) {
      return;
    }
    if (mode_ == ReadMode::kDegraded && !chunk_ok(c)) {
      util::MutexLock lock(damage_mutex_);
      damage_.values_defaulted += c.row_count;
      return;
    }
    const std::size_t lo = c.row_begin;
    std::vector<std::int64_t> ints;
    if (c.encoding == Encoding::kVarint ||
        c.encoding == Encoding::kDeltaVarint) {
      decode_i64(c, &ints);
    }
    auto f32 = [&] { return f32_span(c); };
    auto u8 = [&] { return u8_span(c); };
    switch (c.section) {
      case SectionId::kTasks:
      case SectionId::kEvents:
        break;  // handled by the fused row-group passes above
      case SectionId::kJobs:
        switch (c.column) {
          case ColumnId::kJobId:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              jobs[lo + i].job_id = ints[i];
            }
            break;
          case ColumnId::kUserId:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              jobs[lo + i].user_id = ints[i];
            }
            break;
          case ColumnId::kPriority: {
            const auto s = u8();
            for (std::size_t i = 0; i < s.size(); ++i) {
              jobs[lo + i].priority = s[i];
            }
            break;
          }
          case ColumnId::kSubmitTime:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              jobs[lo + i].submit_time = ints[i];
            }
            break;
          case ColumnId::kEndTime:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              jobs[lo + i].end_time = ints[i];
            }
            break;
          case ColumnId::kNumTasks:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              jobs[lo + i].num_tasks = static_cast<std::int32_t>(ints[i]);
            }
            break;
          case ColumnId::kCpuParallelism: {
            const auto s = f32();
            for (std::size_t i = 0; i < s.size(); ++i) {
              jobs[lo + i].cpu_parallelism = s[i];
            }
            break;
          }
          case ColumnId::kMemUsage: {
            const auto s = f32();
            for (std::size_t i = 0; i < s.size(); ++i) {
              jobs[lo + i].mem_usage = s[i];
            }
            break;
          }
          default:
            CGC_CHECK_MSG(false, "unknown jobs column in store file");
        }
        break;
      case SectionId::kMachines:
        switch (c.column) {
          case ColumnId::kMachineId:
            for (std::size_t i = 0; i < ints.size(); ++i) {
              machines[lo + i].machine_id = ints[i];
            }
            break;
          case ColumnId::kCpuCapacity: {
            const auto s = f32();
            for (std::size_t i = 0; i < s.size(); ++i) {
              machines[lo + i].cpu_capacity = s[i];
            }
            break;
          }
          case ColumnId::kMemCapacity: {
            const auto s = f32();
            for (std::size_t i = 0; i < s.size(); ++i) {
              machines[lo + i].mem_capacity = s[i];
            }
            break;
          }
          case ColumnId::kPageCacheCapacity: {
            const auto s = f32();
            for (std::size_t i = 0; i < s.size(); ++i) {
              machines[lo + i].page_cache_capacity = s[i];
            }
            break;
          }
          case ColumnId::kAttributes: {
            const auto s = u8();
            for (std::size_t i = 0; i < s.size(); ++i) {
              machines[lo + i].attributes = s[i];
            }
            break;
          }
          default:
            CGC_CHECK_MSG(false, "unknown machines column in store file");
        }
        break;
      case SectionId::kHostLoad: {
        auto copy_f32 = [&](std::vector<float>* dst) {
          const auto s = f32();
          std::copy(s.begin(), s.end(), dst->begin() + lo);
        };
        auto copy_i32 = [&](std::vector<std::int32_t>* dst) {
          for (std::size_t i = 0; i < ints.size(); ++i) {
            (*dst)[lo + i] = static_cast<std::int32_t>(ints[i]);
          }
        };
        switch (c.column) {
          case ColumnId::kCpuLow:
            copy_f32(&hl.cpu[0]);
            break;
          case ColumnId::kCpuMid:
            copy_f32(&hl.cpu[1]);
            break;
          case ColumnId::kCpuHigh:
            copy_f32(&hl.cpu[2]);
            break;
          case ColumnId::kMemLow:
            copy_f32(&hl.mem[0]);
            break;
          case ColumnId::kMemMid:
            copy_f32(&hl.mem[1]);
            break;
          case ColumnId::kMemHigh:
            copy_f32(&hl.mem[2]);
            break;
          case ColumnId::kMemAssigned:
            copy_f32(&hl.mem_assigned);
            break;
          case ColumnId::kPageCache:
            copy_f32(&hl.page_cache);
            break;
          case ColumnId::kRunning:
            copy_i32(&hl.running);
            break;
          case ColumnId::kPending:
            copy_i32(&hl.pending);
            break;
          default:
            CGC_CHECK_MSG(false, "unknown host-load column in store file");
        }
        break;
      }
    }
  }, /*grain=*/1);

  // Rebuild the per-machine series from the flat columns; each series
  // owns a disjoint sample range, so this also fans out cleanly.
  std::vector<std::size_t> series_offset(series_.size() + 1, 0);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    series_offset[i + 1] = series_offset[i] + series_[i].samples;
  }
  std::vector<HostLoadSeries> host_load(series_.size());
  exec::parallel_for(0, series_.size(), [&](std::size_t si) {
    const SeriesMeta& meta = series_[si];
    HostLoadSeries series(meta.machine_id, meta.start, meta.period);
    const std::size_t base = series_offset[si];
    const std::size_t n = meta.samples;
    const std::span<const float> cpu[kNumBands] = {
        std::span(hl.cpu[0]).subspan(base, n),
        std::span(hl.cpu[1]).subspan(base, n),
        std::span(hl.cpu[2]).subspan(base, n)};
    const std::span<const float> mem[kNumBands] = {
        std::span(hl.mem[0]).subspan(base, n),
        std::span(hl.mem[1]).subspan(base, n),
        std::span(hl.mem[2]).subspan(base, n)};
    series.append_samples(cpu, mem, std::span(hl.mem_assigned).subspan(base, n),
                          std::span(hl.page_cache).subspan(base, n),
                          std::span(hl.running).subspan(base, n),
                          std::span(hl.pending).subspan(base, n));
    host_load[si] = std::move(series);
  }, /*grain=*/1);

  trace::TraceSet trace(info_.system_name);
  trace.set_memory_in_mb(info_.memory_in_mb);
  trace.adopt_jobs(std::move(jobs));
  trace.adopt_tasks(std::move(tasks));
  trace.adopt_events(std::move(events));
  trace.adopt_machines(std::move(machines));
  trace.adopt_host_load(std::move(host_load));
  trace.set_duration(info_.duration);
  trace.finalize();
  return trace;
}

ScanStats StoreReader::scan(
    const EventPredicate& predicate,
    const std::function<void(std::span<const trace::TaskEvent>)>& fn) const {
  obs::ScopedTimer timer("store.scan");
  const std::vector<RowGroup> groups = row_groups(SectionId::kEvents);
  ScanStats stats;
  stats.row_groups_total = groups.size();

  // Zone-map pushdown: a group survives only if its time and job_id
  // ranges can intersect the predicate's bounds.
  std::vector<const RowGroup*> survivors;
  for (const RowGroup& g : groups) {
    const ChunkMeta& time = need(g, ColumnId::kTime);
    const ChunkMeta& job_id = need(g, ColumnId::kJobId);
    if ((predicate.time_min && time.int_max < *predicate.time_min) ||
        (predicate.time_max && time.int_min > *predicate.time_max) ||
        (predicate.job_id_min && job_id.int_max < *predicate.job_id_min) ||
        (predicate.job_id_max && job_id.int_min > *predicate.job_id_max)) {
      continue;
    }
    survivors.push_back(&g);
  }
  stats.row_groups_scanned = survivors.size();

  // Decode surviving groups in parallel; deliver serially in file order.
  std::vector<std::vector<trace::TaskEvent>> slots(survivors.size());
  std::atomic<std::size_t> decoded{0};
  std::atomic<std::size_t> matched{0};
  exec::parallel_for(0, survivors.size(), [&](std::size_t gi) {
    const RowGroup& g = *survivors[gi];
    if (drop_damaged(g)) {
      return;
    }
    std::vector<trace::TaskEvent>& out = slots[gi];
    out.resize(g.row_count);
    decode_events(g, out.data());
    std::erase_if(out, [&predicate](const trace::TaskEvent& e) {
      return !predicate.matches(e);
    });
    decoded.fetch_add(g.row_count, std::memory_order_relaxed);
    matched.fetch_add(out.size(), std::memory_order_relaxed);
  }, /*grain=*/1);
  stats.rows_decoded = decoded.load();
  stats.rows_matched = matched.load();

  for (const std::vector<trace::TaskEvent>& slot : slots) {
    if (!slot.empty()) {
      fn(slot);
    }
  }
  return stats;
}

trace::TraceSet read_cgcs(const std::string& path) {
  return StoreReader(path).load_trace_set();
}

trace::TraceSet read_cgcs_degraded(const std::string& path,
                                   DamageReport* damage) {
  const StoreReader reader(path, ReadMode::kDegraded);
  trace::TraceSet trace = reader.load_trace_set();
  if (damage != nullptr) {
    *damage = reader.damage();
  }
  return trace;
}

}  // namespace cgc::store
