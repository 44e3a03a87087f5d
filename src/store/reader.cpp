#include "store/reader.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/encoding.hpp"
#include "store/schema.hpp"
#include "util/check.hpp"

namespace cgc::store {

static_assert(std::endian::native == std::endian::little,
              "CGCS raw columns assume a little-endian host");

namespace {

using trace::HostLoadSeries;

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

std::string bad_file(const std::string& path, const std::string& why) {
  return "not a valid CGCS file (" + why + "): " + path;
}

/// `chunk`, set aside for `reason`.
QuarantinedChunk finding(const ChunkMeta& chunk, std::string reason) {
  QuarantinedChunk q;
  q.section = chunk.section;
  q.column = chunk.column;
  q.offset = chunk.offset;
  q.payload_size = chunk.payload_size;
  q.row_begin = chunk.row_begin;
  q.row_count = chunk.row_count;
  q.reason = std::move(reason);
  return q;
}

/// "column <id> of section <name>", the way load errors name a column.
std::string column_name(SectionId section, ColumnId column) {
  return "column " + std::to_string(static_cast<int>(column)) +
         " of section " + std::string(section_name(section));
}

/// Footer checks throw the bare reason; the constructor adds the path.
void require(bool ok, const std::string& why) {
  if (!ok) {
    throw util::DataError(why);
  }
}

/// One chunk's values in the schema's stored type: decoded integers, or
/// a zero-copy span into the mapping for raw encodings.
template <typename Col>
struct ColumnValues {
  using T = typename Col::stored;
  ColumnValues(const StoreReader& reader, const ChunkMeta& chunk) {
    if constexpr (Col::encoding == Encoding::kRawF32) {
      values = reader.f32_span(chunk);
    } else if constexpr (Col::encoding == Encoding::kRawU8) {
      values = reader.u8_span(chunk);
    } else {
      reader.decode_i64(chunk, &values);
    }
  }
  /// Stores value i into its field of `row`.
  template <typename Row>
  void put(Row& row, std::size_t i) const {
    Col::field::of(row) = static_cast<typename Col::field::type>(values[i]);
  }

  std::conditional_t<std::is_same_v<T, std::int64_t>,
                     std::vector<std::int64_t>, std::span<const T>>
      values;
};

/// Writes chunk `c` into its rows of `dst` when it holds column `Col`:
/// record fields for the row sections, the series' sample columns for
/// host load.
template <typename Col, typename Dst>
void scatter_column(const StoreReader& reader, const ChunkMeta& c, Dst& dst) {
  if (Col::id != c.column) {
    return;
  }
  const ColumnValues<Col> col(reader, c);
  if constexpr (std::is_same_v<Dst, schema::HostLoadRows<HostLoadSeries>>) {
    std::size_t i = 0;
    dst.for_each_slice(
        c.row_begin, c.row_begin + c.row_count,
        [&](HostLoadSeries& series, std::size_t first, std::size_t count) {
          for (auto& sample : Col::field::of(series).subspan(first, count)) {
            sample = static_cast<typename Col::field::type>(col.values[i++]);
          }
        });
  } else {
    for (std::size_t i = 0; i < c.row_count; ++i) {
      col.put(dst[c.row_begin + i], i);
    }
  }
}

/// Writes chunk `c`, one of section `Section`'s, into `dst`.
template <typename Section, typename Dst>
void scatter(const StoreReader& reader, const ChunkMeta& c, Dst& dst) {
  Section::apply([&](auto... column) {
    (scatter_column<decltype(column)>(reader, c, dst), ...);
  });
}

}  // namespace

std::string DamageReport::summary() const {
  return std::to_string(chunks.size()) + " chunks quarantined, " +
         std::to_string(rows_lost) + " rows lost, " +
         std::to_string(values_defaulted) + " values defaulted" +
         (refused.empty() ? ""
                          : ", " + std::to_string(refused.size()) +
                                " refused");
}

StoreReader::StoreReader(const std::string& path, ReadMode mode)
    : file_(path), mode_(mode) {
  if (obs::metrics_enabled()) {
    static obs::Counter& files_opened = obs::counter("store.files_opened");
    static obs::Counter& bytes_mapped = obs::counter("store.bytes_mapped");
    files_opened.add(1);
    bytes_mapped.add(file_.data().size());
  }
  try {
    parse_footer();
  } catch (const util::DataError& e) {
    throw util::DataError(bad_file(path, e.what()));
  }
  std::vector<std::atomic<bool>> flags(chunks_.size());
  payload_checked_ = std::move(flags);
  std::vector<std::atomic<bool>> bad(chunks_.size());
  chunk_bad_ = std::move(bad);
  validate_chunks();
  index_row_groups();
}

StoreReader::~StoreReader() = default;

void StoreReader::parse_footer() {
  const auto data = file_.data();
  require(data.size() >= kHeaderSize + kTrailerSize,
          "file shorter than header + trailer");
  require(std::memcmp(data.data(), kMagic.data(), 4) == 0, "bad magic");
  BufferReader header(data.subspan(4, kHeaderSize - 4));
  const std::uint32_t version = header.get_u32();
  require(version == kFormatVersion,
          "unsupported format version " + std::to_string(version));
  require(
      std::memcmp(data.data() + data.size() - 4, kEndMagic.data(), 4) == 0,
      "bad end magic (truncated file?)");

  BufferReader trailer(
      data.subspan(data.size() - kTrailerSize, kTrailerSize - 4));
  const std::uint64_t footer_offset = trailer.get_u64();
  const std::uint32_t footer_crc = trailer.get_u32();
  require(footer_offset >= kHeaderSize &&
              footer_offset <= data.size() - kTrailerSize,
          "footer offset out of bounds");
  const auto footer_bytes = data.subspan(
      footer_offset, data.size() - kTrailerSize - footer_offset);
  require(crc32(footer_bytes) == footer_crc, "footer CRC mismatch");

  BufferReader footer(footer_bytes);
  const std::uint32_t footer_version = footer.get_u32();
  require(footer_version == kFormatVersion,
          "footer/header version disagreement");
  info_.system_name = footer.get_string();
  info_.duration = footer.get_i64();
  info_.memory_in_mb = footer.get_u8() != 0;
  info_.num_jobs = footer.get_u64();
  info_.num_tasks = footer.get_u64();
  info_.num_events = footer.get_u64();
  info_.num_machines = footer.get_u64();
  info_.num_hostload_samples = footer.get_u64();
  info_.file_size = data.size();
  // Each section has an integer or byte column, so every row takes at
  // least one payload byte: no row count can exceed the file size.
  for (const std::uint64_t rows :
       {info_.num_jobs, info_.num_tasks, info_.num_events,
        info_.num_machines, info_.num_hostload_samples}) {
    require(rows <= data.size(), "section row count exceeds the file size");
  }

  // Directory counts are bounded by the bytes left to hold their
  // entries (32 B per series, 71 B per chunk) before anything is sized
  // from them.
  const std::uint64_t num_series = footer.get_u64();
  require(num_series <= footer.remaining() / 32,
          "series directory longer than the footer");
  info_.num_hostload_series = num_series;
  series_.reserve(num_series);
  std::uint64_t sample_total = 0;
  for (std::uint64_t i = 0; i < num_series; ++i) {
    SeriesMeta s;
    s.machine_id = footer.get_i64();
    s.start = footer.get_i64();
    s.period = footer.get_i64();
    s.samples = footer.get_u64();
    require(s.period > 0, "non-positive series period");
    require(s.samples <= info_.num_hostload_samples - sample_total,
            "series directory disagrees with sample count");
    sample_total += s.samples;
    series_.push_back(s);
  }
  require(sample_total == info_.num_hostload_samples,
          "series directory disagrees with sample count");

  const std::uint32_t num_chunks = footer.get_u32();
  require(num_chunks <= footer.remaining() / 71,
          "chunk directory longer than the footer");
  chunks_.reserve(num_chunks);
  for (std::uint32_t i = 0; i < num_chunks; ++i) {
    ChunkMeta c;
    const std::uint8_t section = footer.get_u8();
    require(section < kNumSections, "chunk section id out of range");
    c.section = static_cast<SectionId>(section);
    c.column = static_cast<ColumnId>(footer.get_u8());
    const std::uint8_t encoding = footer.get_u8();
    require(encoding <= static_cast<std::uint8_t>(Encoding::kDeltaVarint),
            "chunk encoding out of range");
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
  require(footer.exhausted(), "footer has trailing bytes");
  info_.num_chunks = chunks_.size();
  footer_offset_ = footer_offset;
}

void StoreReader::validate_chunks() {
  const std::string& path = file_.path();
  const std::uint64_t rows_of[kNumSections] = {
      info_.num_jobs, info_.num_tasks, info_.num_events, info_.num_machines,
      info_.num_hostload_samples};
  for (const ChunkMeta& c : chunks_) {
    const std::uint64_t section_rows =
        rows_of[static_cast<std::size_t>(c.section)];
    std::string reason;
    // Payloads must live in [header, footer).
    if (c.offset < kHeaderSize || c.offset > footer_offset_ ||
        c.payload_size > footer_offset_ - c.offset) {
      reason = "chunk payload out of bounds";
    } else if (c.row_count > section_rows ||
               c.row_begin > section_rows - c.row_count) {
      reason = "chunk rows exceed section size";
    } else if (c.encoding == Encoding::kRawF32) {
      // Divide rather than multiply: row_count comes from the file.
      if (c.payload_size % sizeof(float) != 0 ||
          c.payload_size / sizeof(float) != c.row_count) {
        reason = "raw f32 chunk payload size mismatch";
      } else if (c.offset % alignof(float) != 0) {
        reason = "raw f32 chunk misaligned";
      }
    } else if (c.encoding == Encoding::kRawU8 &&
               c.payload_size != c.row_count) {
      reason = "raw u8 chunk payload size mismatch";
    } else if (c.payload_size < c.row_count) {
      // A varint takes at least one byte per row.
      reason = "varint chunk payload shorter than its rows";
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
  if (schema::column_spec(chunk.section, chunk.column).event_type &&
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
  damage_.chunks.push_back(finding(chunk, reason));
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
  DamageReport report = damage();
  report.refused = refused_;
  return report;
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
  // cgc-lint: allow(input-check) caller precondition, not file input
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawF32,
                "f32_span() on a non-raw-f32 chunk");
  const auto bytes = payload(chunk);
  return {reinterpret_cast<const float*>(bytes.data()), chunk.row_count};
}

std::span<const std::uint8_t> StoreReader::u8_span(
    const ChunkMeta& chunk) const {
  // cgc-lint: allow(input-check) caller precondition, not file input
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawU8,
                "u8_span() on a non-raw-u8 chunk");
  return payload(chunk);
}

void StoreReader::decode_i64(const ChunkMeta& chunk,
                             std::vector<std::int64_t>* out) const {
  // cgc-lint: allow(input-check) caller precondition, not file input
  CGC_CHECK_MSG(chunk.encoding == Encoding::kVarint ||
                    chunk.encoding == Encoding::kDeltaVarint,
                "decode_i64() on a non-integer chunk");
  const bool metrics = obs::metrics_enabled();
  const std::uint64_t start = metrics ? obs::now_ns() : 0;
  const auto bytes = payload(chunk);
  try {
    decode_i64_column(bytes, chunk.row_count,
                      chunk.encoding == Encoding::kDeltaVarint, out);
  } catch (const util::DataError& e) {
    throw util::DataError(bad_file(file_.path(), e.what()));
  }
  if (metrics) {
    static obs::Counter& decoded = obs::counter("store.chunks_decoded");
    static obs::Histogram& decode_ns = obs::histogram("store.decode_ns");
    decoded.add(1);
    decode_ns.observe(obs::now_ns() - start);
  }
}

void StoreReader::index_row_groups() {
  std::map<std::uint64_t, RowGroup> by_row[2];  // tasks, events
  for (const ChunkMeta& c : chunks_) {
    const schema::ColumnSpec spec = schema::column_spec(c.section, c.column);
    const std::string name = column_name(c.section, c.column);
    if (!spec.listed) {
      refused_.push_back(finding(c, name + " is not in the schema"));
      continue;
    }
    if (spec.encoding != c.encoding) {
      refused_.push_back(
          finding(c, name + " has an encoding the schema does not give it"));
    }
    if (c.section == SectionId::kTasks || c.section == SectionId::kEvents) {
      RowGroup& g = by_row[c.section == SectionId::kEvents][c.row_begin];
      g.row_begin = c.row_begin;
      g.row_count = std::max(g.row_count, c.row_count);
      g.cols[static_cast<std::size_t>(c.column)] = &c;
    }
  }
  const auto check = [this]<typename Section>(
                         Section, const std::map<std::uint64_t, RowGroup>& in,
                         std::vector<RowGroup>* out) {
    for (const auto& [row, g] : in) {
      for (const ColumnId id : Section::ids) {
        const ChunkMeta* c = g.cols[static_cast<std::size_t>(id)];
        if (c == nullptr || c->row_count != g.row_count) {
          const ChunkMeta missing{.section = Section::id, .column = id,
                                  .row_begin = g.row_begin};
          refused_.push_back(finding(
              c != nullptr ? *c : missing,
              column_name(Section::id, id) + " does not span the " +
                  std::to_string(g.row_count) + "-row group at row " +
                  std::to_string(g.row_begin)));
        }
      }
      out->push_back(g);
    }
  };
  check(schema::Tasks{}, by_row[0], &task_groups_);
  check(schema::Events{}, by_row[1], &event_groups_);
}

void StoreReader::require_loadable() const {
  if (!refused_.empty()) {
    throw util::DataError(bad_file(file_.path(), refused_.front().reason));
  }
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

template <typename Section>
void StoreReader::decode_rows(const RowGroup& g,
                              typename Section::row* dst) const {
  Section::apply([&](auto... column) {
    // Braced initialization decodes the columns in schema order.
    const std::tuple columns{ColumnValues<decltype(column)>(
        *this, g.col(decltype(column)::id))...};
    std::apply(
        [&](const auto&... col) {
          for (std::size_t i = 0; i < g.row_count; ++i) {
            auto& row = dst[i];
            (col.put(row, i), ...);
          }
        },
        columns);
  });
}

trace::TraceSet StoreReader::load_trace_set() const {
  obs::ScopedTimer timer("store.load_trace_set");
  require_loadable();
  std::vector<trace::Job> jobs(info_.num_jobs);
  std::vector<trace::Task> tasks(info_.num_tasks);
  std::vector<trace::TaskEvent> events(info_.num_events);
  std::vector<trace::Machine> machines(info_.num_machines);
  std::vector<HostLoadSeries> host_load(series_.size());
  exec::parallel_for(0, series_.size(), [&](std::size_t si) {
    const SeriesMeta& meta = series_[si];
    host_load[si] = HostLoadSeries(meta.machine_id, meta.start, meta.period);
    host_load[si].resize(meta.samples);
  }, /*grain=*/1);

  // Tasks and events dominate the row count, so their chunks are
  // regrouped by row range and every destination struct is filled in a
  // single pass: one sweep of the section array per row group instead
  // of one per column. Groups cover disjoint row ranges, so the
  // fan-out stays race free. Degraded mode drops damaged groups whole
  // (drop_damaged); each leaves a hole in its own range, compacted out
  // after the parallel fill.
  const auto decode_section = [this]<typename Section>(
                                  Section, std::vector<typename Section::row>*
                                               rows) {
    const std::vector<RowGroup>& groups = row_groups(Section::id);
    util::Mutex lost_mutex;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lost;
    exec::parallel_for(0, groups.size(), [&](std::size_t gi) {
      const RowGroup& g = groups[gi];
      if (drop_damaged(g)) {
        util::MutexLock lock(lost_mutex);
        lost.emplace_back(g.row_begin, g.row_count);
        return;
      }
      decode_rows<Section>(g, rows->data() + g.row_begin);
    }, /*grain=*/1);
    // Compact the dropped row groups out, highest range first so
    // earlier offsets stay valid.
    std::sort(lost.begin(), lost.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [begin, count] : lost) {
      rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(begin),
                  rows->begin() + static_cast<std::ptrdiff_t>(begin + count));
    }
  };
  decode_section(schema::Tasks{}, &tasks);
  decode_section(schema::Events{}, &events);

  // The remaining sections are small (jobs, machines) or columnar
  // already (host load, straight into the series' sample columns), so
  // they decode chunk-wise. A damaged chunk here loses one column of a
  // row range, not the whole record: degraded mode leaves those values
  // at their defaults and accounts them, which keeps the host-load
  // series time grids intact.
  schema::HostLoadRows host_rows{std::span(host_load)};
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
    if (c.section == SectionId::kJobs) {
      scatter<schema::Jobs>(*this, c, jobs);
    } else if (c.section == SectionId::kMachines) {
      scatter<schema::Machines>(*this, c, machines);
    } else {
      scatter<schema::HostLoad>(*this, c, host_rows);
    }
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
  require_loadable();
  const std::vector<RowGroup>& groups = row_groups(SectionId::kEvents);
  ScanStats stats;
  stats.row_groups_total = groups.size();

  // Zone-map pushdown: a group survives only if its time and job_id
  // ranges can intersect the predicate's bounds.
  std::vector<const RowGroup*> survivors;
  for (const RowGroup& g : groups) {
    const ChunkMeta& time = g.col(ColumnId::kTime);
    const ChunkMeta& job_id = g.col(ColumnId::kJobId);
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
    decode_rows<schema::Events>(g, out.data());
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
