// On-disk layout of the CGCS columnar trace store ("Cloud/Grid
// Characterization Store"). One .cgcs file persists a finalized
// trace::TraceSet so analysis pipelines start from an mmap instead of a
// multi-gigabyte text parse.
//
// File layout (all integers little-endian):
//
//   [header  16 B]  magic "CGCS" | u32 format_version | u32 flags (0) |
//                   u32 reserved (0)
//   [chunk payloads ...]  each 8-byte aligned, back to back
//   [footer]        directory: trace metadata, host-load series
//                   directory, chunk directory (see store/schema.hpp)
//   [trailer 16 B]  u64 footer_offset | u32 footer_crc32 | magic "SGCE"
//
// Data is split into five row sections (jobs, tasks, events, machines,
// flattened host-load samples); each section's rows are cut into row
// groups of ChunkOptions::rows_per_chunk, and every column of a row
// group is one independently encoded chunk with its own CRC-32 and zone
// map (min/max over the rows). Sorted integer columns use
// delta+varint; other integers use zigzag varint; floats and byte
// columns are raw little-endian arrays, which the mmap reader exposes
// as zero-copy spans.
//
// Which columns each section holds, in which order and with which
// encoding, is the column schema in store/schema.hpp — the one place
// the layout lives; the writer and the reader are both driven by it.
//
// Versioning rules: format_version bumps on any layout change a v(N-1)
// reader cannot parse; readers reject files with a different major
// version outright (no silent partial reads). New trailing footer
// fields may be added within a version only if readers tolerate
// `remaining() > 0` after parsing — the current reader does not, so any
// change bumps the version.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace cgc::store {

inline constexpr std::string_view kMagic = "CGCS";      ///< file start
inline constexpr std::string_view kEndMagic = "SGCE";   ///< file end
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTrailerSize = 16;
inline constexpr std::size_t kChunkAlignment = 8;

/// Row sections of the store. Order is also the footer directory order.
enum class SectionId : std::uint8_t {
  kJobs = 0,
  kTasks = 1,
  kEvents = 2,
  kMachines = 3,
  kHostLoad = 4,  ///< flattened samples, series-major (see footer dir)
};
inline constexpr std::size_t kNumSections = 5;

std::string_view section_name(SectionId s);

/// Column ids are stable on-disk ids; a section may reuse another's id
/// for the same field (store/schema.hpp lists each section's columns).
enum class ColumnId : std::uint8_t {
  kJobId = 0,
  kUserId = 1,
  kPriority = 2,
  kSubmitTime = 3,
  kEndTime = 4,
  kNumTasks = 5,
  kCpuParallelism = 6,
  kMemUsage = 7,
  kTaskIndex = 8,
  kScheduleTime = 9,
  kEndEvent = 10,
  kMachineId = 11,
  kResubmits = 12,
  kCpuRequest = 13,
  kMemRequest = 14,
  kCpuUsage = 15,
  kTime = 16,
  kEventType = 17,
  kCpuCapacity = 18,
  kMemCapacity = 19,
  kPageCacheCapacity = 20,
  kAttributes = 21,
  kCpuLow = 22,
  kCpuMid = 23,
  kCpuHigh = 24,
  kMemLow = 25,
  kMemMid = 26,
  kMemHigh = 27,
  kMemAssigned = 28,
  kPageCache = 29,
  kRunning = 30,
  kPending = 31,
};

/// One past the largest ColumnId value; sizes lookup tables keyed by
/// column id.
inline constexpr std::size_t kNumColumnIds = 32;

/// How a chunk's payload bytes encode its rows.
enum class Encoding : std::uint8_t {
  kRawU8 = 0,        ///< one byte per row (enums, priorities, flags)
  kRawF32 = 1,       ///< little-endian float array; zero-copy on mmap
  kVarint = 2,       ///< zigzag varint per row
  kDeltaVarint = 3,  ///< zigzag varint of delta vs previous row
};

/// Footer directory entry for one chunk. The zone map carries min/max
/// over the chunk's rows — integer bounds for integer encodings, real
/// bounds for kRawF32 — enabling predicate pushdown (skip a chunk when
/// its range cannot intersect the predicate).
struct ChunkMeta {
  SectionId section = SectionId::kJobs;
  ColumnId column = ColumnId::kJobId;
  Encoding encoding = Encoding::kVarint;
  std::uint64_t offset = 0;        ///< absolute file offset of payload
  std::uint64_t payload_size = 0;  ///< bytes
  std::uint64_t row_begin = 0;     ///< first row index within the section
  std::uint64_t row_count = 0;
  std::int64_t int_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t int_max = std::numeric_limits<std::int64_t>::min();
  double real_min = std::numeric_limits<double>::infinity();
  double real_max = -std::numeric_limits<double>::infinity();
  std::uint32_t crc = 0;
};

/// Writer knobs.
struct ChunkOptions {
  /// Rows per row group. 64Ki keeps chunk decode state L2-resident while
  /// giving the scheduler enough chunks to fan out at month scale.
  std::size_t rows_per_chunk = 64 * 1024;
};

}  // namespace cgc::store
