// CGCS writer: serializes a trace::TraceSet into the chunked columnar
// binary layout described in cgcs_format.hpp.
//
// The writer walks each section's column list in store/schema.hpp: a
// column's rows are cut into row groups, each group is gathered into a
// scratch buffer, encoded as the schema says (delta+varint for sorted
// ids/timestamps, zigzag varint for other integers, raw little-endian
// for floats and bytes), CRC-32'd, zone-mapped, and appended 8-byte
// aligned. All metadata lands in the footer directory so the reader
// never touches payload bytes it does not need.
#pragma once

#include <string>

#include "store/cgcs_format.hpp"
#include "trace/trace_set.hpp"

namespace cgc::store {

struct WriteOptions {
  ChunkOptions chunks;
};

/// Writes `trace` to `path` (overwriting). Throws
/// cgc::util::TransientError naming the path when the file cannot be
/// opened or a write to it fails. The trace does not need to be
/// finalized, but writing a finalized trace maximizes delta-encoding
/// wins (events time-sorted, tasks job-sorted).
void write_cgcs(const trace::TraceSet& trace, const std::string& path,
                const WriteOptions& options = {});

}  // namespace cgc::store
