#include "store/writer.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <type_traits>
#include <vector>

#include "store/encoding.hpp"
#include "store/schema.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace cgc::store {

static_assert(std::endian::native == std::endian::little,
              "CGCS raw columns assume a little-endian host");

namespace {

using trace::HostLoadSeries;
using trace::TraceSet;

/// Appends column `Col` of rows [lo, hi) to `out`.
template <typename Col, typename Row>
void gather(std::span<const Row> rows, std::size_t lo, std::size_t hi,
            std::vector<typename Col::stored>* out) {
  for (std::size_t i = lo; i < hi; ++i) {
    out->push_back(
        static_cast<typename Col::stored>(Col::field::of(rows[i])));
  }
}

template <typename Col>
void gather(const schema::HostLoadRows<const HostLoadSeries>& rows,
            std::size_t lo, std::size_t hi,
            std::vector<typename Col::stored>* out) {
  rows.for_each_slice(lo, hi, [&](const HostLoadSeries& series,
                                  std::size_t first, std::size_t count) {
    const auto samples = Col::field::of(series).subspan(first, count);
    out->insert(out->end(), samples.begin(), samples.end());
  });
}

/// Serializes chunks sequentially and accumulates the directory.
class FileBuilder {
 public:
  FileBuilder(const std::string& path, ChunkOptions chunk_options)
      : path_(path),
        out_(path, std::ios::binary),
        chunk_options_(chunk_options) {
    if (!out_.good()) {
      util::close_or_throw(out_, path_);
    }
    // Header: magic | version | flags | reserved. Everything goes
    // through write_bytes so offset_ tracks the true file position.
    write_bytes({reinterpret_cast<const std::uint8_t*>(kMagic.data()), 4});
    BufferWriter header;
    header.put_u32(kFormatVersion);
    header.put_u32(0);
    header.put_u32(0);
    write_bytes(header.bytes());
  }

  /// Writes every column of `Section` over `rows`, in schema order.
  template <typename Section, typename Rows>
  void add_section(const Rows& rows) {
    Section::apply([&](auto... column) {
      (add_column<decltype(column)>(Section::id, rows), ...);
    });
  }

  /// One chunk per row group of column `Col`: gathered, zone-mapped,
  /// encoded as the schema says, and appended.
  template <typename Col, typename Rows>
  void add_column(SectionId section, const Rows& rows) {
    using T = typename Col::stored;
    std::vector<T> scratch;
    std::vector<std::uint8_t> payload;
    const std::size_t n = rows.size();
    for (std::size_t lo = 0; lo < n; lo += chunk_options_.rows_per_chunk) {
      const std::size_t hi = std::min(n, lo + chunk_options_.rows_per_chunk);
      scratch.clear();
      scratch.reserve(hi - lo);
      gather<Col>(rows, lo, hi, &scratch);
      ChunkMeta meta;
      meta.section = section;
      meta.column = Col::id;
      meta.encoding = Col::encoding;
      meta.row_begin = lo;
      meta.row_count = hi - lo;
      for (const T v : scratch) {
        if constexpr (std::is_same_v<T, float>) {
          meta.real_min = std::min(meta.real_min, static_cast<double>(v));
          meta.real_max = std::max(meta.real_max, static_cast<double>(v));
        } else {
          meta.int_min = std::min<std::int64_t>(meta.int_min, v);
          meta.int_max = std::max<std::int64_t>(meta.int_max, v);
        }
      }
      if constexpr (std::is_same_v<T, std::int64_t>) {
        payload.clear();
        encode_i64_column(scratch, Col::encoding == Encoding::kDeltaVarint,
                          &payload);
        append_chunk(meta, payload);
      } else {
        append_chunk(meta, {reinterpret_cast<const std::uint8_t*>(
                                scratch.data()),
                            scratch.size() * sizeof(T)});
      }
    }
  }

  /// Writes the footer + trailer. Call exactly once, last.
  void finish(const TraceSet& trace, std::size_t num_hostload_samples) {
    const std::uint64_t footer_offset = offset_;
    BufferWriter footer;
    footer.put_u32(kFormatVersion);
    footer.put_string(trace.system_name());
    footer.put_i64(trace.duration());
    footer.put_u8(trace.memory_in_mb() ? 1 : 0);
    footer.put_u64(trace.jobs().size());
    footer.put_u64(trace.tasks().size());
    footer.put_u64(trace.events().size());
    footer.put_u64(trace.machines().size());
    footer.put_u64(num_hostload_samples);
    // Host-load series directory: samples are flattened series-major, so
    // (machine_id, start, period, count) reconstructs every series.
    footer.put_u64(trace.host_load().size());
    for (const HostLoadSeries& h : trace.host_load()) {
      footer.put_i64(h.machine_id());
      footer.put_i64(h.start());
      footer.put_i64(h.period());
      footer.put_u64(h.size());
    }
    // Chunk directory.
    footer.put_u32(static_cast<std::uint32_t>(chunks_.size()));
    for (const ChunkMeta& c : chunks_) {
      footer.put_u8(static_cast<std::uint8_t>(c.section));
      footer.put_u8(static_cast<std::uint8_t>(c.column));
      footer.put_u8(static_cast<std::uint8_t>(c.encoding));
      footer.put_u64(c.offset);
      footer.put_u64(c.payload_size);
      footer.put_u64(c.row_begin);
      footer.put_u64(c.row_count);
      footer.put_i64(c.int_min);
      footer.put_i64(c.int_max);
      footer.put_f64(c.real_min);
      footer.put_f64(c.real_max);
      footer.put_u32(c.crc);
    }
    write_bytes(footer.bytes());

    BufferWriter trailer;
    trailer.put_u64(footer_offset);
    trailer.put_u32(crc32(footer.bytes()));
    write_bytes(trailer.bytes());
    write_bytes(
        {reinterpret_cast<const std::uint8_t*>(kEndMagic.data()), 4});
    util::close_or_throw(out_, path_);
  }

 private:
  void append_chunk(ChunkMeta meta, std::span<const std::uint8_t> payload) {
    // Pad so every chunk starts 8-byte aligned (raw f32 spans need it).
    static constexpr std::uint8_t kZeros[kChunkAlignment] = {};
    const std::size_t misalign = offset_ % kChunkAlignment;
    if (misalign != 0) {
      write_bytes({kZeros, kChunkAlignment - misalign});
    }
    meta.offset = offset_;
    meta.payload_size = payload.size();
    meta.crc = crc32(payload);
    write_bytes(payload);
    chunks_.push_back(meta);
  }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    offset_ += bytes.size();
  }

  std::string path_;
  std::ofstream out_;
  ChunkOptions chunk_options_;
  std::uint64_t offset_ = 0;
  std::vector<ChunkMeta> chunks_;
};

}  // namespace

void write_cgcs(const trace::TraceSet& trace, const std::string& path,
                const WriteOptions& options) {
  CGC_CHECK_MSG(options.chunks.rows_per_chunk > 0,
                "rows_per_chunk must be positive");
  FileBuilder file(path, options.chunks);
  file.add_section<schema::Jobs>(trace.jobs());
  file.add_section<schema::Tasks>(trace.tasks());
  file.add_section<schema::Events>(trace.events());
  file.add_section<schema::Machines>(trace.machines());
  const schema::HostLoadRows host_load(trace.host_load());
  file.add_section<schema::HostLoad>(host_load);
  file.finish(trace, host_load.size());
}

}  // namespace cgc::store
