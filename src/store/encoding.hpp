// Byte-level encoding primitives for the CGCS columnar trace store.
//
// Integer columns are stored as LEB128 varints with zigzag mapping for
// signed values; sorted columns (event times, task job_ids) additionally
// delta-encode against the previous row, which collapses month-long
// monotone series to ~1 byte/row. Chunk payloads and the footer are
// protected by CRC-32 (the ubiquitous reflected 0xEDB88320 polynomial).
// BufferWriter/BufferReader serialize the footer directory with
// bounds-checked reads so a truncated or corrupted file surfaces as a
// clean cgc::util::DataError, never as out-of-bounds access.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cgc::store {

// ---------------------------------------------------------------------------
// Varint / zigzag / delta
// ---------------------------------------------------------------------------

/// Maps signed to unsigned so small-magnitude values (of either sign)
/// encode in few varint bytes: 0,-1,1,-2 -> 0,1,2,3.
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Appends `v` to `out` as a LEB128 varint (7 bits per byte, high bit =
/// continuation); at most 10 bytes.
void put_varint(std::uint64_t v, std::vector<std::uint8_t>* out);

/// Encodes `values` as zigzag varints, optionally delta-encoding each
/// value against its predecessor (first value is stored as-is).
void encode_i64_column(std::span<const std::int64_t> values, bool delta,
                       std::vector<std::uint8_t>* out);

/// Decodes exactly `count` values produced by encode_i64_column; throws
/// cgc::util::DataError (the reason only) if `bytes` is malformed or
/// too short.
void decode_i64_column(std::span<const std::uint8_t> bytes, std::size_t count,
                       bool delta, std::vector<std::int64_t>* out);

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 (reflected, polynomial 0xEDB88320, init/final xor 0xFFFFFFFF).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Footer serialization
// ---------------------------------------------------------------------------

/// Little-endian append-only buffer used to build the footer.
class BufferWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  /// Length-prefixed (u32) string.
  void put_string(std::string_view s);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a footer byte range. Every
/// read past the end throws cgc::util::DataError (clean rejection of
/// short or corrupted footers).
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_string();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace cgc::store
