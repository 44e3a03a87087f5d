// util::json — the one JSON string escaper and the one JSON reader.
//
// Writers print their JSON by hand, because their bytes are pinned,
// and escape strings with escape(). parse() is a strict reader for what
// those writers emit — objects, arrays, booleans, numbers, and strings
// with escape()'s escapes; no null, no \u beyond 0x7f. It never throws:
// a torn, foreign or over-deep document yields no value, which the
// checkpoint readers report as kCorrupt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cgc::util::json {

/// Escapes `s` for use between JSON double quotes: `"` and `\` get a
/// backslash, newline and tab become \n and \t, other bytes below 0x20
/// become \u00xx, and every other byte passes through unchanged.
std::string escape(std::string_view s);

/// One parsed JSON value. Numbers keep their source text so integers
/// above 2^53 and %.17g doubles convert back exactly.
struct Value {
  /// Which JSON type the value holds.
  enum class Kind { kBool, kNumber, kString, kArray, kObject };
  /// The value's type.
  Kind kind = Kind::kBool;
  /// The value of a kBool.
  bool boolean = false;
  /// A kString's decoded bytes, or a kNumber's source text.
  std::string text;
  /// Member names of a kObject, in document order (parallel to items).
  std::vector<std::string> keys;
  /// Elements of a kArray, or member values of a kObject.
  std::vector<Value> items;

  /// The first member named `key` of a kObject; nullptr if absent or
  /// if this is not an object.
  const Value* find(std::string_view key) const;
  /// Reads member `key` into `*out`, for T = std::string, bool,
  /// double, std::uint32_t, std::uint64_t or int. Returns false, leaving `*out`
  /// untouched, when the member is absent, has another type, or is a
  /// number that T cannot hold exactly (integers must be plain digits).
  template <typename T>
  bool get(std::string_view key, T* out) const;
};

/// Parses one complete JSON document (surrounding whitespace allowed).
/// Returns no value on any syntax error, on truncation, on trailing
/// bytes, or when arrays/objects nest deeper than a fixed limit.
std::optional<Value> parse(std::string_view text);

}  // namespace cgc::util::json
