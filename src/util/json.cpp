#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <type_traits>

namespace cgc::util::json {

namespace {

/// Deeper nesting than any writer emits is treated as damage, which
/// also bounds the parser's recursion on hostile input.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  std::optional<Value> document() {
    Value root;
    skip_ws();
    if (!value(&root, 0)) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      return std::nullopt;
    }
    return root;
  }

 private:
  /// The next byte, or '\0' at the end of the input.
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (peek() == ' ' || peek() == '\n' || peek() == '\t' ||
           peek() == '\r') {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool value(Value* out, int depth) {
    switch (peek()) {
      case '{':
      case '[':
        return container(out, depth + 1, peek() == '{');
      case '"':
        out->kind = Value::Kind::kString;
        return string(&out->text);
      case 't':
      case 'f': {
        out->kind = Value::Kind::kBool;
        out->boolean = peek() == 't';
        const std::string_view word = out->boolean ? "true" : "false";
        const bool match = s_.substr(pos_, word.size()) == word;
        pos_ += word.size();
        return match;
      }
      default:
        out->kind = Value::Kind::kNumber;
        return number(&out->text);
    }
  }

  /// An array, or with `keyed` an object; `pos_` is at its opening
  /// bracket.
  bool container(Value* out, int depth, bool keyed) {
    if (depth > kMaxDepth) {
      return false;
    }
    out->kind = keyed ? Value::Kind::kObject : Value::Kind::kArray;
    const char close = keyed ? '}' : ']';
    ++pos_;
    skip_ws();
    if (eat(close)) {
      return true;
    }
    do {
      skip_ws();
      if (keyed) {
        out->keys.emplace_back();
        if (!string(&out->keys.back())) {
          return false;
        }
        skip_ws();
        if (!eat(':')) {
          return false;
        }
        skip_ws();
      }
      out->items.emplace_back();
      if (!value(&out->items.back(), depth)) {
        return false;
      }
      skip_ws();
    } while (eat(','));
    return eat(close);
  }

  bool string(std::string* out) {
    if (!eat('"')) {
      return false;
    }
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // escape() never emits a raw control byte
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      const char e = peek();  // '\0' (rejected below) at the end
      ++pos_;
      if (e == '"' || e == '\\') {
        out->push_back(e);
      } else if (e == 'n' || e == 't') {
        out->push_back(e == 'n' ? '\n' : '\t');
      } else {
        // \u00xx is the only other escape escape() emits.
        unsigned code = 0;
        const char* first = s_.data() + pos_;
        if (e != 'u' || s_.size() - pos_ < 4 ||
            std::from_chars(first, first + 4, code, 16).ptr != first + 4 ||
            code >= 0x80) {
          return false;
        }
        out->push_back(static_cast<char>(code));
        pos_ += 4;
      }
    }
    return false;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (peek() >= '0' && peek() <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  bool number(std::string* out) {
    const std::size_t start = pos_;
    eat('-');
    if (!digits() || (eat('.') && !digits())) {
      return false;
    }
    if (eat('e') || eat('E')) {
      if (!eat('+')) {
        eat('-');
      }
      if (!digits()) {
        return false;
      }
    }
    out->assign(s_.substr(start, pos_ - start));
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) {
      return &items[i];
    }
  }
  return nullptr;
}

template <typename T>
bool Value::get(std::string_view key, T* out) const {
  const Value* v = find(key);
  if constexpr (std::is_same_v<T, std::string>) {
    if (v == nullptr || v->kind != Kind::kString) {
      return false;
    }
    *out = v->text;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v == nullptr || v->kind != Kind::kBool) {
      return false;
    }
    *out = v->boolean;
  } else {
    if (v == nullptr || v->kind != Kind::kNumber) {
      return false;
    }
    T parsed{};
    const char* end = v->text.data() + v->text.size();
    const auto [ptr, ec] = std::from_chars(v->text.data(), end, parsed);
    if (ec != std::errc() || ptr != end) {
      return false;
    }
    *out = parsed;
  }
  return true;
}

template bool Value::get(std::string_view, std::string*) const;
template bool Value::get(std::string_view, bool*) const;
template bool Value::get(std::string_view, double*) const;
template bool Value::get(std::string_view, std::uint32_t*) const;
template bool Value::get(std::string_view, std::uint64_t*) const;
template bool Value::get(std::string_view, int*) const;

std::optional<Value> parse(std::string_view text) {
  return Parser(text).document();
}

}  // namespace cgc::util::json
