#include "voprof/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through verbatim
        }
    }
  }
  out += '"';
}

/// Fold the repeated keys of a parsed object the way Json::set does: a
/// key keeps its first position and takes its last value. Hashed past
/// a handful of members, so many keys cost no more than their bytes.
void fold_repeated_keys(Json::Object& members) {
  const bool hashed = members.size() > 16;
  std::unordered_map<std::string_view, std::size_t> first;
  std::vector<bool> repeated;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::size_t at =
        hashed ? first.try_emplace(members[i].first, i).first->second : i;
    for (std::size_t j = 0; !hashed && j < i && at == i; ++j) {
      if (members[j].first == members[i].first) at = j;
    }
    if (at == i) continue;
    members[at].second = std::move(members[i].second);
    repeated.resize(members.size());
    repeated[i] = true;
  }
  if (repeated.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (repeated[i]) continue;
    if (kept != i) members[kept] = std::move(members[i]);
    ++kept;
  }
  members.resize(kept);
}

/// Recursive-descent parser over a string_view with a cursor. Each
/// step returns false after recording the first error, so a malformed
/// document unwinds without an exception.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> run() {
    Json v;
    if (!value(v, 0)) return error_;
    skip_space();
    if (pos_ == text_.size()) return v;
    fail("trailing characters", pos_);
    return error_;
  }

 private:
  /// Record the error; false, so a step can `return fail(...)`.
  bool fail(std::string what, std::size_t offset) {
    error_ = Error{Errc::kParse, std::move(what),
                   "byte " + std::to_string(offset)};
    return false;
  }

  void skip_space() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }

  bool expect(char c) {
    if (at_end()) return fail("unexpected end of input", pos_);
    if (text_[pos_] != c) {
      return fail(std::string("expected '") + c + "', got '" + text_[pos_] +
                      "'",
                  pos_);
    }
    ++pos_;
    return true;
  }

  /// After an element: ',' means another follows, `close` ends the
  /// container (`done`).
  bool next_or_close(char close, bool& done) {
    skip_space();
    if (at_end()) return fail("unexpected end of input", pos_);
    const char c = text_[pos_++];
    done = c == close;
    if (done || c == ',') return true;
    return fail(std::string("expected ',' or '") + close + "'", pos_ - 1);
  }

  bool literal(std::string_view lit, Json v, Json& out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return fail("invalid literal", pos_);
    }
    pos_ += lit.size();
    out = std::move(v);
    return true;
  }

  /// `depth` counts the arrays and objects that enclose this value.
  bool value(Json& out, int depth) {
    skip_space();
    if (at_end()) return fail("unexpected end of input", pos_);
    switch (text_[pos_]) {
      case '{':
        return container(out, depth, '}');
      case '[':
        return container(out, depth, ']');
      case '"': {
        std::string s;
        if (!string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't':
        return literal("true", Json(true), out);
      case 'f':
        return literal("false", Json(false), out);
      case 'n':
        return literal("null", Json(nullptr), out);
      default:
        return number(out);
    }
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double v = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || end != last || first == last) {
      return fail("malformed number", start);
    }
    out = Json(v);
    return true;
  }

  bool string(std::string& out) {
    if (!expect('"')) return false;
    for (;;) {
      if (at_end()) return fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return fail("raw control character in string", pos_ - 1);
        }
        out += c;
        continue;
      }
      if (at_end()) return fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      constexpr std::string_view kEscaped = "\"\\/ntrbf";
      constexpr std::string_view kMeant = "\"\\/\n\t\r\b\f";
      if (const std::size_t k = kEscaped.find(e); k != std::string_view::npos) {
        out += kMeant[k];
        continue;
      }
      if (e != 'u') return fail("unknown escape", pos_ - 1);
      if (pos_ + 4 > text_.size()) return fail("truncated \\u escape", pos_);
      unsigned cp = 0;
      const char* first = text_.data() + pos_;
      const auto [end, ec] = std::from_chars(first, first + 4, cp, 16);
      if (ec != std::errc{} || end != first + 4) {
        return fail("malformed \\u escape", pos_);
      }
      pos_ += 4;
      // Encode the code point as UTF-8 (surrogate pairs are passed
      // through as two 3-byte sequences; the harness never emits them,
      // this is read-side tolerance only).
      if (cp < 0x80) {
        out += static_cast<char>(cp);
      } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      }
    }
  }

  /// An array (`close` is ']') or an object (`close` is '}').
  bool container(Json& out, int depth, char close) {
    if (depth == Json::kMaxDepth) {
      return fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
                      " levels",
                  pos_);
    }
    ++pos_;  // the opening bracket
    Json::Array items;
    Json::Object members;
    skip_space();
    bool done = !at_end() && text_[pos_] == close;
    if (done) ++pos_;
    while (!done) {
      Json item;
      if (close == ']') {
        if (!value(item, depth + 1)) return false;
        items.push_back(std::move(item));
      } else {
        skip_space();
        std::string key;
        if (!string(key)) return false;
        skip_space();
        if (!expect(':') || !value(item, depth + 1)) return false;
        members.emplace_back(std::move(key), std::move(item));
      }
      if (!next_or_close(close, done)) return false;
    }
    if (close == ']') {
      out = Json(std::move(items));
    } else {
      fold_repeated_keys(members);
      out = Json(std::move(members));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Error error_;
};

}  // namespace

bool Json::as_bool() const {
  VOPROF_REQUIRE(type_ == Type::kBool);
  return bool_;
}

double Json::as_number() const {
  VOPROF_REQUIRE(type_ == Type::kNumber);
  return num_;
}

const std::string& Json::as_string() const {
  VOPROF_REQUIRE(type_ == Type::kString);
  return str_;
}

const Json::Array& Json::as_array() const {
  VOPROF_REQUIRE(type_ == Type::kArray);
  return arr_;
}

const Json::Object& Json::as_object() const {
  VOPROF_REQUIRE(type_ == Type::kObject);
  return obj_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  VOPROF_REQUIRE_MSG(v != nullptr,
                     "JSON object has no key \"" + std::string(key) + '"');
  return *v;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_number() : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_string() : std::move(fallback);
}

void Json::push_back(Json v) {
  VOPROF_REQUIRE(type_ == Type::kArray);
  arr_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  VOPROF_REQUIRE(type_ == Type::kObject);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&out, indent](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      // JSON has no literal for non-finite numbers; emit null so the
      // document stays parseable everywhere.
      out += std::isfinite(num_) ? format_double(num_) : "null";
      return;
    case Type::kString:
      write_escaped(out, str_);
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        arr_[i].write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        write_escaped(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

Result<Json> Json::parse_result(std::string_view text) {
  return Parser(text).run();
}

}  // namespace voprof::util
