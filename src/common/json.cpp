#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace co {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " +
                           std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail(pos_, "bad literal");
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
            unsigned code = 0;
            const auto res = std::from_chars(text_.data() + pos_,
                                             text_.data() + pos_ + 4, code, 16);
            if (res.ptr != text_.data() + pos_ + 4)
              fail(pos_, "bad \\u escape");
            if (code > 0x7f) fail(pos_, "non-ASCII \\u escape unsupported");
            out.push_back(static_cast<char>(code));
            pos_ += 4;
            break;
          }
          default: fail(pos_ - 1, "bad escape");
        }
        continue;
      }
      out.push_back(c);
    }
  }

  Json number() {
    const std::size_t start = pos_;
    const bool negative = peek() == '-';
    if (negative) ++pos_;
    bool is_real = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_real = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail(start, "bad number");
    if (!is_real) {
      if (negative) {
        std::int64_t i = 0;
        const auto res =
            std::from_chars(tok.data(), tok.data() + tok.size(), i);
        if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
          return Json(i);
      } else {
        std::uint64_t u = 0;
        const auto res =
            std::from_chars(tok.data(), tok.data() + tok.size(), u);
        if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
          return Json(u);
      }
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
      fail(start, "bad number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void escape_to(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).document(); }

namespace {
void dump_to(std::ostream& os, const Json& v, int indent, int depth);

void newline(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

void dump_to(std::ostream& os, const Json& v, int indent, int depth) {
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_string()) {
    escape_to(os, v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) os << ',';
      newline(os, indent, depth + 1);
      dump_to(os, arr[i], indent, depth + 1);
    }
    newline(os, indent, depth);
    os << ']';
  } else if (v.is_object()) {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [key, val] : obj) {
      if (!first) os << ',';
      first = false;
      newline(os, indent, depth + 1);
      escape_to(os, key);
      os << ':';
      if (indent > 0) os << ' ';
      dump_to(os, val, indent, depth + 1);
    }
    newline(os, indent, depth);
    os << '}';
  } else {
    // Numbers: emit integers exactly; doubles with max_digits10 precision.
    os << v.dump_number();
  }
}
}  // namespace

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump_to(os, *this, indent, 0);
  return os.str();
}

std::string Json::dump_number() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_))
    return std::to_string(*u);
  if (const auto* i = std::get_if<std::int64_t>(&v_))
    return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v_)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    return buf;
  }
  throw std::runtime_error("json: not a number");
}

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  throw std::runtime_error("json: not a bool");
}

std::uint64_t Json::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    if (*i >= 0) return static_cast<std::uint64_t>(*i);
  }
  throw std::runtime_error("json: not a u64");
}

std::int64_t Json::as_i64() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) {
    if (*u <= static_cast<std::uint64_t>(INT64_MAX))
      return static_cast<std::int64_t>(*u);
  }
  throw std::runtime_error("json: not an i64");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(&v_))
    return static_cast<double>(*u);
  if (const auto* i = std::get_if<std::int64_t>(&v_))
    return static_cast<double>(*i);
  throw std::runtime_error("json: not a number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  throw std::runtime_error("json: not a string");
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  throw std::runtime_error("json: not an array");
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  throw std::runtime_error("json: not an object");
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::runtime_error("json: missing key " + key);
  return it->second;
}

bool Json::has(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().contains(key);
}

}  // namespace co
