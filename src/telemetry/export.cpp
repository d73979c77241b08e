#include "telemetry/export.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace cgp::telemetry {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const json_value& json_value::at(const std::string& key) const {
  if (k != kind::object) throw json_error("at(): not a JSON object");
  const auto it = obj.find(key);
  if (it == obj.end()) throw json_error("at(): missing key '" + key + "'");
  return it->second;
}

bool json_value::has(const std::string& key) const noexcept {
  return k == kind::object && obj.contains(key);
}

namespace {

class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  json_value parse_document() {
    json_value v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      throw json_error("trailing garbage at offset " + std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw json_error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw json_error(std::string("expected '") + c + "' at offset " +
                       std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  json_value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth)
        throw json_error("nesting deeper than " +
                         std::to_string(kMaxJsonDepth) + " levels at offset " +
                         std::to_string(pos_));
      ++depth_;
      json_value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return json_string(parse_string());
    if (consume_literal("true")) return json_bool(true);
    if (consume_literal("false")) return json_bool(false);
    if (consume_literal("null")) return {};
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) throw json_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) throw json_error("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw json_error("bad \\u escape");
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ + 4)
            throw json_error("bad \\u escape");
          pos_ += 4;
          // Telemetry names are ASCII; decode BMP code points to UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          throw json_error(std::string("unknown escape \\") + esc);
      }
    }
  }

  json_value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start)
      throw json_error("expected a value at offset " + std::to_string(start));
    json_value v = json_number(0.0);
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.num);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_)
      throw json_error("bad number at offset " + std::to_string(start));
    return v;
  }

  json_value parse_array() {
    expect('[');
    json_value v = json_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') throw json_error("expected ',' or ']' in array");
    }
  }

  json_value parse_object() {
    expect('{');
    json_value v = json_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') throw json_error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

json_value parse_json(std::string_view text) {
  return parser(text).parse_document();
}

namespace {

void dump_to(const json_value& v, std::string* out) {
  switch (v.k) {
    case json_value::kind::null:
      *out += "null";
      break;
    case json_value::kind::boolean:
      *out += v.b ? "true" : "false";
      break;
    case json_value::kind::number:
      *out += json_number_text(v.num);
      break;
    case json_value::kind::string:
      *out += json_quote(v.str);
      break;
    case json_value::kind::array: {
      *out += '[';
      bool first = true;
      for (const json_value& e : v.arr) {
        if (!first) *out += ',';
        first = false;
        dump_to(e, out);
      }
      *out += ']';
      break;
    }
    case json_value::kind::object: {
      *out += '{';
      bool first = true;
      for (const auto& [key, val] : v.obj) {
        if (!first) *out += ',';
        first = false;
        *out += json_quote(key);
        *out += ':';
        dump_to(val, out);
      }
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::string dump_json(const json_value& v) {
  std::string out;
  dump_to(v, &out);
  return out;
}

std::string json_number_text(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/inf
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, res.ptr};
}

json_value json_number(double v) {
  json_value j;
  j.k = json_value::kind::number;
  j.num = v;
  return j;
}

json_value json_string(std::string s) {
  json_value j;
  j.k = json_value::kind::string;
  j.str = std::move(s);
  return j;
}

json_value json_bool(bool b) {
  json_value j;
  j.k = json_value::kind::boolean;
  j.b = b;
  return j;
}

json_value json_object() {
  json_value j;
  j.k = json_value::kind::object;
  return j;
}

json_value json_array() {
  json_value j;
  j.k = json_value::kind::array;
  return j;
}

json_value json_document(std::string schema) {
  json_value doc = json_object();
  doc.obj["schema"] = json_string(std::move(schema));
  return doc;
}

void validation::fail(std::string msg) {
  ok = false;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(msg));
}

std::string validation::error_text() const {
  std::string out;
  for (const std::string& e : errors) {
    out += e;
    out += '\n';
  }
  return out;
}

bool validation::schema_field(const json_value& doc, const std::string& want) {
  if (doc.has("schema") && doc.at("schema").is(json_value::kind::string) &&
      doc.at("schema").str == want)
    return true;
  fail("document is not a " + want + " document");
  return false;
}

bool validation::num_field(const json_value& v, const std::string& key,
                           const std::string& where, double& dst) {
  if (!v.has(key) || !v.at(key).is(json_value::kind::number)) {
    fail(where + ": missing numeric '" + key + "'");
    return false;
  }
  dst = v.at(key).num;
  return true;
}

bool validation::u64_field(const json_value& v, const std::string& key,
                           const std::string& where, std::uint64_t& dst) {
  double d = 0.0;
  if (!num_field(v, key, where, d)) return false;
  if (d < 0.0) {
    fail(where + ": negative '" + key + "'");
    return false;
  }
  if (d >= 0x1p64) {  // the cast below would be undefined
    fail(where + ": '" + key + "' exceeds 2^64");
    return false;
  }
  dst = static_cast<std::uint64_t>(d);
  return true;
}

bool validation::str_field(const json_value& v, const std::string& key,
                           const std::string& where, std::string& dst) {
  if (!v.has(key) || !v.at(key).is(json_value::kind::string)) {
    fail(where + ": missing string '" + key + "'");
    return false;
  }
  dst = v.at(key).str;
  return true;
}

const json_value* validation::arr_field(const json_value& v,
                                        const std::string& key,
                                        const std::string& where) {
  if (v.has(key) && v.at(key).is(json_value::kind::array)) return &v.at(key);
  fail(where + ": missing array '" + key + "'");
  return nullptr;
}

const json_value* validation::obj_field(const json_value& v,
                                        const std::string& key,
                                        const std::string& where) {
  if (v.has(key) && v.at(key).is(json_value::kind::object)) return &v.at(key);
  fail(where + ": missing object '" + key + "'");
  return nullptr;
}

}  // namespace cgp::telemetry
