#include "stllint/lexer.hpp"

#include <algorithm>
#include <array>

namespace cgp::stllint {
namespace {

// One table classifies every byte: a punctuator maps to its one-character
// op_table row and every other byte to a class (bytes outside ASCII to
// none, as under std::isalpha in the "C" locale).  Letters and digits
// come last, so an identifier character is a class >= c_alpha.
enum : std::uint8_t { c_none = 0, c_space = 0xfd, c_alpha, c_digit };
constexpr op_id kFirstSingle = op_of("(");
constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (op_id o = kFirstSingle; o < std::size(op_table); ++o)
    t[static_cast<unsigned char>(op_table[o][0])] = o;
  for (const char c : std::string_view(" \t\r\n"))
    t[static_cast<unsigned char>(c)] = c_space;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = t[c - 'a' + 'A'] = c_alpha;
  t['_'] = c_alpha;
  for (int c = '0'; c <= '9'; ++c) t[c] = c_digit;
  return t;
}();
constexpr std::uint8_t class_of(char c) {
  return kClass[static_cast<unsigned char>(c)];
}
constexpr bool is_single(std::uint8_t cls) {
  return cls >= kFirstSingle && cls < std::size(op_table);
}

// Two-character punctuators, by the rows of their two characters (each of
// which is a one-character punctuator).
constexpr std::size_t kSingles = std::size(op_table) - kFirstSingle;
constexpr auto kPairs = [] {
  std::array<std::array<op_id, kSingles>, kSingles> t{};
  for (op_id o = op_of("::"); o < kFirstSingle; ++o)
    t[class_of(op_table[o][0]) - kFirstSingle]
     [class_of(op_table[o][1]) - kFirstSingle] = o;
  return t;
}();

// Keywords, by a hash that gives each its own of 64 slots (a collision
// does not compile): a lookup is one probe and one comparison.
constexpr std::size_t keyword_slot(std::string_view s) {
  return (s.size() * 4 + static_cast<unsigned char>(s.front()) +
          static_cast<unsigned char>(s.back()) * 8) & 63;
}
constexpr std::array<op_id, 64> kKeywords = [] {
  std::array<op_id, 64> t{};
  for (op_id o = 1; o < op_of("::"); ++o) {
    if (t[keyword_slot(op_table[o])] != 0) throw "two keywords share a slot";
    t[keyword_slot(op_table[o])] = o;
  }
  return t;
}();

}  // namespace

std::vector<std::string> source_lines(std::string_view source) {
  std::vector<std::string> lines;
  lines.reserve(std::count(source.begin(), source.end(), '\n') + 1);
  std::size_t at = 0;
  for (std::size_t nl; (nl = source.find('\n', at)) != source.npos; at = nl + 1)
    lines.emplace_back(source.substr(at, nl - at));
  lines.emplace_back(source.substr(at));
  return lines;
}

std::string_view source_view::line(int n) const {
  if (lines_ != nullptr)
    return n >= 1 && static_cast<std::size_t>(n) <= lines_->size()
               ? std::string_view((*lines_)[static_cast<std::size_t>(n) - 1])
               : std::string_view();
  if (n < 1) return {};
  if (n < at_line_) {
    at_line_ = 1;
    at_ = 0;
  }
  for (; at_line_ < n; ++at_line_) {
    const std::size_t nl = text_.find('\n', at_);
    if (nl == text_.npos) return {};
    at_ = nl + 1;
  }
  return text_.substr(at_, text_.find('\n', at_) - at_);
}

std::vector<token> tokenize(std::string_view src, diagnostics& diags) {
  std::vector<token> out;
  // Generated MiniCpp units run 0.33-0.35 tokens per byte; denser text
  // only regrows the buffer.
  out.reserve(src.size() * 3 / 8 + 16);
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1, col = 1;

  // Moves to `j`, counting the newlines before it.
  const auto move_to = [&](std::size_t j) {
    for (std::size_t nl; (nl = src.substr(0, j).find('\n', i)) != src.npos;
         i = nl + 1) {
      ++line;
      col = 1;
    }
    col += static_cast<int>(j - i);
    i = j;
  };

  while (i < n) {
    const char c = src[i];
    const std::uint8_t cls = class_of(c);
    if (cls == c_space) {
      line += c == '\n';
      col = c == '\n' ? 1 : col + 1;
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      move_to(std::min(src.find('\n', i), n));
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t close = src.find("*/", i + 2);
      if (close != src.npos) {
        move_to(close + 2);
        continue;
      }
      move_to(std::max(i + 2, n - 1));  // where the scan for "*/" gave up
      diags.push_back({severity::error, line, col,
                       "unterminated block comment", ""});
      move_to(n);
      continue;
    }
    const int tline = line, tcol = col;
    std::size_t j = i + 1;
    if (cls == c_alpha) {  // identifiers and keywords
      while (j < n && class_of(src[j]) >= c_alpha) ++j;
      const std::string_view text = src.substr(i, j - i);
      op_id kw = kKeywords[keyword_slot(text)];
      if (op_table[kw] != text) kw = 0;
      out.push_back({kw != 0 ? token_kind::keyword : token_kind::identifier,
                     kw, text, tline, tcol});
    } else if (cls == c_digit) {  // numbers
      bool is_float = false;
      for (; j < n && (class_of(src[j]) == c_digit || src[j] == '.'); ++j)
        is_float |= src[j] == '.';
      out.push_back({is_float ? token_kind::floating : token_kind::integer, 0,
                     src.substr(i, j - i), tline, tcol});
    } else if (c == '"') {  // string literals
      while (j < n && src[j] != '"') j += src[j] == '\\' && j + 1 < n ? 2 : 1;
      if (j >= n) {
        diags.push_back({severity::error, tline, tcol,
                         "unterminated string literal", ""});
        move_to(n);
        continue;
      }
      out.push_back({token_kind::string_lit, 0, src.substr(i, ++j - i), tline,
                     tcol});
      move_to(j);  // a literal may span lines
      continue;
    } else if (is_single(cls)) {  // punctuation, longest first
      const op_id pair = j < n && is_single(class_of(src[j]))
                             ? kPairs[cls - kFirstSingle]
                                     [class_of(src[j]) - kFirstSingle]
                             : 0;
      const op_id p = pair != 0 ? pair : cls;
      out.push_back({token_kind::punct, p, op_table[p], tline, tcol});
      j = i + op_table[p].size();
    } else {
      diags.push_back({severity::error, tline, tcol,
                       cat({"unexpected character '", {&c, 1}, "'"}), ""});
    }
    col += static_cast<int>(j - i);
    i = j;
  }
  out.push_back({token_kind::end_of_file, 0, "<eof>", line, col});
  return out;
}

}  // namespace cgp::stllint
