#include "stllint/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>

namespace cgp::stllint {
namespace {

/// The op_table id of `s` among rows [first, last), or 0.
op_id find_op(std::string_view s, op_id first, op_id last) {
  for (op_id o = first; o < last; ++o)
    if (op_table[o] == s) return o;
  return 0;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

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

std::vector<token> tokenize(std::string_view src, diagnostics& diags) {
  std::vector<token> out;
  out.reserve(src.size() / 2 + 1);
  int line = 1, col = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  const auto advance = [&](std::size_t k) {
    for (std::size_t j = 0; j < k && i < n; ++j, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      advance(2);
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) advance(1);
      if (i + 1 >= n)
        diags.push_back({severity::error, line, col,
                         "unterminated block comment", ""});
      advance(2);
      continue;
    }
    const int tline = line, tcol = col;
    // Identifiers and keywords.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      const std::string_view text = src.substr(i, j - i);
      const op_id kw = find_op(text, 1, op_of("::"));
      advance(j - i);
      out.push_back({kw != 0 ? token_kind::keyword : token_kind::identifier,
                     kw, text, tline, tcol});
      continue;
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      bool is_float = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(src[j])) ||
                       src[j] == '.')) {
        if (src[j] == '.') is_float = true;
        ++j;
      }
      const std::string_view text = src.substr(i, j - i);
      advance(j - i);
      out.push_back({is_float ? token_kind::floating : token_kind::integer, 0,
                     text, tline, tcol});
      continue;
    }
    // String literals.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      if (j >= n) {
        diags.push_back({severity::error, tline, tcol,
                         "unterminated string literal", ""});
        advance(n - i);
        continue;
      }
      const std::string_view text = src.substr(i, j - i + 1);
      advance(j - i + 1);
      out.push_back({token_kind::string_lit, 0, text, tline, tcol});
      continue;
    }
    // Punctuation, longest first.
    op_id p = find_op(src.substr(i, 2), op_of("::"), op_of("("));
    if (p == 0) p = find_op(src.substr(i, 1), op_of("("),
                             static_cast<op_id>(std::size(op_table)));
    if (p != 0) {
      out.push_back({token_kind::punct, p, op_table[p], tline, tcol});
      advance(op_table[p].size());
      continue;
    }
    diags.push_back({severity::error, tline, tcol,
                     std::string("unexpected character '") + c + "'", ""});
    advance(1);
  }
  out.push_back({token_kind::end_of_file, 0, "<eof>", line, col});
  return out;
}

}  // namespace cgp::stllint
