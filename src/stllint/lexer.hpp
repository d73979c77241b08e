// Lexer for MiniCpp, the C++ subset STLlint analyzes.
//
// Substitution note (see DESIGN.md): the real STLlint consumed full C++
// through a commercial front end; the analysis itself, however, operates on
// concept-level semantics of containers/iterators/algorithms.  MiniCpp keeps
// exactly the surface needed for the paper's programs (Fig. 4, the sort+find
// advisory, multipass violations) so the interesting machinery — the
// symbolic executor in analyzer.cpp — is fully exercised.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "stllint/diagnostics.hpp"

namespace cgp::stllint {

/// Keywords and punctuators, one table: a token's `op` is its index here (0
/// for identifiers, literals and end of file).  The order carries the
/// classification: scalar types first, in mini_type::kind order, then the
/// container kinds, the other keywords, and the punctuators, two-character
/// ones first so the lexer matches the longest.
inline constexpr std::string_view op_table[] = {
    "", "void", "int", "bool", "double", "string",  //
    "vector", "list", "deque", "set", "multiset", "input_stream",  //
    "iterator", "if", "else", "while", "for", "return", "true", "false",
    "const", "break", "continue",  //
    "::", "++", "--", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "->",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "<", ">", "=", "+", "-", "*",
    "/", "!", "&", "|", ":", "%"};
using op_id = std::uint8_t;

/// The id of a keyword or punctuator; not a constant expression (so a
/// compile error) for anything else.
consteval op_id op_of(std::string_view s) {
  for (std::size_t i = 1; i < std::size(op_table); ++i)
    if (op_table[i] == s) return static_cast<op_id>(i);
  throw "not a MiniCpp keyword or punctuator";
}
constexpr bool is_scalar_type(op_id o) {
  return o >= op_of("void") && o <= op_of("string");
}
constexpr bool is_container_kind(op_id o) {
  return o >= op_of("vector") && o <= op_of("input_stream");
}

enum class token_kind {
  identifier,
  keyword,  // the keyword rows of op_table
  integer,
  floating,
  string_lit,
  punct,  // the punctuator rows of op_table
  end_of_file,
};

/// A token is plain data: `text` views the source passed to `tokenize`,
/// which must outlive the tokens and therefore parsing.
struct token {
  token_kind kind = token_kind::end_of_file;
  op_id op = 0;
  std::string_view text;
  int line = 1;
  int column = 1;

  [[nodiscard]] bool is(token_kind k) const { return kind == k; }
  [[nodiscard]] bool is(token_kind k, std::string_view t) const {
    return kind == k && text == t;
  }
  [[nodiscard]] bool is(op_id o) const { return op == o; }
};

/// Tokenizes `source`, which the tokens view (see `token`).  Lexical problems
/// are reported into `diags`; the stream always ends with an end_of_file
/// token.
[[nodiscard]] std::vector<token> tokenize(std::string_view source,
                                          diagnostics& diags);

/// Splits `source` into physical lines (for echoing in diagnostics).
[[nodiscard]] std::vector<std::string> source_lines(std::string_view source);

/// The lines of a translation unit, for echoing in diagnostics: read from
/// the source text itself, or from lines already split by `source_lines`.
/// Views what it is built from, which must outlive it.
class source_view {
 public:
  source_view() = default;
  source_view(std::string_view text) : text_(text) {}
  source_view(const std::vector<std::string>& lines) : lines_(&lines) {}

  /// Line `n` (from 1) without its newline; empty past the last line.
  [[nodiscard]] std::string_view line(int n) const;

 private:
  std::string_view text_;
  const std::vector<std::string>* lines_ = nullptr;
  /// Where the last line looked up starts in `text_`: lookups walk
  /// forward from it (diagnostics come roughly in line order), and back
  /// to the start for an earlier line.
  mutable int at_line_ = 1;
  mutable std::size_t at_ = 0;
};

}  // namespace cgp::stllint
