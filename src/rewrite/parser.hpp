// A small textual front end for the rewrite IR, so expressions and user
// rules can be written as strings:
//
//   parse_expr("(i + 0) * 1", {{"i", "int"}})          // typed variables
//   parse_expr("concat(s, \"\")", {{"s", "string"}})
//   parse_expr("?x + 0", {{"?x", "int"}})              // metavariables
//
// Grammar (C-like precedence):
//   expr     := or
//   or       := and    { "||" and }
//   and      := cmp    { "&&" cmp }
//   cmp      := add    { ("=="|"!="|"<"|"<="|">"|">=") add }
//   add      := mul    { ("+"|"-") mul }
//   mul      := unary  { ("*"|"/"|"%"|"&"|"|"|"^") unary }
//   unary    := ("-"|"!"|"~") unary | postfix
//   postfix  := primary
//   primary  := number | string | "true" | "false" | ident
//             | ident "(" args ")" | "(" expr ")" | "?" ident
//
// Identifier types come from the `types` map; unmapped identifiers become
// named constants of the expected type (e.g. `I` in a matrix context).
// Nesting deeper than kMaxParseDepth is a parse error.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rewrite/rules.hpp"

namespace cgp::rewrite {

class parse_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest nesting `parse_expr` accepts, counting parentheses, call
/// argument lists and unary prefixes; one more throws `parse_error`, so
/// hostile input cannot exhaust the stack of the recursive descent.  One
/// level costs about 27 KB of stack in a GCC 12 AddressSanitizer build (an
/// 8 MB stack overflows near 310 levels), so 128 leaves every build room.
inline constexpr int kMaxParseDepth = 128;

/// Parses `source` into an expression.  `types` maps variable and
/// metavariable names (metavariables keep their leading '?') to type names;
/// numeric literal types are inferred (int vs double), and function-call
/// result types default to the first argument's type unless the function
/// name appears in `types`.
[[nodiscard]] expr parse_expr(std::string_view source,
                              const std::map<std::string, std::string>& types);

/// Convenience: builds an expr_rule from two strings sharing one type map.
[[nodiscard]] expr_rule parse_rule(const std::string& name,
                                   std::string_view pattern,
                                   std::string_view replacement,
                                   const std::map<std::string, std::string>&
                                       types,
                                   std::string provenance = "user");

}  // namespace cgp::rewrite
