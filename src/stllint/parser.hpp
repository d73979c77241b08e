// Recursive-descent parser for MiniCpp.
#pragma once

#include <optional>

#include "stllint/ast.hpp"
#include "stllint/lexer.hpp"

namespace cgp::stllint {

/// Deepest nesting `parse` accepts, one counter over statements,
/// expressions (parenthesized ones included), types, prefix operators and
/// the operators of binary and postfix chains, so no AST is deeper.  Set
/// by ASan's stack use: a GCC 12 ASan build overflows 8 MB near 360 nested
/// parentheses (the same margin as rewrite::kMaxParseDepth).
inline constexpr int kMaxParseDepth = 128;

/// Parses a MiniCpp translation unit (a sequence of function definitions).
/// Parse errors are appended to `diags`; the parser recovers at statement
/// boundaries so one bad line does not hide later diagnostics.  Nesting
/// past kMaxParseDepth adds one error and ends the parse there: `parse`
/// never throws and always returns.
[[nodiscard]] ast_program parse(const std::vector<token>& tokens,
                                diagnostics& diags);

}  // namespace cgp::stllint
