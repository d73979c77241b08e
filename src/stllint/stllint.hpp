// Public STLlint API: parse + analyze a MiniCpp source, returning
// concept-level diagnostics (Section 3.1).
#pragma once

#include <string_view>

#include "stllint/analyzer.hpp"
#include "stllint/ast.hpp"
#include "stllint/diagnostics.hpp"

namespace cgp::stllint {

struct lint_result {
  diagnostics diags;
  analyzer::stats stats;

  /// True when no error/warning was produced (advisories and notes are OK).
  [[nodiscard]] bool clean() const {
    for (const diagnostic& d : diags)
      if (d.sev == severity::error || d.sev == severity::warning) return false;
    return true;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const diagnostic& d : diags) out += d.to_string() + "\n";
    return out;
  }
};

/// Lints a MiniCpp translation unit.
[[nodiscard]] lint_result lint_source(std::string_view source,
                                      const options& opt = {});

}  // namespace cgp::stllint
