// Seeded MiniCpp corpus with a known-answer table.
//
// Every translation unit is assembled from template functions.  A function
// is either clean or carries exactly one planted defect, and the template
// that plants the defect also writes the diagnostic it must produce (line,
// severity and message prefix).  The expected answers therefore never come
// from running the linter, so a linter regression shows up as a mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stllint/stllint.hpp"

namespace e2e {

struct expected_diag {
  cgp::stllint::severity sev = cgp::stllint::severity::warning;
  int line = 0;
  std::string prefix;  ///< the message must start with this text
};

/// One generated translation unit and its known answer.
struct unit {
  std::string source;
  std::vector<expected_diag> expected;
  /// Byte offsets of the `int total = <literal>;` literals, one per
  /// function: an edit rewrites one of them, which keeps every line
  /// number and every verdict.
  std::vector<std::pair<std::size_t, std::size_t>> edit_slots;
};

/// Generates `count` units of about 4 KB and six functions each.  The same
/// seed gives the same corpus; unit `i` is a function of (seed, i) alone.
[[nodiscard]] std::vector<unit> make_corpus(std::uint64_t seed,
                                            std::size_t count);

/// A one-line edit of `base`: the literal in edit slot `slot %
/// edit_slots.size()` becomes `value`.  The known answer is unchanged.
[[nodiscard]] std::string make_edit(const unit& base, std::size_t slot,
                                    std::uint64_t value);

/// True when `got` carries exactly the expected errors, warnings and
/// advisories (notes are ignored), matched by severity, line and message
/// prefix.
[[nodiscard]] bool matches(const cgp::stllint::lint_result& got,
                           const std::vector<expected_diag>& expected);

}  // namespace e2e
