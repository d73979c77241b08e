// Diagnostics for STLlint (Section 3.1): high-level, concept-level messages
// ("attempt to dereference a singular iterator"), not language-level ones.
//
// Each diagnostic carries its PROVENANCE: the sequence of symbolic-
// execution steps (statement executed, abstract-state transition) the
// analyzer took on the path to the report.  The paper's pitch is that
// misuse should be explained at the concept level; the provenance trail
// extends that from "what went wrong" to "why the analyzer believes it" —
// e.g. the erase() that made an iterator singular, two statements before
// the dereference that trips the warning.
//
// A diagnostic stores its verdict and trail as data: the message is built
// once, when it is reported, and the trail's text only when it is read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cgp::stllint {

/// Severity ladder:
///  * error    — the program's meaning is broken (parse/type errors);
///  * warning  — concept-level misuse (invalidation, range violations,
///               multipass violations, unmet preconditions);
///  * advice   — "potential optimization" suggestions (Section 3.2);
///  * note     — supplementary context.
enum class severity { error, warning, advice, note };

[[nodiscard]] constexpr const char* to_string(severity s) {
  switch (s) {
    case severity::error:
      return "error";
    case severity::warning:
      return "Warning";
    case severity::advice:
      return "Warning: potential optimization";
    case severity::note:
      return "note";
  }
  return "?";
}

/// `parts` concatenated into a string of exactly their size: diagnostic
/// text is kept in every cached result, where `+` or `reserve` slack stays.
[[nodiscard]] std::string cat(std::initializer_list<std::string_view> parts);

/// Closed integer interval with +/- infinity sentinels.
struct interval {
  static constexpr long neg_inf = -(1L << 60);
  static constexpr long pos_inf = (1L << 60);

  long lo = neg_inf;
  long hi = pos_inf;

  [[nodiscard]] static interval exact(long v) { return {v, v}; }
  [[nodiscard]] static interval unknown() { return {}; }
  [[nodiscard]] bool is_exact() const { return lo == hi; }

  [[nodiscard]] interval join(const interval& o) const {
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }
  [[nodiscard]] interval plus(long v) const {
    return {lo <= neg_inf ? neg_inf : lo + v, hi >= pos_inf ? pos_inf : hi + v};
  }
  [[nodiscard]] interval clamp_lo(long v) const {
    return {std::max(lo, v), std::max(hi, v)};
  }
  friend bool operator==(const interval&, const interval&) = default;
};

/// Three-valued sortedness.
enum class sorted3 : std::uint8_t { yes, no, unknown };

/// Index of a name in its diagnostic's `names`.
using name_id = std::uint16_t;
inline constexpr name_id no_name = 0xffff;

// The states a provenance step shows; plain data without defaults, so
// they can share a union.

/// A container's state: its size interval, kind and sortedness.
struct container_view {
  long lo, hi;          ///< its size
  std::uint8_t kind;    ///< its kind's op_table row ("vector", ...)
  sorted3 sorted;
  bool consumed;        ///< a single-pass traversal was taken
};

/// An iterator's state.
struct iterator_view {
  long offset;
  name_id container;  ///< shown when valid
  name_id mutated;    ///< the container whose mutation made it singular
  std::uint8_t valid, pos;  ///< iterator_state::validity, ::position
  std::uint8_t cause;       ///< singular_reason::cause
  /// An unverified search result: all_algorithms()[algorithm - 1]; 0 = none.
  std::uint8_t algorithm;
};

/// One symbolic-execution step, as plain data: what the analyzer did at
/// `line` and the one piece of abstract state its text shows.  Names are
/// indexes into the owning diagnostic's `names`; the diagnostic renders
/// the text ("line 4: declare iterator 'it'  [...]") on demand.
struct provenance_step {
  enum class action : std::uint8_t {
    enter, singular, mutate, decl_container, decl_iterator, decl_int,
    loop_pass
  };
  int line = 0;
  action what = action::enter;
  std::uint8_t member = 0;      ///< mutate: the member function
  name_id subject = no_name;    ///< the function, variable or container named
  union {
    interval num{};     ///< declare_int; loop_pass: the pass number
    container_view c;   ///< mutate, declare_container: the state after
    iterator_view it;   ///< singular, declare_iterator
  };
};

/// One diagnostic, anchored to a source position, with the offending source
/// line echoed underneath (as in the paper's sample output).  It owns all
/// it shows: copies outlive the analyzer and the program.
struct diagnostic {
  severity sev = severity::warning;
  int line = 0;
  int column = 0;
  std::string message;
  std::string source_line;  ///< echo of the offending line, if available
  /// Column within `source_line` (the echo is stripped of leading
  /// whitespace, so this differs from `column`); 0 when unknown.
  int caret_column = 0;
  /// Symbolic-execution path that led here, oldest step first (bounded by
  /// options::max_provenance_steps).
  std::vector<provenance_step> provenance;
  /// The names the steps mention, each ended by a '\0', in name_id order.
  std::string names;

  [[nodiscard]] std::string to_string() const {
    std::string out = std::string(stllint::to_string(sev)) + ": " + message;
    if (!source_line.empty()) out += "\n  " + source_line;
    return out;
  }
  /// A step's action, e.g. "declare 'iter' = students.begin()".
  [[nodiscard]] std::string action_text(const provenance_step& s) const;
  /// A step as one line: "line 4: <action>  [<state after>]".
  [[nodiscard]] std::string step_text(const provenance_step& s) const;
};

/// Caret-style rendering: severity + message, the offending source line
/// with a `^` under the offending column, then the provenance trail.
///
///   Warning: attempt to dereference a singular iterator (...)
///     --> line 8, column 12
///      |  use(*iter);
///      |      ^
///     provenance:
///      1. line 4: declare 'iter' = students.begin()  [...]
///      ...
[[nodiscard]] std::string render_caret(const diagnostic& d);

using diagnostics = std::vector<diagnostic>;

}  // namespace cgp::stllint
