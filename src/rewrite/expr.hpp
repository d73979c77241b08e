// Typed expression IR for the Simplicissimus-style optimizer (Section 3.2).
//
// A traditional compiler simplifier rewrites `x + 0 -> x` only for built-in
// integers.  Simplicissimus instead guards rules by *concepts of the data
// types*; this IR therefore carries a type name on every node so the engine
// can ask the concept registry whether (type, operation) models Monoid,
// Group, etc. before firing a rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace cgp::rewrite {

/// Dense double matrix literal for evaluating Fig. 5's `A . I -> A` and
/// `A . A^-1 -> I` instances with real arithmetic.
struct matrix_value {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;  ///< row-major, rows*cols

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data[r * cols + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data[r * cols + c];
  }
  [[nodiscard]] static matrix_value identity(std::size_t n);
  friend bool operator==(const matrix_value&, const matrix_value&) = default;
};

/// Runtime value of an expression.  `monostate` = no value (pure symbol).
using value = std::variant<std::monostate, std::int64_t, std::uint64_t,
                           double, bool, std::string,
                           std::shared_ptr<const matrix_value>>;

[[nodiscard]] std::string value_to_string(const value& v);
[[nodiscard]] bool value_equal(const value& a, const value& b);

/// Immutable typed expression tree.
class expr {
 public:
  enum class kind {
    variable,     ///< named program variable, e.g. `i : int`
    metavariable, ///< rule pattern hole, matches any subexpression
    literal,      ///< concrete constant with a runtime value
    named_const,  ///< symbolic constant, e.g. the identity matrix `I`
    unary,        ///< prefix operator application, e.g. `-x`, `!b`
    binary,       ///< infix operator application, e.g. `x + y`
    call,         ///< named function call, e.g. `concat(s, t)`, `f.Inverse()`
  };

  // -- constructors ---------------------------------------------------------
  [[nodiscard]] static expr var(std::string name, std::string type);
  [[nodiscard]] static expr meta(std::string name, std::string type = "");
  [[nodiscard]] static expr lit(value v, std::string type);
  [[nodiscard]] static expr constant(std::string name, std::string type);
  [[nodiscard]] static expr unary_op(std::string op, expr operand,
                                     std::string type = "");
  [[nodiscard]] static expr binary_op(std::string op, expr lhs, expr rhs,
                                      std::string type = "");
  [[nodiscard]] static expr call_fn(std::string fn, std::vector<expr> args,
                                    std::string type);

  // convenience literals
  [[nodiscard]] static expr int_lit(std::int64_t v) {
    return lit(v, "int");
  }
  [[nodiscard]] static expr uint_lit(std::uint64_t v) {
    return lit(v, "unsigned");
  }
  [[nodiscard]] static expr double_lit(double v) { return lit(v, "double"); }
  [[nodiscard]] static expr bool_lit(bool v) { return lit(v, "bool"); }
  [[nodiscard]] static expr string_lit(std::string v) {
    return lit(std::move(v), "string");
  }

  // -- observers ------------------------------------------------------------
  [[nodiscard]] kind node_kind() const noexcept { return node_->k; }
  [[nodiscard]] const std::string& symbol() const noexcept {
    return node_->symbol;
  }
  [[nodiscard]] const std::string& type() const noexcept {
    return node_->type;
  }
  [[nodiscard]] const value& literal_value() const noexcept {
    return node_->val;
  }
  [[nodiscard]] const std::vector<expr>& children() const noexcept {
    return node_->children;
  }
  [[nodiscard]] std::size_t size() const noexcept;

  [[nodiscard]] bool is(kind k) const noexcept { return node_->k == k; }

  friend bool operator==(const expr& a, const expr& b);
  friend bool operator!=(const expr& a, const expr& b) { return !(a == b); }

  [[nodiscard]] std::string to_string() const;

  /// Matches `*this` against `pattern`, binding the pattern's metavariables.
  /// A metavariable with a nonempty type only matches subexpressions of that
  /// type.  Repeated metavariables must bind structurally equal expressions.
  [[nodiscard]] std::optional<std::map<std::string, expr>> match(
      const expr& pattern) const;

  /// Replaces metavariables by their bindings.
  [[nodiscard]] expr substitute(const std::map<std::string, expr>& b) const;
  /// The same operator node over new operands.  An untyped unary or binary
  /// node takes its first operand's type, as `unary_op` and `binary_op` do.
  [[nodiscard]] expr with_children(std::vector<expr> children) const;

 private:
  struct node {
    kind k;
    std::string symbol;  ///< var/meta/const name, operator, or function name
    std::string type;    ///< type name, e.g. "int", "matrix", "bigfloat"
    value val;           ///< only for kind::literal
    std::vector<expr> children;
  };

  explicit expr(std::shared_ptr<const node> n) : node_(std::move(n)) {}
  [[nodiscard]] static expr make(node n) {
    return expr(std::make_shared<const node>(std::move(n)));
  }

  std::shared_ptr<const node> node_;
};

/// Parses a literal spelling (as found in model symbol bindings, e.g. "0",
/// "1.0", "true", "0xFFFFFFFF", "\"\"", "I") into an expression of `type`.
/// Returns nullopt for spellings that are not literals of that type.
[[nodiscard]] std::optional<expr> parse_literal(const std::string& spelling,
                                                const std::string& type);

}  // namespace cgp::rewrite
