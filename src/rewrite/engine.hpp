// The concept-based simplifier (Simplicissimus, Section 3.2).
//
// The engine walks an expression bottom-up and, at every operator node,
// consults the concept registry: if the node's (type, operation) pair models
// the concept guarding a generic rule, the rule's axiom is instantiated via
// the model's symbol binding and applied.  Concrete `expr_rule`s (library-
// specific specializations, Section 3.2's LiDIA example) are tried first so
// a library can override the generic algebra with a faster call.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "rewrite/rules.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::rewrite {

class simplifier {
 public:
  /// Uses the given registry for model lookups (defaults to the global one).
  explicit simplifier(const core::concept_registry& reg =
                          core::concept_registry::global());
  simplifier(simplifier&&) noexcept;
  simplifier& operator=(simplifier&&) noexcept;
  ~simplifier();

  /// Registers a generic concept-guarded rule.
  void add_concept_rule(concept_rule r);
  /// Registers a concrete expression rule (user extension point).
  void add_expr_rule(expr_rule r);

  /// Folds operator applications whose operands are all literals by running
  /// the evaluator at compile^H^H^H rewrite time (e.g. `2 * 3 -> 6`).
  void enable_constant_folding(bool on = true) { fold_constants_ = on; }

  /// Installs the default generic rule set derived from the built-in
  /// algebra: Monoid identities, Group inverses, and the machine-provable
  /// derived theorems (annihilation, double inverse).  This is the
  /// "two concept-based rules" configuration of Fig. 5 (plus companions).
  void add_default_concept_rules();

  [[nodiscard]] std::size_t concept_rule_count() const noexcept {
    return concept_rules_.size();
  }
  [[nodiscard]] std::size_t expr_rule_count() const noexcept {
    return expr_rules_.size();
  }

  /// Simplifies to fixpoint (bounded), appending applied steps to `trace`.
  [[nodiscard]] expr simplify(const expr& e,
                              std::vector<rewrite_step>* trace = nullptr) const;

  /// Single top-level attempt: returns the rewritten node if some rule fires
  /// at the *root* of `e`, nullopt otherwise.  Used by tests.
  [[nodiscard]] std::optional<expr> rewrite_at_root(
      const expr& e, std::vector<rewrite_step>* trace = nullptr) const;

  /// What a rule fire reports, resolved once when the rule is added: the
  /// name and provenance of its steps, its hit counter, its profiler frame.
  struct rule_site {
    std::string name;
    std::string provenance;
    telemetry::counter* hits;
    telemetry::scope_site frame;
  };

 private:
  /// Every concept rule instantiated for one shape, in rule order; nullopt
  /// where the shape has no model or the rule would not shrink it.
  using instantiations = std::vector<std::optional<std::pair<expr, expr>>>;
  class shape_memo;

  /// The root of `e` rewritten, or `e` with rewritten children; nullopt
  /// when no rule fired anywhere in `e`, which then stays shared.
  [[nodiscard]] std::optional<expr> simplify_once(
      const expr& e, std::vector<rewrite_step>* trace) const;
  [[nodiscard]] const instantiations& instantiate(const expr& e) const;
  [[nodiscard]] instantiations instantiate_shape(const expr& e) const;

  const core::concept_registry* registry_;
  std::vector<std::pair<concept_rule, rule_site>> concept_rules_;
  std::vector<std::pair<expr_rule, rule_site>> expr_rules_;
  bool fold_constants_ = false;
  /// Memoizes axiom instantiation per (type id, operator id) shape,
  /// modelled or not: one lookup per operator node, read with no lock, so
  /// `simplify` (const) is safe to call from many threads at once and
  /// `simplify_batch` (batch.hpp) workers share one memo.  A shape seen at
  /// an older registry generation is instantiated again, so a later model
  /// takes effect.  Made by the first add_concept_rule and replaced by
  /// every later one, which must be quiescent.  It sits behind a pointer:
  /// the simplifier moves (factory functions return it by value) and keeps
  /// its memo.
  std::unique_ptr<shape_memo> memo_;
};

/// Rules licensed by machine-checked theorems rather than raw axioms
/// (provenance "derived-theorem"):
///   x * 0 -> 0      by theories::ring_annihilation()
///   -(-x) -> x      by theories::group_double_inverse()
/// Instantiated for the built-in int/double rings.
[[nodiscard]] std::vector<expr_rule> derived_theorem_rules();

/// Builds the ten enumerated instance rules from Fig. 5's "Instances"
/// column, the way a traditional (non-concept-aware) simplifier would have
/// to state them.  Used as the baseline in bench/fig5_rewrite.
[[nodiscard]] std::vector<expr_rule> fig5_instance_rules();

/// The LiDIA-style user rule of Section 3.2: `1.0 / f -> f.Inverse()` for
/// the arbitrary-precision type "bigfloat".
[[nodiscard]] expr_rule lidia_inverse_rule();

/// Normalization rule `1.0 / x -> reciprocal(x)` for field types, which
/// lets the generic Group right-inverse rule recognize `f * (1.0 / f)`.
[[nodiscard]] expr_rule reciprocal_normalization_rule(const std::string& type);

}  // namespace cgp::rewrite
