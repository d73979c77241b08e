// A runtime registry that makes concepts *first-class entities*: named,
// inspectable values carrying all four kinds of requirements the paper lists
// in Section 2 — associated types, function signatures / valid expressions,
// semantic constraints (axioms), and complexity guarantees.
//
// C++20 `concept`s (used throughout src/) give compile-time checking and
// concept-based overloading; this registry is the complementary reflection
// layer the language still lacks.  It is what couples the library to the
// "compiler-side" tools built in this repository: the rewrite engine asks it
// which (types, operation) tuples model Monoid/Group before firing a rule,
// STLlint reads iterator-concept refinements from it, the proof module pulls
// concept axioms from it, and the taxonomies (Section 4) are built on top of
// its refinement lattice.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/complexity.hpp"
#include "core/term.hpp"

namespace cgp::core {

/// A valid-expression requirement row, exactly as in Figs. 1-3:
/// e.g. { "out_edges(v,g)", "out_edge_iterator" }.
struct valid_expression {
  std::string expression;
  std::string result;  ///< return type or description
};

/// An associated-type requirement row: name plus constraint text,
/// e.g. { "edge_type", "models Graph Edge" }.
struct associated_type_req {
  std::string name;
  std::string constraint;
};

/// A complexity guarantee attached to a concept or algorithm:
/// e.g. { "out_edges", O(1) } or { "messages", O(n log n) }.
struct complexity_guarantee {
  std::string operation;
  big_o bound;
};

/// Everything the paper says a concept is (Section 2, first paragraph):
/// associated types, function signatures, semantic constraints, and
/// complexity guarantees, plus the refinement relation.
struct concept_descriptor {
  std::string name;
  std::vector<std::string> refines;  ///< direct refinements (concept names)
  std::vector<associated_type_req> associated_types;
  std::vector<valid_expression> expressions;
  std::vector<axiom> axioms;  ///< equational semantic constraints
  std::vector<std::string> laws;  ///< non-equational constraints, prose/FOL
  std::vector<complexity_guarantee> complexity;
  std::string description;

  /// Number of constrained types (1 for single-type concepts; 2 for
  /// Vector Space, Section 2.4).
  int type_arity = 1;
};

/// A model declaration: the tuple of type (and operation) names that models a
/// concept, e.g. Monoid modeled by {"int", "+"}; VectorSpace modeled by
/// {"vec<complex<float>>", "float"}.
struct model_declaration {
  std::string concept_name;
  std::vector<std::string> arguments;
  /// Symbol bindings for the concept's axiom signature, e.g. op->"+",
  /// e->"0".  Used by the rewrite engine to instantiate generic rules.
  std::map<std::string, std::string> symbol_binding;
};

/// The registry: definitions, the refinement lattice, and the model database.
class concept_registry {
 public:
  /// The process-wide registry, pre-populated with the paper's concepts
  /// (algebraic hierarchy, iterator hierarchy, graph concepts of Figs. 1-2,
  /// Strict Weak Order of Fig. 6) and built-in models.
  [[nodiscard]] static concept_registry& global();

  /// Empty registry (useful for tests and for domain-specific taxonomies).
  concept_registry() = default;

  /// Defines (or redefines) a concept.  All concepts named in `refines` must
  /// already exist; throws std::invalid_argument otherwise.
  void define(concept_descriptor d);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const concept_descriptor* find(const std::string& name) const;

  /// Transitive-reflexive refinement query: does `derived` refine `base`?
  [[nodiscard]] bool refines(const std::string& derived,
                             const std::string& base) const;

  /// All ancestors (concepts transitively refined by `name`), excluding
  /// `name` itself, in deterministic order.
  [[nodiscard]] std::vector<std::string> ancestors(
      const std::string& name) const;

  /// All registered concepts that transitively refine `name`.
  [[nodiscard]] std::vector<std::string> descendants(
      const std::string& name) const;

  /// Axioms of a concept including those inherited through refinement —
  /// the full semantic contract a model signs up for.
  [[nodiscard]] std::vector<axiom> all_axioms(const std::string& name) const;

  /// The most-refined common ancestor(s) of two concepts (the meet in the
  /// refinement lattice); used for concept-based overload resolution.
  [[nodiscard]] std::vector<std::string> meet(const std::string& a,
                                              const std::string& b) const;

  // --- model database -----------------------------------------------------

  /// Declares that the argument tuple models the concept.  Modeling a
  /// refinement implies modeling everything it refines (with the same
  /// symbol binding), per the definition of refinement.
  void declare_model(model_declaration m);

  /// Does `arguments` model `concept_name`, directly or via a declared model
  /// of some refinement of it?
  [[nodiscard]] bool models(const std::string& concept_name,
                            const std::vector<std::string>& arguments) const;

  /// The declaration witnessing `models(...)`, if any.  Prefers the most
  /// refined declaration so the strongest symbol binding is available.
  [[nodiscard]] std::optional<model_declaration> find_model(
      const std::string& concept_name,
      const std::vector<std::string>& arguments) const;

  /// All declared models of a concept (including via refinements).
  [[nodiscard]] std::vector<model_declaration> models_of(
      const std::string& concept_name) const;

  /// All concept names `arguments` models.
  [[nodiscard]] std::vector<std::string> concepts_of(
      const std::vector<std::string>& arguments) const;

  [[nodiscard]] std::vector<std::string> concept_names() const;

  /// Renders a concept as a requirements table in the style of Figs. 1-3.
  [[nodiscard]] std::string describe(const std::string& name) const;
  /// Bumped by every `define` and `declare_model`: caches key on it.
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

 private:
  std::map<std::string, concept_descriptor> concepts_;
  std::vector<model_declaration> models_;
  std::uint64_t gen_ = 0;
};

/// Registers the paper's built-in concept hierarchy and models into `r`.
/// Called once for `concept_registry::global()`; exposed for tests.
void register_builtin_concepts(concept_registry& r);

}  // namespace cgp::core
