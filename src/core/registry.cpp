#include "core/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cgp::core {

concept_registry& concept_registry::global() {
  static concept_registry r = [] {
    concept_registry reg;
    register_builtin_concepts(reg);
    return reg;
  }();
  return r;
}

void concept_registry::define(concept_descriptor d) {
  for (const std::string& base : d.refines) {
    if (!concepts_.contains(base))
      throw std::invalid_argument("concept '" + d.name +
                                  "' refines unknown concept '" + base + "'");
  }
  concepts_[d.name] = std::move(d);
  ++gen_;
}

bool concept_registry::contains(const std::string& name) const {
  return concepts_.contains(name);
}

const concept_descriptor* concept_registry::find(
    const std::string& name) const {
  auto it = concepts_.find(name);
  return it == concepts_.end() ? nullptr : &it->second;
}

bool concept_registry::refines(const std::string& derived,
                               const std::string& base) const {
  if (derived == base) return contains(derived);
  const concept_descriptor* d = find(derived);
  if (d == nullptr) return false;
  for (const std::string& r : d->refines)
    if (refines(r, base)) return true;
  return false;
}

std::vector<std::string> concept_registry::ancestors(
    const std::string& name) const {
  std::set<std::string> seen;
  std::vector<std::string> stack{name};
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    const concept_descriptor* d = find(cur);
    if (d == nullptr) continue;
    for (const std::string& r : d->refines)
      if (seen.insert(r).second) stack.push_back(r);
  }
  return {seen.begin(), seen.end()};
}

std::vector<std::string> concept_registry::descendants(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [cname, d] : concepts_)
    if (cname != name && refines(cname, name)) out.push_back(cname);
  return out;
}

std::vector<axiom> concept_registry::all_axioms(
    const std::string& name) const {
  std::vector<axiom> out;
  std::set<std::string> seen_names;
  const auto add_from = [&](const std::string& cname) {
    const concept_descriptor* d = find(cname);
    if (d == nullptr) return;
    for (const axiom& a : d->axioms)
      if (seen_names.insert(a.name).second) out.push_back(a);
  };
  add_from(name);
  for (const std::string& a : ancestors(name)) add_from(a);
  return out;
}

std::vector<std::string> concept_registry::meet(const std::string& a,
                                                const std::string& b) const {
  // Common ancestors (inclusive), minus any that are refined by another
  // common ancestor — i.e. the maximal elements of the intersection.
  std::set<std::string> ca;
  const auto closure = [&](const std::string& n) {
    std::set<std::string> s;
    if (contains(n)) s.insert(n);
    for (const std::string& x : ancestors(n)) s.insert(x);
    return s;
  };
  const std::set<std::string> sa = closure(a);
  const std::set<std::string> sb = closure(b);
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(ca, ca.begin()));
  std::vector<std::string> out;
  for (const std::string& c : ca) {
    const bool refined_by_other =
        std::any_of(ca.begin(), ca.end(), [&](const std::string& o) {
          return o != c && refines(o, c);
        });
    if (!refined_by_other) out.push_back(c);
  }
  return out;
}

void concept_registry::declare_model(model_declaration m) {
  if (!contains(m.concept_name))
    throw std::invalid_argument("model declared for unknown concept '" +
                                m.concept_name + "'");
  models_.push_back(std::move(m));
  ++gen_;
}

bool concept_registry::models(const std::string& concept_name,
                              const std::vector<std::string>& args) const {
  return find_model(concept_name, args).has_value();
}

std::optional<model_declaration> concept_registry::find_model(
    const std::string& concept_name,
    const std::vector<std::string>& args) const {
  const model_declaration* best = nullptr;
  for (const model_declaration& m : models_) {
    if (m.arguments != args) continue;
    if (!refines(m.concept_name, concept_name)) continue;
    // Prefer the most refined witnessing declaration.
    if (best == nullptr || refines(m.concept_name, best->concept_name))
      best = &m;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<model_declaration> concept_registry::models_of(
    const std::string& concept_name) const {
  std::vector<model_declaration> out;
  for (const model_declaration& m : models_)
    if (refines(m.concept_name, concept_name)) out.push_back(m);
  return out;
}

std::vector<std::string> concept_registry::concepts_of(
    const std::vector<std::string>& args) const {
  std::set<std::string> out;
  for (const model_declaration& m : models_) {
    if (m.arguments != args) continue;
    out.insert(m.concept_name);
    for (const std::string& a : ancestors(m.concept_name)) out.insert(a);
  }
  return {out.begin(), out.end()};
}

std::vector<std::string> concept_registry::concept_names() const {
  std::vector<std::string> out;
  out.reserve(concepts_.size());
  for (const auto& [n, d] : concepts_) out.push_back(n);
  return out;
}

std::string concept_registry::describe(const std::string& name) const {
  const concept_descriptor* d = find(name);
  if (d == nullptr) return "<unknown concept '" + name + "'>";
  std::ostringstream out;
  out << "concept " << d->name;
  if (!d->refines.empty()) {
    out << " refines ";
    for (std::size_t i = 0; i < d->refines.size(); ++i) {
      if (i > 0) out << ", ";
      out << d->refines[i];
    }
  }
  out << "\n";
  if (!d->description.empty()) out << "  " << d->description << "\n";
  for (const associated_type_req& t : d->associated_types)
    out << "  associated type " << t.name
        << (t.constraint.empty() ? "" : " : " + t.constraint) << "\n";
  for (const valid_expression& e : d->expressions)
    out << "  " << e.expression << " -> " << e.result << "\n";
  for (const axiom& a : d->axioms)
    out << "  axiom " << a.name << ": " << a.to_string() << "\n";
  for (const std::string& l : d->laws) out << "  law: " << l << "\n";
  for (const complexity_guarantee& c : d->complexity)
    out << "  complexity " << c.operation << ": " << c.bound.to_string()
        << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Built-in hierarchy
// ---------------------------------------------------------------------------

namespace {

axiom make_axiom(std::string name, std::vector<std::string> vars, term lhs,
                 term rhs, std::string note = {}) {
  return axiom{std::move(name), std::move(vars), std::move(lhs),
               std::move(rhs), std::move(note)};
}

}  // namespace

void register_builtin_concepts(concept_registry& r) {
  using T = term;
  const term x = T::var("x"), y = T::var("y"), z = T::var("z");
  const term e = T::cst("e");

  // --- algebraic hierarchy -------------------------------------------------
  r.define({.name = "Magma",
            .expressions = {{"op(x, y)", "T"}},
            .description = "closed binary operation"});
  r.define({.name = "Semigroup",
            .refines = {"Magma"},
            .axioms = {make_axiom("associativity", {"x", "y", "z"},
                                  T::app("op", {T::app("op", {x, y}), z}),
                                  T::app("op", {x, T::app("op", {y, z})}))},
            .description = "associative magma"});
  r.define(
      {.name = "Monoid",
       .refines = {"Semigroup"},
       .expressions = {{"identity()", "T"}},
       .axioms = {make_axiom("right_identity", {"x"}, T::app("op", {x, e}), x,
                             "guard of Fig. 5 rule 1: x + 0 -> x"),
                  make_axiom("left_identity", {"x"}, T::app("op", {e, x}), x)},
       .description = "semigroup with two-sided identity"});
  r.define({.name = "Group",
            .refines = {"Monoid"},
            .expressions = {{"inverse(x)", "T"}},
            .axioms = {make_axiom(
                           "right_inverse", {"x"},
                           T::app("op", {x, T::app("inv", {x})}), e,
                           "guard of Fig. 5 rule 2: x + (-x) -> 0"),
                       make_axiom("left_inverse", {"x"},
                                  T::app("op", {T::app("inv", {x}), x}), e)},
            .description = "monoid with inverses"});
  r.define({.name = "CommutativeMonoid",
            .refines = {"Monoid"},
            .axioms = {make_axiom("commutativity", {"x", "y"},
                                  T::app("op", {x, y}), T::app("op", {y, x}))},
            .description = "monoid with commutative operation"});
  r.define({.name = "AbelianGroup",
            .refines = {"Group", "CommutativeMonoid"},
            .description = "commutative group"});
  r.define(
      {.name = "Ring",
       .refines = {"AbelianGroup"},
       .expressions = {{"mul(x, y)", "T"}, {"one()", "T"}},
       .axioms =
           {make_axiom("mul_associativity", {"x", "y", "z"},
                       T::app("mul", {T::app("mul", {x, y}), z}),
                       T::app("mul", {x, T::app("mul", {y, z})})),
            make_axiom("left_distributivity", {"x", "y", "z"},
                       T::app("mul", {x, T::app("op", {y, z})}),
                       T::app("op", {T::app("mul", {x, y}),
                                     T::app("mul", {x, z})})),
            make_axiom("right_distributivity", {"x", "y", "z"},
                       T::app("mul", {T::app("op", {x, y}), z}),
                       T::app("op", {T::app("mul", {x, z}),
                                     T::app("mul", {y, z})})),
            make_axiom("mul_right_identity", {"x"},
                       T::app("mul", {x, T::cst("one")}), x),
            make_axiom("mul_left_identity", {"x"},
                       T::app("mul", {T::cst("one"), x}), x)},
       .description = "abelian group (op) + monoid (mul) + distributivity"});
  r.define({.name = "IntegralDomain",
            .refines = {"Ring"},
            .laws = {"no zero divisors: mul(x, y) = e implies x = e or y = e"},
            .description = "commutative ring without zero divisors"});
  r.define({.name = "Field",
            .refines = {"IntegralDomain"},
            .expressions = {{"reciprocal(x)", "T, for x != e"}},
            .laws = {"mul(x, reciprocal(x)) = one for x != e"},
            .description = "commutative ring with multiplicative inverses"});

  // --- Vector Space (Fig. 3): a two-type concept ---------------------------
  r.define({.name = "VectorSpace",
            .refines = {},
            .expressions = {{"mult(v, s)", "V"}, {"mult(s, v)", "V"}},
            .laws = {"V models AdditiveAbelianGroup",
                     "S models Field",
                     "mult(v, 1) = v",
                     "mult(mult(v, s1), s2) = mult(v, mul(s1, s2))",
                     "mult(op(v1, v2), s) = op(mult(v1, s), mult(v2, s))"},
            .description =
                "Fig. 3: scalar type is an independent constrained type, "
                "NOT an associated type of the vector type",
            .type_arity = 2});

  // --- order concepts (Fig. 6) ---------------------------------------------
  r.define({.name = "Relation",
            .expressions = {{"lt(x, y)", "bool"}},
            .description = "binary relation"});
  r.define(
      {.name = "StrictWeakOrder",
       .refines = {"Relation"},
       .laws = {"irreflexivity: !lt(x, x)",
                "transitivity: lt(x, y) && lt(y, z) implies lt(x, z)",
                "E(x, y) := !lt(x, y) && !lt(y, x)",
                "transitivity of equivalence: E(x, y) && E(y, z) implies "
                "E(x, z)"},
       .description =
           "Fig. 6: minimal requirements on < for correctness of "
           "max_element, binary_search, sort, ...; symmetry and reflexivity "
           "of E are derivable theorems (machine-checked in src/proof)"});
  r.define({.name = "TotalOrder",
            .refines = {"StrictWeakOrder"},
            .laws = {"trichotomy: exactly one of lt(x, y), lt(y, x), x == y"},
            .description = "strict weak order whose equivalence is equality"});

  // --- iterator hierarchy (Section 3.1's multipass distinction) ------------
  const big_o o1 = big_o::one();
  r.define({.name = "Iterator",
            .associated_types = {{"value_type", ""}},
            .expressions = {{"*i", "value_type"}, {"++i", "Iterator&"}},
            .description = "dereference + advance"});
  r.define({.name = "InputIterator",
            .refines = {"Iterator"},
            .laws = {"single-pass: after ++i, previous copies of i are "
                     "invalidated"},
            .complexity = {{"*i", o1}, {"++i", o1}},
            .description = "single-pass read"});
  r.define({.name = "ForwardIterator",
            .refines = {"InputIterator"},
            .laws = {"multipass: a == b implies ++a == ++b; traversals can "
                     "be repeated (the 'somewhat subtle' requirement "
                     "max_element depends on, Section 3.1)"},
            .description = "multipass traversal"});
  r.define({.name = "BidirectionalIterator",
            .refines = {"ForwardIterator"},
            .expressions = {{"--i", "BidirectionalIterator&"}},
            .complexity = {{"--i", o1}}});
  r.define({.name = "RandomAccessIterator",
            .refines = {"BidirectionalIterator"},
            .expressions = {{"i + n", "RandomAccessIterator"},
                            {"i - j", "difference_type"},
                            {"i[n]", "value_type"}},
            .complexity = {{"i + n", o1}, {"i - j", o1}},
            .description = "constant-time indexed access (enables quicksort "
                           "selection, Section 2.1)"});

  // --- container / sequence concepts ---------------------------------------
  r.define({.name = "Container",
            .associated_types = {{"value_type", ""},
                                 {"iterator", "models ForwardIterator"}},
            .expressions = {{"c.begin()", "iterator"},
                            {"c.end()", "iterator"},
                            {"c.size()", "size_type"}}});
  r.define({.name = "Sequence",
            .refines = {"Container"},
            .expressions = {{"c.insert(p, x)", "iterator"},
                            {"c.erase(p)", "iterator"}}});
  r.define({.name = "RandomAccessContainer",
            .refines = {"Sequence"},
            .associated_types = {{"iterator",
                                  "models RandomAccessIterator"}},
            .expressions = {{"c[n]", "value_type&"}},
            .complexity = {{"c[n]", o1}}});

  // --- graph concepts (Figs. 1 and 2) --------------------------------------
  r.define({.name = "GraphEdge",
            .associated_types = {{"vertex_type", ""}},
            .expressions = {{"source(e)", "Edge::vertex_type"},
                            {"target(e)", "Edge::vertex_type"}},
            .description = "Fig. 1"});
  r.define({.name = "IncidenceGraph",
            .associated_types =
                {{"vertex_type", ""},
                 {"edge_type", "models GraphEdge"},
                 {"out_edge_iterator",
                  "models Iterator; value_type == edge_type"}},
            .expressions = {{"out_edges(v,g)", "out_edge_iterator pair"},
                            {"out_degree(v,g)", "size"}},
            .description = "Fig. 2"});
  r.define({.name = "VertexListGraph",
            .refines = {"IncidenceGraph"},
            .expressions = {{"vertices(g)", "vertex range"},
                            {"num_vertices(g)", "size"}}});
  r.define({.name = "EdgeListGraph",
            .expressions = {{"edges(g)", "edge range"},
                            {"num_edges(g)", "size"}}});

  // --- built-in models with symbol bindings for the rewrite engine ---------
  const auto declare = [&](const std::string& c,
                           std::vector<std::string> args,
                           std::map<std::string, std::string> binding) {
    r.declare_model({c, std::move(args), std::move(binding)});
  };
  // Fig. 5's instance column, as model declarations:
  declare("AbelianGroup", {"int", "+"}, {{"op", "+"}, {"e", "0"}, {"inv", "-"}});
  declare("CommutativeMonoid", {"int", "*"}, {{"op", "*"}, {"e", "1"}});
  declare("AbelianGroup", {"double", "+"},
          {{"op", "+"}, {"e", "0.0"}, {"inv", "-"}});
  // Nonzero floating point under * forms a group (1/f is Fig. 5's f*(1/f)->1).
  declare("AbelianGroup", {"double", "*"},
          {{"op", "*"}, {"e", "1.0"}, {"inv", "reciprocal"}});
  declare("CommutativeMonoid", {"bool", "&&"}, {{"op", "&&"}, {"e", "true"}});
  declare("CommutativeMonoid", {"bool", "||"}, {{"op", "||"}, {"e", "false"}});
  declare("CommutativeMonoid", {"unsigned", "&"},
          {{"op", "&"}, {"e", "0xFFFFFFFF"}});
  declare("CommutativeMonoid", {"unsigned", "|"}, {{"op", "|"}, {"e", "0"}});
  declare("AbelianGroup", {"unsigned", "^"},
          {{"op", "^"}, {"e", "0"}, {"inv", "id"}});
  declare("Monoid", {"string", "concat"}, {{"op", "concat"}, {"e", "\"\""}});
  // All square matrices form a monoid under matmul; Fig. 5's A * A^-1 -> I
  // instance additionally presupposes invertibility (the general linear
  // group), so the expression `inverse(A)` carries the Group binding.
  declare("Group", {"matrix", "matmul"},
          {{"op", "matmul"}, {"e", "I"}, {"inv", "inverse"}});
  declare("Group", {"rational", "*"},
          {{"op", "*"}, {"e", "1"}, {"inv", "reciprocal"}});
  declare("StrictWeakOrder", {"int", "<"}, {{"lt", "<"}});
  declare("StrictWeakOrder", {"string", "<"}, {{"lt", "<"}});
  declare("Field", {"double", "+*"}, {{"op", "+"}, {"mul", "*"}});
  declare("Field", {"complex<float>", "+*"}, {{"op", "+"}, {"mul", "*"}});
  declare("VectorSpace", {"vector<complex<float>>", "float"}, {});
  declare("VectorSpace", {"vector<double>", "double"}, {});
}

}  // namespace cgp::core
