#include "rewrite/engine.hpp"

#include <algorithm>
#include <string_view>

#include "core/mix64.hpp"
#include "rewrite/eval.hpp"
#include "telemetry/trace.hpp"

namespace cgp::rewrite {
namespace {

simplifier::rule_site make_site(std::string name, std::string provenance) {
  telemetry::counter& hits = telemetry::registry::global().get_counter(
      "rewrite.simplifier.rule." + name);
  telemetry::scope_site frame({.frame = "rewrite.rule." + name});
  return {std::move(name), std::move(provenance), &hits, std::move(frame)};
}

// The one fire path of every rule: `make()` builds the rewritten node
// inside the rule's profiler frame, then the hit is counted and traced.
template <class Make>
expr fire(const simplifier::rule_site& site, const expr& e, Make make,
          std::vector<rewrite_step>* trace) {
  const telemetry::scope rule_scope(site.frame);
  expr out = make();
  site.hits->add();
  if (trace)
    trace->push_back({site.name, site.provenance, e.to_string(),
                      out.to_string()});
  return out;
}

// Callers keep the reference in a static and then count lock-free.
telemetry::counter& engine_counter(const std::string& name) {
  return telemetry::registry::global().get_counter("rewrite.simplifier." +
                                                   name);
}

bool is_binary_op_symbol(std::string_view s) {
  static constexpr std::string_view ops[] = {"+",  "-",  "*",  "/",  "%",
                                             "&",  "|",  "^",  "&&", "||",
                                             "<",  "<=", ">",  ">=", "==",
                                             "!="};
  return std::find(std::begin(ops), std::end(ops), s) != std::end(ops);
}

bool is_unary_op_symbol(std::string_view s) {
  return s == "-" || s == "!" || s == "~";
}

}  // namespace

expr pattern_from_term(const core::term& t, const std::string& type) {
  using core::term;
  switch (t.node_kind()) {
    case term::kind::variable:
      return expr::meta(t.symbol(), type);
    case term::kind::constant: {
      if (auto lit = parse_literal(t.symbol(), type)) return *lit;
      return expr::constant(t.symbol(), type);
    }
    case term::kind::apply: {
      // `id(x)` collapses to `x`: self-inverse operations (e.g. xor).
      if (t.symbol() == "id" && t.arity() == 1)
        return pattern_from_term(t.args()[0], type);
      std::vector<expr> children;
      children.reserve(t.arity());
      for (const core::term& a : t.args())
        children.push_back(pattern_from_term(a, type));
      if (t.arity() == 2 && is_binary_op_symbol(t.symbol()))
        return expr::binary_op(t.symbol(), std::move(children[0]),
                               std::move(children[1]), type);
      if (t.arity() == 1 && is_unary_op_symbol(t.symbol()))
        return expr::unary_op(t.symbol(), std::move(children[0]), type);
      return expr::call_fn(t.symbol(), std::move(children), type);
    }
  }
  return expr::constant("<bad-term>", type);
}

void simplifier::add_concept_rule(concept_rule r) {
  std::string name = r.concept_name + "::" + r.axiom_name;
  concept_rules_.emplace_back(std::move(r),
                              make_site(std::move(name), r.concept_name));
  if (instantiation_cache_)
    instantiation_cache_->clear();
  else  // moved from
    instantiation_cache_ = std::make_unique<memo>();
}

void simplifier::add_expr_rule(expr_rule r) {
  expr_rules_.emplace_back(std::move(r), make_site(r.name, r.provenance));
}

void simplifier::add_default_concept_rules() {
  // The two rules of Fig. 5 ...
  add_concept_rule({.concept_name = "Monoid", .axiom_name = "right_identity"});
  add_concept_rule({.concept_name = "Group", .axiom_name = "right_inverse"});
  // ... plus their mirror images, available from the same axioms.
  add_concept_rule({.concept_name = "Monoid", .axiom_name = "left_identity"});
  add_concept_rule({.concept_name = "Group", .axiom_name = "left_inverse"});
}

std::size_t simplifier::shape_hash::operator()(
    const shape_key& k) const noexcept {
  const std::hash<std::string> h;
  const auto& [type, op, generation] = k;
  return core::mix64(h(type) ^ core::mix64(h(op) ^ generation));
}

const simplifier::instantiations& simplifier::instantiate(
    const expr& e) const {
  static telemetry::counter& hits = engine_counter("instantiation_cache_hits");
  static telemetry::counter& misses =
      engine_counter("instantiation_cache_misses");
  shape_key key{e.type(), e.symbol(), registry_->generation()};
  if (const instantiations* hit = instantiation_cache_->find(key)) {
    hits.add();
    return *hit;
  }
  misses.add();
  instantiations insts;
  for (const auto& [r, site] : concept_rules_) {
    std::optional<std::pair<expr, expr>>& inst = insts.emplace_back();
    const auto model =
        registry_->find_model(r.concept_name, {e.type(), e.symbol()});
    if (!model) continue;
    const auto axioms = registry_->all_axioms(r.concept_name);
    const auto ax = std::ranges::find(axioms, r.axiom_name, &core::axiom::name);
    if (ax == axioms.end()) continue;
    // Instantiate the abstract axiom through the symbol binding.
    const auto& rename = model->symbol_binding;
    expr pattern = pattern_from_term(ax->lhs.rename_symbols(rename), e.type());
    expr replacement =
        pattern_from_term(ax->rhs.rename_symbols(rename), e.type());
    if (!r.require_shrink || replacement.size() < pattern.size())
      inst = std::pair{std::move(pattern), std::move(replacement)};
  }
  // Racing simplify() calls may both instantiate the shape; the insert-only
  // map keeps the winner and everyone shares its stable address (losers
  // computed equal values — instantiation is pure).
  return instantiation_cache_->try_emplace(std::move(key), std::move(insts))
      .first->second;
}

std::optional<expr> simplifier::rewrite_at_root(
    const expr& e, std::vector<rewrite_step>* trace) const {
  // Library-specific expression rules take priority (Section 3.2: user
  // extensions often specialize general expressions to faster calls).
  for (const auto& [r, site] : expr_rules_) {
    auto binding = e.match(r.pattern);
    if (!binding) continue;
    if (r.guard && !r.guard(*binding)) continue;
    return fire(site, e, [&] { return r.replacement.substitute(*binding); },
                trace);
  }

  // Generic concept-guarded rules, instantiated for this node's shape.
  if (!concept_rules_.empty() &&
      (e.is(expr::kind::unary) || e.is(expr::kind::binary) ||
       e.is(expr::kind::call))) {
    const instantiations& insts = instantiate(e);
    for (std::size_t ri = 0; ri < insts.size(); ++ri) {
      if (!insts[ri]) continue;
      const auto& [pattern, replacement] = *insts[ri];
      auto binding = e.match(pattern);
      if (!binding) continue;
      return fire(concept_rules_[ri].second, e,
                  [&] { return replacement.substitute(*binding); }, trace);
    }
  }

  // Constant folding: all-literal operands evaluate at rewrite time.
  if (fold_constants_ && !e.children().empty() &&
      std::all_of(e.children().begin(), e.children().end(),
                  [](const expr& c) { return c.is(expr::kind::literal); })) {
    try {
      expr out = expr::lit(evaluate(e, {}), e.type());
      static const rule_site kFold = make_site("constant-fold", "evaluator");
      return fire(kFold, e, [&] { return std::move(out); }, trace);
    } catch (const eval_error&) {
      // Not evaluable (division by zero, unknown call): leave it alone.
    }
  }
  return std::nullopt;
}

std::optional<expr> simplifier::simplify_once(
    const expr& e, std::vector<rewrite_step>* trace) const {
  // Bottom-up: simplify children first so identities cascade outward.  A
  // node is rebuilt only when a child changed; otherwise it is shared.  A
  // binary node visits its right operand first: the step order traces
  // have always recorded.
  const std::vector<expr>& kids = e.children();
  const bool right_first = e.is(expr::kind::binary);
  std::vector<expr> next;  // a copy of `kids` once some child changed
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const std::size_t i = right_first ? kids.size() - 1 - k : k;
    std::optional<expr> c = simplify_once(kids[i], trace);
    if (!c) continue;
    if (next.empty()) next = kids;
    next[i] = std::move(*c);
  }
  std::optional<expr> rebuilt;
  if (!next.empty()) rebuilt = e.with_children(std::move(next));
  if (auto rewritten = rewrite_at_root(rebuilt ? *rebuilt : e, trace))
    return rewritten;
  return rebuilt;
}

expr simplifier::simplify(const expr& e,
                          std::vector<rewrite_step>* trace) const {
  static const telemetry::scope_site kSimplify(
      {.trace = "rewrite.simplifier.simplify",
       .cat = "rewrite",
       .frame = "rewrite.simplifier.simplify"});
  telemetry::scope simplify_scope(kSimplify);
  // When the caller is tracing causally but did not ask for a step vector,
  // record into a local one so the derivation chain still reaches the trace.
  std::vector<rewrite_step> local_steps;
  const bool traced = telemetry::trace::current_context().active();
  std::vector<rewrite_step>* steps =
      trace != nullptr ? trace : (traced ? &local_steps : nullptr);
  const std::size_t first_step = steps != nullptr ? steps->size() : 0;
  static telemetry::counter& calls = engine_counter("simplify_calls");
  static telemetry::counter& pass_count = engine_counter("passes");
  static telemetry::histogram& passes_per_call =
      telemetry::registry::global().get_histogram(
          "rewrite.simplifier.passes_per_call");
  calls.add();
  // Node count strictly decreases on every effective pass for the shipped
  // shrink-checked rules, but user rules may grow terms; cap passes.
  constexpr int kMaxPasses = 64;
  expr cur = e;
  int passes = 0;
  while (passes < kMaxPasses) {
    ++passes;
    std::optional<expr> next = simplify_once(cur, steps);
    if (!next) break;
    cur = std::move(*next);
  }
  pass_count.add(static_cast<std::uint64_t>(passes));
  passes_per_call.record(static_cast<std::uint64_t>(passes));
  if (traced && steps != nullptr) {
    // The full derivation chain, one instant per applied rule, in order.
    for (std::size_t i = first_step; i < steps->size(); ++i) {
      const rewrite_step& s = (*steps)[i];
      telemetry::trace::instant("rewrite.step", "rewrite",
                                {{"rule", s.rule},
                                 {"guard", s.provenance},
                                 {"before", s.before},
                                 {"after", s.after}});
    }
    simplify_scope.arg("input", e.to_string());
    simplify_scope.arg("output", cur.to_string());
    simplify_scope.arg("steps", std::to_string(steps->size() - first_step));
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Fig. 5 instance rules (the traditional-simplifier baseline)
// ---------------------------------------------------------------------------

std::vector<expr_rule> fig5_instance_rules() {
  using E = expr;
  std::vector<expr_rule> rules;
  const auto add = [&](std::string name, expr pat, expr rep) {
    rules.push_back(
        {std::move(name), std::move(pat), std::move(rep), "instance", {}});
  };
  const expr i = E::meta("i", "int");
  const expr f = E::meta("f", "double");
  const expr b = E::meta("b", "bool");
  const expr u = E::meta("u", "unsigned");
  const expr s = E::meta("s", "string");
  const expr A = E::meta("A", "matrix");
  const expr r = E::meta("r", "rational");

  // Row 1 of Fig. 5: x + 0 -> x instances.
  add("i*1->i", E::binary_op("*", i, E::int_lit(1)), i);
  add("f*1.0->f", E::binary_op("*", f, E::double_lit(1.0)), f);
  add("b&&true->b", E::binary_op("&&", b, E::bool_lit(true)), b);
  add("u&0xFFFFFFFF->u",
      E::binary_op("&", u, E::uint_lit(0xFFFFFFFFull)), u);
  add("concat(s,\"\")->s",
      E::call_fn("concat", {s, E::string_lit("")}, "string"), s);
  add("A.I->A",
      E::call_fn("matmul", {A, E::constant("I", "matrix")}, "matrix"), A);

  // Row 2 of Fig. 5: x + (-x) -> 0 instances.
  add("i+(-i)->0", E::binary_op("+", i, E::unary_op("-", i)), E::int_lit(0));
  add("f*(1.0/f)->1.0",
      E::binary_op("*", f, E::binary_op("/", E::double_lit(1.0), f)),
      E::double_lit(1.0));
  add("r*reciprocal(r)->1",
      E::binary_op("*", r, E::call_fn("reciprocal", {r}, "rational")),
      E::lit(1.0, "rational"));
  add("A.inverse(A)->I",
      E::call_fn("matmul", {A, E::call_fn("inverse", {A}, "matrix")},
                 "matrix"),
      E::constant("I", "matrix"));
  return rules;
}

expr_rule lidia_inverse_rule() {
  const expr f = expr::meta("f", "bigfloat");
  return {"lidia:1.0/f->f.Inverse()",
          expr::binary_op("/", expr::lit(1.0, "bigfloat"), f),
          expr::call_fn("Inverse", {f}, "bigfloat"),
          "user",
          {}};
}

std::vector<expr_rule> derived_theorem_rules() {
  using E = expr;
  std::vector<expr_rule> rules;
  for (const char* type : {"int", "double"}) {
    const expr x = E::meta("x", type);
    const expr zero = parse_literal(type == std::string("int") ? "0" : "0.0",
                                    type)
                          .value();
    rules.push_back({std::string("annihilation[") + type + "]",
                     E::binary_op("*", x, zero), zero, "derived-theorem", {}});
    rules.push_back({std::string("annihilation-left[") + type + "]",
                     E::binary_op("*", zero, x), zero, "derived-theorem", {}});
    rules.push_back({std::string("double-negation[") + type + "]",
                     E::unary_op("-", E::unary_op("-", x)), x,
                     "derived-theorem",
                     {}});
  }
  return rules;
}

expr_rule reciprocal_normalization_rule(const std::string& type) {
  const expr x = expr::meta("x", type);
  auto one = parse_literal("1.0", type);
  return {"normalize:1/x->reciprocal(x) [" + type + "]",
          expr::binary_op("/", one.value(), x),
          expr::call_fn("reciprocal", {x}, type),
          "normalization",
          {}};
}

}  // namespace cgp::rewrite
