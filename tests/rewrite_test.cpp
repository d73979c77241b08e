// Tests for the Simplicissimus-style concept-based rewrite engine (Fig. 5).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>

#include "rewrite/engine.hpp"
#include "rewrite/eval.hpp"
#include "telemetry/telemetry.hpp"

namespace cgp::rewrite {
namespace {

using E = expr;

simplifier default_simplifier() {
  simplifier s;
  s.add_default_concept_rules();
  return s;
}

// ---------------------------------------------------------------------------
// expr basics
// ---------------------------------------------------------------------------

TEST(Expr, ToString) {
  const expr e = E::binary_op("+", E::var("i", "int"), E::int_lit(0));
  EXPECT_EQ(e.to_string(), "(i + 0)");
  const expr c = E::call_fn("concat", {E::var("s", "string"),
                                       E::string_lit("")}, "string");
  EXPECT_EQ(c.to_string(), "concat(s, \"\")");
}

TEST(Expr, TypePropagatesFromOperands) {
  const expr e = E::binary_op("*", E::var("f", "double"), E::double_lit(1.0));
  EXPECT_EQ(e.type(), "double");
}

TEST(Expr, MatchTypedMetavariable) {
  const expr pat = E::binary_op("+", E::meta("x", "int"), E::int_lit(0));
  const expr yes = E::binary_op("+", E::var("i", "int"), E::int_lit(0));
  const expr no = E::binary_op("+", E::var("d", "double"), E::int_lit(0));
  EXPECT_TRUE(yes.match(pat).has_value());
  EXPECT_FALSE(no.match(pat).has_value());
}

TEST(Expr, MatchRepeatedMetavariableRequiresEquality) {
  const expr pat =
      E::binary_op("^", E::meta("x", "unsigned"), E::meta("x", "unsigned"));
  const expr yes = E::binary_op("^", E::var("u", "unsigned"),
                                E::var("u", "unsigned"));
  const expr no =
      E::binary_op("^", E::var("u", "unsigned"), E::var("v", "unsigned"));
  EXPECT_TRUE(yes.match(pat).has_value());
  EXPECT_FALSE(no.match(pat).has_value());
}

TEST(Expr, ParseLiteralPerType) {
  EXPECT_EQ(parse_literal("0", "int").value(), E::int_lit(0));
  EXPECT_EQ(parse_literal("1.0", "double").value(), E::double_lit(1.0));
  EXPECT_EQ(parse_literal("true", "bool").value(), E::bool_lit(true));
  EXPECT_EQ(parse_literal("0xFFFFFFFF", "unsigned").value(),
            E::uint_lit(0xFFFFFFFFull));
  EXPECT_EQ(parse_literal("\"\"", "string").value(), E::string_lit(""));
  EXPECT_EQ(parse_literal("I", "matrix").value(),
            E::constant("I", "matrix"));
  EXPECT_FALSE(parse_literal("zz", "int").has_value());
}

TEST(Expr, LiteralSpellingMatchesDefaultOstream) {
  const auto ostream_spelling = [](const auto& x) {
    std::ostringstream out;
    out << x;
    return out.str();
  };
  const std::int64_t ints[] = {0, -1, 42,
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t i : ints)
    EXPECT_EQ(value_to_string(i), ostream_spelling(i));
  const std::uint64_t uints[] = {0, 0xFFFFFFFFull,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t u : uints)
    EXPECT_EQ(value_to_string(u), ostream_spelling(u));
  const double inf = std::numeric_limits<double>::infinity();
  const double doubles[] = {0.1, 1e-7, 1e21, 123456789.0, -0.0, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN(),
                            0.0, 1.0, -2.5, 1e-5, 1e-4, 123456.0, 1234567.0,
                            0.333333333, 1e300, 5e-324};
  for (const double d : doubles)
    EXPECT_EQ(value_to_string(d), ostream_spelling(d)) << "double " << d;
  // Constant folding spells the literals it creates the same way.
  simplifier s;
  s.enable_constant_folding();
  const expr folded = s.simplify(
      E::binary_op("*", E::double_lit(123456.0), E::double_lit(10.0)));
  EXPECT_EQ(folded.symbol(), ostream_spelling(1234560.0));
  EXPECT_EQ(folded.to_string(), "1.23456e+06");
}

// ---------------------------------------------------------------------------
// Fig. 5, row 1: x + 0 -> x for (type, op) modeling Monoid
// ---------------------------------------------------------------------------

struct fig5_case {
  const char* name;
  expr input;
  expr expected;
};

// gtest names each instance's `GetParam() = ...` from this printer; its
// default byte dump would print the struct's pointers and padding, which
// differ between runs and rename the discovered tests.
void PrintTo(const fig5_case& c, std::ostream* os) { *os << c.name; }

class Fig5Row1 : public ::testing::TestWithParam<fig5_case> {};

TEST_P(Fig5Row1, GenericMonoidRuleCoversInstance) {
  const simplifier s = default_simplifier();
  std::vector<rewrite_step> trace;
  const expr out = s.simplify(GetParam().input, &trace);
  EXPECT_EQ(out, GetParam().expected) << "got: " << out.to_string();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0].provenance, "Monoid");
}

INSTANTIATE_TEST_SUITE_P(
    Instances, Fig5Row1,
    ::testing::Values(
        fig5_case{"i_times_1",
                  E::binary_op("*", E::var("i", "int"), E::int_lit(1)),
                  E::var("i", "int")},
        fig5_case{"f_times_1",
                  E::binary_op("*", E::var("f", "double"),
                               E::double_lit(1.0)),
                  E::var("f", "double")},
        fig5_case{"b_and_true",
                  E::binary_op("&&", E::var("b", "bool"), E::bool_lit(true)),
                  E::var("b", "bool")},
        fig5_case{"u_bitand_allones",
                  E::binary_op("&", E::var("u", "unsigned"),
                               E::uint_lit(0xFFFFFFFFull)),
                  E::var("u", "unsigned")},
        fig5_case{"concat_empty",
                  E::call_fn("concat",
                             {E::var("s", "string"), E::string_lit("")},
                             "string"),
                  E::var("s", "string")},
        fig5_case{"matmul_identity",
                  E::call_fn("matmul",
                             {E::var("A", "matrix"),
                              E::constant("I", "matrix")},
                             "matrix"),
                  E::var("A", "matrix")},
        fig5_case{"i_plus_0",
                  E::binary_op("+", E::var("i", "int"), E::int_lit(0)),
                  E::var("i", "int")},
        fig5_case{"left_identity_0_plus_i",
                  E::binary_op("+", E::int_lit(0), E::var("i", "int")),
                  E::var("i", "int")}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Fig. 5, row 2: x + (-x) -> 0 for (type, op) modeling Group
// ---------------------------------------------------------------------------

class Fig5Row2 : public ::testing::TestWithParam<fig5_case> {};

TEST_P(Fig5Row2, GenericGroupRuleCoversInstance) {
  simplifier s = default_simplifier();
  s.add_expr_rule(reciprocal_normalization_rule("double"));
  std::vector<rewrite_step> trace;
  const expr out = s.simplify(GetParam().input, &trace);
  EXPECT_EQ(out, GetParam().expected) << "got: " << out.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Instances, Fig5Row2,
    ::testing::Values(
        fig5_case{"i_plus_neg_i",
                  E::binary_op("+", E::var("i", "int"),
                               E::unary_op("-", E::var("i", "int"))),
                  E::int_lit(0)},
        fig5_case{"f_times_recip",
                  E::binary_op("*", E::var("f", "double"),
                               E::binary_op("/", E::double_lit(1.0),
                                            E::var("f", "double"))),
                  E::double_lit(1.0)},
        fig5_case{"xor_self",
                  E::binary_op("^", E::var("u", "unsigned"),
                               E::var("u", "unsigned")),
                  E::uint_lit(0)},
        fig5_case{"left_inverse",
                  E::binary_op("+", E::unary_op("-", E::var("i", "int")),
                               E::var("i", "int")),
                  E::int_lit(0)}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Concept guard: no model, no rewrite
// ---------------------------------------------------------------------------

TEST(Guard, NoRewriteWithoutModel) {
  const simplifier s = default_simplifier();
  // (int, -) is not associative: no Monoid model, so i - 0 must NOT fold.
  const expr e = E::binary_op("-", E::var("i", "int"), E::int_lit(0));
  EXPECT_EQ(s.simplify(e), e);
  // string concat with a non-identity literal.
  const expr c = E::call_fn(
      "concat", {E::var("s", "string"), E::string_lit("x")}, "string");
  EXPECT_EQ(s.simplify(c), c);
  // matmul with a non-identity constant.
  const expr m = E::call_fn(
      "matmul", {E::var("A", "matrix"), E::constant("J", "matrix")},
      "matrix");
  EXPECT_EQ(s.simplify(m), m);
}

TEST(Guard, UnknownTypeIsUntouched) {
  const simplifier s = default_simplifier();
  const expr e =
      E::binary_op("+", E::var("q", "quaternion"), E::int_lit(0));
  EXPECT_EQ(s.simplify(e), e);
}

TEST(Guard, RegistryExtensionEnablesRewrite) {
  // A user-defined type becomes eligible the moment it declares a model —
  // Section 3.2's point 3: optimization comes "for free" with concept
  // analysis of new data types.
  core::concept_registry reg;
  core::register_builtin_concepts(reg);
  simplifier s(reg);
  s.add_default_concept_rules();
  const expr e = E::binary_op("+", E::var("q", "quaternion"),
                              parse_literal("0", "quaternion").value());
  EXPECT_EQ(s.simplify(e), e);  // not yet declared
  reg.declare_model({"Monoid", {"quaternion", "+"},
                     {{"op", "+"}, {"e", "0"}}});
  EXPECT_EQ(s.simplify(e), E::var("q", "quaternion"));
}

TEST(Guard, UnmodelledShapeIsMemoizedToo) {
  // (int, -) has no model; the memo stores that answer like any other, so
  // a second visit of the shape is a hit, not another registry scan.
  const simplifier s = default_simplifier();
  const expr e = E::binary_op("-", E::var("i", "int"), E::int_lit(0));
  auto& misses = telemetry::registry::global().get_counter(
      "rewrite.simplifier.instantiation_cache_misses");
  auto& hits = telemetry::registry::global().get_counter(
      "rewrite.simplifier.instantiation_cache_hits");
  EXPECT_EQ(s.simplify(e), e);
  const std::uint64_t misses_before = misses.value();
  const std::uint64_t hits_before = hits.value();
  EXPECT_EQ(s.simplify(e), e);
  EXPECT_EQ(misses.value(), misses_before);
  EXPECT_EQ(hits.value(), hits_before + 1);  // one lookup per operator node
}

TEST(Guard, MovedSimplifierKeepsItsMemoAndTheSourceIsReusable) {
  simplifier a = default_simplifier();
  const expr e = E::binary_op("+", E::var("i", "int"), E::int_lit(0));
  EXPECT_EQ(a.simplify(e), E::var("i", "int"));
  auto& misses = telemetry::registry::global().get_counter(
      "rewrite.simplifier.instantiation_cache_misses");
  const std::uint64_t misses_before = misses.value();
  simplifier b = std::move(a);
  EXPECT_EQ(b.simplify(e), E::var("i", "int"));
  EXPECT_EQ(misses.value(), misses_before);  // the memo moved along
  a.add_default_concept_rules();  // a moved-from simplifier gets a new memo
  EXPECT_EQ(a.simplify(e), E::var("i", "int"));
}

// ---------------------------------------------------------------------------
// Nested and cascading rewrites
// ---------------------------------------------------------------------------

TEST(Cascade, IdentitiesCascadeBottomUp) {
  const simplifier s = default_simplifier();
  // ((i + 0) * 1) + (j + (-j))  ->  i
  const expr i = E::var("i", "int");
  const expr j = E::var("j", "int");
  const expr e = E::binary_op(
      "+",
      E::binary_op("*", E::binary_op("+", i, E::int_lit(0)), E::int_lit(1)),
      E::binary_op("+", j, E::unary_op("-", j)));
  EXPECT_EQ(s.simplify(e), i);
}

TEST(Cascade, TraceRecordsEachStep) {
  const simplifier s = default_simplifier();
  const expr i = E::var("i", "int");
  const expr e = E::binary_op(
      "*", E::binary_op("+", i, E::int_lit(0)), E::int_lit(1));
  std::vector<rewrite_step> trace;
  (void)s.simplify(e, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].rule, "Monoid::right_identity");
  EXPECT_EQ(trace[1].rule, "Monoid::right_identity");
}

// ---------------------------------------------------------------------------
// User extension rules (Section 3.2, LiDIA)
// ---------------------------------------------------------------------------

TEST(UserRules, LidiaInverseSpecialization) {
  simplifier s = default_simplifier();
  s.add_expr_rule(lidia_inverse_rule());
  const expr f = E::var("f", "bigfloat");
  const expr e = E::binary_op("/", E::lit(1.0, "bigfloat"), f);
  const expr out = s.simplify(e);
  EXPECT_EQ(out, E::call_fn("Inverse", {f}, "bigfloat"));
}

TEST(UserRules, UserRulesTakePriorityOverGenericRules) {
  simplifier s = default_simplifier();
  // A (contrived) user rule that rewrites i + 0 to a call; it must win over
  // the generic Monoid rule because library specializations come first.
  s.add_expr_rule({"user:i+0",
                   E::binary_op("+", E::meta("x", "int"), E::int_lit(0)),
                   E::call_fn("noop", {E::meta("x", "int")}, "int"),
                   "user",
                   {}});
  const expr e = E::binary_op("+", E::var("i", "int"), E::int_lit(0));
  const expr out = s.simplify(e);
  EXPECT_EQ(out, E::call_fn("noop", {E::var("i", "int")}, "int"));
}

TEST(UserRules, GuardRestrictsApplication) {
  simplifier s;
  s.add_expr_rule(
      {"guarded",
       E::binary_op("+", E::meta("x", "int"), E::int_lit(0)),
       E::meta("x", "int"),
       "user",
       [](const std::map<std::string, expr>& b) {
         return b.at("x").is(expr::kind::variable);
       }});
  const expr ok = E::binary_op("+", E::var("i", "int"), E::int_lit(0));
  EXPECT_EQ(s.simplify(ok), E::var("i", "int"));
  const expr no = E::binary_op(
      "+", E::binary_op("*", E::var("i", "int"), E::var("j", "int")),
      E::int_lit(0));
  EXPECT_EQ(s.simplify(no), no);
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

TEST(Eval, IntAndBoolAndString) {
  environment env{{"i", std::int64_t{7}}, {"b", true},
                  {"s", std::string("ab")}};
  EXPECT_EQ(std::get<std::int64_t>(evaluate(
                E::binary_op("+", E::var("i", "int"), E::int_lit(3)), env)),
            10);
  EXPECT_EQ(std::get<bool>(evaluate(
                E::binary_op("&&", E::var("b", "bool"), E::bool_lit(false)),
                env)),
            false);
  EXPECT_EQ(std::get<std::string>(evaluate(
                E::call_fn("concat",
                           {E::var("s", "string"), E::string_lit("c")},
                           "string"),
                env)),
            "abc");
}

TEST(Eval, IntegerOverflowWrapsModulo2To64) {
  // Signed overflow is undefined behaviour in C++; the evaluator defines
  // +, -, * on int as two's-complement wraparound instead.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const auto eval_int = [](const char* op, std::int64_t a, std::int64_t b) {
    return std::get<std::int64_t>(
        evaluate(E::binary_op(op, E::int_lit(a), E::int_lit(b)), {}));
  };
  EXPECT_EQ(eval_int("+", kMax, 1), kMin);
  EXPECT_EQ(eval_int("-", kMin, 1), kMax);
  EXPECT_EQ(eval_int("*", kMax, 2), -2);
  EXPECT_EQ(eval_int("*", kMin, -1), kMin);
  EXPECT_EQ(eval_int("+", -5, 3), -2);  // in-range results are unchanged
}

TEST(Eval, ErrorsOnUnboundAndIllTyped) {
  EXPECT_THROW(evaluate(E::var("missing", "int"), {}), eval_error);
  EXPECT_THROW(evaluate(E::binary_op("&&", E::int_lit(1), E::int_lit(0)), {}),
               eval_error);
  EXPECT_THROW(
      evaluate(E::binary_op("/", E::int_lit(1), E::int_lit(0)), {}),
      eval_error);
}

TEST(Eval, MatrixProductAndInverse) {
  const auto m = std::make_shared<const matrix_value>(
      matrix_value{2, 2, {2, 1, 1, 1}});
  environment env{{"A", m},
                  {"I", std::make_shared<const matrix_value>(
                            matrix_value::identity(2))}};
  // A * inverse(A) == I
  const value prod = evaluate(
      E::call_fn("matmul",
                 {E::var("A", "matrix"),
                  E::call_fn("inverse", {E::var("A", "matrix")}, "matrix")},
                 "matrix"),
      env);
  const auto& got = *std::get<std::shared_ptr<const matrix_value>>(prod);
  const matrix_value id = matrix_value::identity(2);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(got.data[i], id.data[i], 1e-9);
}

// Property test: every rewrite is semantics-preserving under random
// environments.  This is the mechanical justification for "the concept-based
// rules are directly ... derivable from the axioms".
class RewriteSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(RewriteSoundness, SimplifyPreservesValue) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::int64_t> ints(-50, 50);
  std::uniform_int_distribution<int> coin(0, 1);

  const simplifier s = default_simplifier();

  // Random int expressions built from +,*,unary- over {i, j, 0, 1}.
  std::function<expr(int)> gen = [&](int depth) -> expr {
    if (depth == 0) {
      switch (coin(rng) * 2 + coin(rng)) {
        case 0:
          return E::var("i", "int");
        case 1:
          return E::var("j", "int");
        case 2:
          return E::int_lit(0);
        default:
          return E::int_lit(1);
      }
    }
    if (coin(rng) == 0)
      return E::unary_op("-", gen(depth - 1));
    return E::binary_op(coin(rng) ? "+" : "*", gen(depth - 1),
                        gen(depth - 1));
  };

  for (int trial = 0; trial < 50; ++trial) {
    const expr e = gen(4);
    const expr simplified = s.simplify(e);
    environment env{{"i", ints(rng)}, {"j", ints(rng)}};
    EXPECT_TRUE(value_equal(evaluate(e, env), evaluate(simplified, env)))
        << e.to_string() << "  vs  " << simplified.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteSoundness,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(Cost, SimplificationReducesModeledCost) {
  simplifier s = default_simplifier();
  s.add_expr_rule(lidia_inverse_rule());
  const cost_model cm;
  const expr f = E::var("f", "bigfloat");
  const expr division = E::binary_op("/", E::lit(1.0, "bigfloat"), f);
  EXPECT_LT(cm.total(s.simplify(division)), cm.total(division));

  const expr A = E::var("A", "matrix");
  const expr matprod =
      E::call_fn("matmul", {A, E::constant("I", "matrix")}, "matrix");
  EXPECT_EQ(cm.total(s.simplify(matprod)), 0.0);
  EXPECT_EQ(cm.total(matprod), 250.0);
}

// ---------------------------------------------------------------------------
// Generic-vs-enumerated rule accounting (the Fig. 5 comparison)
// ---------------------------------------------------------------------------

TEST(RuleAccounting, TwoGenericRulesCoverTenInstances) {
  simplifier generic;
  generic.add_concept_rule({"Monoid", "right_identity"});
  generic.add_concept_rule({"Group", "right_inverse"});
  generic.add_expr_rule(reciprocal_normalization_rule("double"));
  EXPECT_EQ(generic.concept_rule_count(), 2u);

  const std::vector<expr_rule> enumerated = fig5_instance_rules();
  EXPECT_EQ(enumerated.size(), 10u);

  // Every enumerated-rule input is also simplified by the generic engine.
  const expr inputs[] = {
      E::binary_op("*", E::var("i", "int"), E::int_lit(1)),
      E::binary_op("*", E::var("f", "double"), E::double_lit(1.0)),
      E::binary_op("&&", E::var("b", "bool"), E::bool_lit(true)),
      E::binary_op("&", E::var("u", "unsigned"),
                   E::uint_lit(0xFFFFFFFFull)),
      E::call_fn("concat", {E::var("s", "string"), E::string_lit("")},
                 "string"),
      E::call_fn("matmul",
                 {E::var("A", "matrix"), E::constant("I", "matrix")},
                 "matrix"),
      E::binary_op("+", E::var("i", "int"),
                   E::unary_op("-", E::var("i", "int"))),
      E::binary_op("*", E::var("f", "double"),
                   E::binary_op("/", E::double_lit(1.0),
                                E::var("f", "double"))),
  };
  for (const expr& e : inputs)
    EXPECT_NE(generic.simplify(e), e) << "not simplified: " << e.to_string();
}

}  // namespace
}  // namespace cgp::rewrite
