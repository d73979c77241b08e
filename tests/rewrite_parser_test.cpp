// Tests for the textual rewrite-expression front end.
#include <gtest/gtest.h>

#include "rewrite/engine.hpp"
#include "rewrite/eval.hpp"
#include "rewrite/parser.hpp"

namespace cgp::rewrite {
namespace {

using E = expr;
const std::map<std::string, std::string> kIntEnv{{"i", "int"}, {"j", "int"}};

TEST(Parser, LiteralsAndVariables) {
  EXPECT_EQ(parse_expr("42", {}), E::int_lit(42));
  EXPECT_EQ(parse_expr("1.5", {}), E::double_lit(1.5));
  EXPECT_EQ(parse_expr("0xFF", {}), E::uint_lit(0xFF));
  EXPECT_EQ(parse_expr("true", {}), E::bool_lit(true));
  EXPECT_EQ(parse_expr("\"hi\"", {}), E::string_lit("hi"));
  EXPECT_EQ(parse_expr("i", kIntEnv), E::var("i", "int"));
}

TEST(Parser, PrecedenceAndParens) {
  // i + j * 2 parses as i + (j * 2).
  const expr e = parse_expr("i + j * 2", kIntEnv);
  ASSERT_TRUE(e.is(expr::kind::binary));
  EXPECT_EQ(e.symbol(), "+");
  EXPECT_EQ(e.children()[1].symbol(), "*");
  // (i + j) * 2 respects the parens.
  const expr p = parse_expr("(i + j) * 2", kIntEnv);
  EXPECT_EQ(p.symbol(), "*");
  EXPECT_EQ(p.children()[0].symbol(), "+");
}

TEST(Parser, UnaryAndCalls) {
  EXPECT_EQ(parse_expr("-i", kIntEnv),
            E::unary_op("-", E::var("i", "int")));
  const expr c = parse_expr("concat(s, \"\")", {{"s", "string"}});
  EXPECT_EQ(c, E::call_fn("concat",
                          {E::var("s", "string"), E::string_lit("")},
                          "string"));
}

TEST(Parser, MetavariablesMakePatterns) {
  const expr pat = parse_expr("?x + 0", {{"?x", "int"}});
  const expr subject = parse_expr("(i * j) + 0", kIntEnv);
  const auto binding = subject.match(pat);
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->at("x").to_string(), "(i * j)");
}

TEST(Parser, ParsedExpressionsSimplifyAndEvaluate) {
  simplifier s;
  s.add_default_concept_rules();
  const expr e = parse_expr("(i + 0) * 1 + (j + -j)", kIntEnv);
  EXPECT_EQ(s.simplify(e), E::var("i", "int"));
  const environment env{{"i", std::int64_t{4}}, {"j", std::int64_t{9}}};
  EXPECT_EQ(std::get<std::int64_t>(evaluate(e, env)), 4);
}

TEST(Parser, ParseRuleRoundTrip) {
  simplifier s;
  s.add_expr_rule(parse_rule("user:square", "?x * ?x", "square(?x)",
                             {{"?x", "int"}, {"square", "int"}}));
  const expr e = parse_expr("i * i", kIntEnv);
  EXPECT_EQ(s.simplify(e).to_string(), "square(i)");
}

TEST(Parser, Errors) {
  EXPECT_THROW((void)parse_expr("i +", kIntEnv), parse_error);
  EXPECT_THROW((void)parse_expr("(i", kIntEnv), parse_error);
  EXPECT_THROW((void)parse_expr("\"unterminated", {}), parse_error);
  EXPECT_THROW((void)parse_expr("?x", {}), parse_error);  // untyped meta
  EXPECT_THROW((void)parse_expr("i @ j", kIntEnv), parse_error);
  EXPECT_THROW((void)parse_expr("i j", kIntEnv), parse_error);
}

// A number token is read whole or rejected: an exponent makes a double,
// and trailing characters or an out-of-range value are parse errors, not
// a silently shorter number.
TEST(Parser, NumbersAreReadWholeOrRejected) {
  EXPECT_EQ(parse_expr("1e3", {}), E::double_lit(1000.0));
  EXPECT_EQ(parse_expr("2.5E-1", {}), E::double_lit(0.25));
  EXPECT_EQ(parse_expr("1e+2", {}), E::double_lit(100.0));
  EXPECT_EQ(parse_expr("0xfe", {}), E::uint_lit(0xfe));
  EXPECT_NE(parse_expr("i + 1e3", {{"i", "double"}}),
            parse_expr("i + 1", {{"i", "double"}}));
  for (const char* bad :
       {"i + 1.01.0", "i + 0..0", "i + 12abc", "i + 1e", "i + 1e+",
        "i + 0x", "i + 0x1g", "i + 0x1.5", "i + 99999999999999999999",
        "i + 1e999", "i + 0xfffffffffffffffff"})
    EXPECT_THROW((void)parse_expr(bad, kIntEnv), parse_error) << bad;
}

// A double literal prints in a form that reads back as the same double:
// `x + 0.0` prints as `(x + 0.0)`, not as `(x + 0)` with an int literal,
// and no digit is cut.
TEST(Parser, DoubleSpellingsReparseAsTheSameDouble) {
  for (const double d : {0.0, 1.0, 0.1, 123456.789, 1e21, 5e-324,
                         9007199254740994.0 /* 2^53 + 2 */}) {
    const expr l = E::double_lit(d);
    EXPECT_EQ(parse_expr(l.to_string(), {}), l) << l.to_string();
    const expr sum = E::binary_op("+", E::var("x", "double"), l);
    EXPECT_EQ(parse_expr(sum.to_string(), {{"x", "double"}}), sum)
        << sum.to_string();
  }
  EXPECT_EQ(E::binary_op("+", E::var("x", "double"), E::double_lit(0.0))
                .to_string(),
            "(x + 0.0)");
}

std::string nested(int depth, const std::string& open,
                   const std::string& close) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += "i";
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

TEST(Parser, AcceptsNestingAtTheDepthLimit) {
  const int n = kMaxParseDepth;
  EXPECT_EQ(parse_expr(nested(n, "(", ")"), kIntEnv), E::var("i", "int"));
  const expr negations = parse_expr(nested(n, "-", ""), kIntEnv);
  EXPECT_EQ(negations.size(), static_cast<std::size_t>(n) + 1);
  const expr calls = parse_expr(nested(n, "f(", ")"), kIntEnv);
  EXPECT_EQ(calls.size(), static_cast<std::size_t>(n) + 1);
  // The three kinds share one budget: two levels per "-f(" or "(-".
  EXPECT_NO_THROW((void)parse_expr(nested(n / 2, "-f(", ")"), kIntEnv));
  EXPECT_NO_THROW((void)parse_expr(nested(n / 2, "(-", ")"), kIntEnv));
}

TEST(Parser, RejectsNestingPastTheDepthLimit) {
  const int over = kMaxParseDepth + 1;
  EXPECT_THROW((void)parse_expr(nested(over, "(", ")"), kIntEnv),
               parse_error);
  EXPECT_THROW((void)parse_expr(nested(over, "-", ""), kIntEnv), parse_error);
  EXPECT_THROW((void)parse_expr(nested(over, "f(", ")"), kIntEnv),
               parse_error);
  EXPECT_THROW(
      (void)parse_expr("(" + nested(over / 2, "-f(", ")") + ")", kIntEnv),
      parse_error);
  // 2,000 parentheses (a 4 KB string) used to overflow the stack.
  EXPECT_THROW((void)parse_expr(nested(2000, "(", ")"), kIntEnv),
               parse_error);
  EXPECT_THROW((void)parse_rule("deep", nested(over, "(", ")"), "i",
                                kIntEnv),
               parse_error);
  try {
    (void)parse_expr(nested(over, "(", ")"), kIntEnv);
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("nests deeper than"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, UnmappedIdentifierBecomesNamedConstant) {
  const expr e = parse_expr("matmul(A, I)", {{"A", "matrix"}});
  EXPECT_EQ(e.children()[1].node_kind(), expr::kind::named_const);
  // ... which is exactly what the Monoid rule folds.
  simplifier s;
  s.add_default_concept_rules();
  EXPECT_EQ(s.simplify(e), E::var("A", "matrix"));
}

}  // namespace
}  // namespace cgp::rewrite
