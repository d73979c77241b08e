// Golden rewriting for Simplicissimus: the safety net under engine
// refactors.
//
// Thousands of seeded `check::generate_expr` trees over int, unsigned and
// double, the ten Fig. 5 instances through both the generic and the
// enumerated rule sets, and the LiDIA rule are simplified, and a hash of
// every output's `to_string` and of every step of its trace (rule,
// provenance, before, after) is compared against values recorded when the
// test was introduced.  A refactor that changes any byte of any output or
// step fails here.  The same corpus also goes through `simplify_batch` on a
// three-worker pool with a cold memo and must give the same output hash.
// The golden values are never edited to make a change pass; a deliberate
// change of rewriting behaviour is the only reason to re-record them, and
// must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/expr_gen.hpp"
#include "check/gen.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "rewrite/batch.hpp"
#include "rewrite/engine.hpp"

namespace cgp::rewrite {
namespace {

using E = expr;

constexpr std::uint64_t kCorpusSeed = 0x5e1f;
constexpr std::size_t kCorpusSize = 3000;
/// Output hash of the corpus under the `simplify_batch` configuration,
/// serial or batched.
constexpr std::uint64_t kBatchConfigOutputs = 0x027144fb37499587ull;

/// FNV-1a over the output strings and, separately, over the step traces.
struct digest {
  std::size_t steps = 0;
  std::uint64_t outputs = 14695981039346656037ull;
  std::uint64_t trace = 14695981039346656037ull;

  static void mix(std::uint64_t& h, const std::string& s) {
    for (const char c : s + '\x1e') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }

  void add_output(const expr& out) { mix(outputs, out.to_string()); }

  void add(const simplifier& s, const expr& e) {
    std::vector<rewrite_step> t;
    add_output(s.simplify(e, &t));
    for (const rewrite_step& st : t) {
      ++steps;
      mix(trace, st.rule);
      mix(trace, st.provenance);
      mix(trace, st.before);
      mix(trace, st.after);
    }
    mix(trace, "");  // expression boundary
  }
};

void expect_golden(const digest& got, std::size_t steps, std::uint64_t outputs,
                   std::uint64_t trace) {
  EXPECT_EQ(got.steps, steps);
  EXPECT_EQ(got.outputs, outputs) << "recorded 0x" << std::hex << got.outputs;
  EXPECT_EQ(got.trace, trace) << "recorded 0x" << std::hex << got.trace;
}

std::vector<expr> corpus() {
  static const char* const kTypes[] = {"int", "unsigned", "double"};
  std::vector<expr> out;
  out.reserve(kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    check::random_source rs(check::case_seed(kCorpusSeed, i));
    const int depth = 1 + static_cast<int>(i % 6);
    out.push_back(check::generate_expr(rs, kTypes[i % 3], depth).e);
  }
  return out;
}

/// The `simplify_batch` workload's configuration.
simplifier batch_simplifier() {
  simplifier s;
  s.add_default_concept_rules();
  s.enable_constant_folding();
  return s;
}

/// Every shipped rule at once: expression rules ahead of concept rules.
simplifier full_simplifier() {
  simplifier s = batch_simplifier();
  for (expr_rule& r : derived_theorem_rules()) s.add_expr_rule(std::move(r));
  s.add_expr_rule(reciprocal_normalization_rule("double"));
  s.add_expr_rule(lidia_inverse_rule());
  return s;
}

// ---------------------------------------------------------------------------
// Generated corpus
// ---------------------------------------------------------------------------

TEST(RewriteGolden, GeneratedCorpusDefaultRulesWithFolding) {
  const simplifier s = batch_simplifier();
  digest got;
  for (const expr& e : corpus()) got.add(s, e);
  expect_golden(got, 5339, kBatchConfigOutputs, 0x23736e1d2e30ed11ull);
}

TEST(RewriteGolden, GeneratedCorpusAllRules) {
  const simplifier s = full_simplifier();
  digest got;
  for (const expr& e : corpus()) got.add(s, e);
  expect_golden(got, 5466, 0x8e33b157e6d206e8ull, 0xa85386ccc7204a88ull);
}

TEST(RewriteGolden, GeneratedCorpusWithoutFolding) {
  simplifier s;
  s.add_default_concept_rules();
  digest got;
  for (const expr& e : corpus()) got.add(s, e);
  expect_golden(got, 3498, 0xb6bed9e70e6554d2ull, 0x3c26fda170a8ef70ull);
}

TEST(RewriteGolden, BatchOnColdMemoMatchesSerialGolden) {
  const std::vector<expr> batch = corpus();
  parallel::work_stealing_pool pool({.workers = 3});
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const simplifier s = batch_simplifier();  // cold memo every round
    digest got;
    for (const expr& out : simplify_batch(s, batch, pool, /*grain=*/4))
      got.add_output(out);
    EXPECT_EQ(got.outputs, kBatchConfigOutputs)
        << "recorded 0x" << std::hex << got.outputs;
  }
}

// ---------------------------------------------------------------------------
// Fig. 5 instances and the LiDIA rule
// ---------------------------------------------------------------------------

std::vector<expr> fig5_inputs() {
  const E i = E::var("i", "int");
  const E f = E::var("f", "double");
  const E b = E::var("b", "bool");
  const E u = E::var("u", "unsigned");
  const E s = E::var("s", "string");
  const E A = E::var("A", "matrix");
  const E r = E::var("r", "rational");
  return {
      E::binary_op("*", i, E::int_lit(1)),
      E::binary_op("*", f, E::double_lit(1.0)),
      E::binary_op("&&", b, E::bool_lit(true)),
      E::binary_op("&", u, E::uint_lit(0xFFFFFFFFull)),
      E::call_fn("concat", {s, E::string_lit("")}, "string"),
      E::call_fn("matmul", {A, E::constant("I", "matrix")}, "matrix"),
      E::binary_op("+", i, E::unary_op("-", i)),
      E::binary_op("*", f, E::binary_op("/", E::double_lit(1.0), f)),
      E::binary_op("*", r, E::call_fn("reciprocal", {r}, "rational")),
      E::call_fn("matmul", {A, E::call_fn("inverse", {A}, "matrix")},
                 "matrix"),
  };
}

TEST(RewriteGolden, Fig5InstancesThroughBothRuleSets) {
  simplifier generic;
  generic.add_concept_rule({"Monoid", "right_identity"});
  generic.add_concept_rule({"Group", "right_inverse"});
  generic.add_expr_rule(reciprocal_normalization_rule("double"));
  simplifier enumerated;
  for (expr_rule& r : fig5_instance_rules()) enumerated.add_expr_rule(r);
  const simplifier defaults = batch_simplifier();

  const simplifier* const rule_sets[] = {&generic, &enumerated, &defaults};
  digest got;
  for (const simplifier* s : rule_sets)
    for (const expr& e : fig5_inputs()) {
      got.add(*s, e);
      // The same instance as both operands of `+` and as both arguments
      // of a call, so it is rewritten below the root as well.
      got.add(*s, E::binary_op("+", e, e, e.type()));
      got.add(*s, E::call_fn("wrap", {e, e}, e.type()));
    }
  expect_golden(got, 153, 0x4b54047e7cd4d525ull, 0x2a73b66f6c88e15dull);
}

TEST(RewriteGolden, LidiaRule) {
  simplifier s;
  s.add_default_concept_rules();
  s.add_expr_rule(lidia_inverse_rule());
  const E f = E::var("f", "bigfloat");
  const E g = E::var("g", "bigfloat");
  const E one = E::lit(1.0, "bigfloat");
  digest got;
  for (const expr& e :
       {E::binary_op("/", one, f),
        E::binary_op("*", E::binary_op("/", one, f), g),
        E::binary_op("/", one, E::binary_op("/", one, f)),
        E::binary_op("/", E::lit(2.0, "bigfloat"), f),
        E::call_fn("sum", {E::binary_op("/", one, f),
                           E::binary_op("/", one, g)},
                   "bigfloat")})
    got.add(s, e);
  expect_golden(got, 6, 0xc7192715039651d2ull, 0xd52e83d7e1b39f49ull);
}

}  // namespace
}  // namespace cgp::rewrite
