// Allocation behaviour of the Simplicissimus engine: once a simplifier has
// seen an expression's (type, operator) shapes, simplifying a tree that no
// rule rewrites shares every node and allocates nothing, and a tree that
// does reduce allocates only for the nodes it rebuilds.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

// Whole-binary counting operator new/delete.
#include "alloc_hook.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"

namespace cgp::rewrite {
namespace {

const std::map<std::string, std::string> kTypes{
    {"x", "int"}, {"y", "int"}, {"z", "int"}};

/// The `simplify_batch` workload's configuration.
simplifier batch_simplifier() {
  simplifier s;
  s.add_default_concept_rules();
  s.enable_constant_folding();
  return s;
}

/// Allocations made by one `simplify` of `e`, and its result.
std::size_t allocations(const simplifier& s, const expr& e, expr& out) {
  const std::size_t before = g_alloc_calls.load();
  out = s.simplify(e);
  return g_alloc_calls.load() - before;
}

TEST(RewriteAlloc, WarmedSimplifierSharesAnIrreducibleTree) {
  const simplifier s = batch_simplifier();
  // 9 operators over 10 leaves: no identity, inverse or all-literal node.
  const expr e = parse_expr(
      "(((x + y) * (z - 3)) - ((x * 5) + (y - z))) * (x - 7)", kTypes);
  ASSERT_EQ(e.size(), 19u);
  expr out = e;
  (void)allocations(s, e, out);  // warms the memo and the telemetry handles

  EXPECT_EQ(allocations(s, e, out), 0u);
  EXPECT_EQ(out, e);
  EXPECT_EQ(allocations(s, e, out), 0u);
}

TEST(RewriteAlloc, ReducibleTreeAllocatesOnlyForRebuiltNodes) {
  const simplifier s = batch_simplifier();
  // ((x + 0) * 1) + (y + -y) -> x: four rule fires in one pass.  Each fire
  // allocates its one-entry binding map, and the two rebuilt parents
  // (`x * 1` and `x + 0`) a node and its child vector each.  Nothing else
  // allocates: x, y, -y and the literals are shared.
  const expr e = parse_expr("((x + 0) * 1) + (y + -y)", kTypes);
  expr out = e;
  (void)allocations(s, e, out);

  const std::size_t warm = allocations(s, e, out);
  EXPECT_EQ(out.to_string(), "x");
  EXPECT_GT(warm, 0u);  // the hook really counts
  EXPECT_EQ(warm, 8u);
  EXPECT_EQ(allocations(s, e, out), warm);
}

}  // namespace
}  // namespace cgp::rewrite
