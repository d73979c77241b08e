// Allocation behaviour of STLlint's symbolic executor: branch and loop
// states recycle their buffers, so the number of allocations an analysis
// makes does not grow with the number of loop passes it runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

// Whole-binary counting operator new/delete.
#include "alloc_hook.hpp"
#include "stllint/analyzer.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"

namespace cgp::stllint {
namespace {

// Tokens and abstract states are plain data: copying one never allocates.
static_assert(std::is_trivially_copyable_v<token>);
static_assert(std::is_trivially_copyable_v<container_state>);
static_assert(std::is_trivially_copyable_v<abstract_value>);

// `i` widens on every pass, so the loop never reaches a fixpoint and runs
// exactly max_loop_passes passes, each through a branch.
constexpr const char* kNeverConverges = R"(
void f(vector<int>& v, int n) {
  vector<int>::iterator it = v.begin();
  int i = 0;
  while (n > 0) {
    if (v.empty()) {
      i = i + 1;
    } else {
      i = i + 2;
      ++it;
    }
  }
}
)";

struct analysis {
  std::size_t allocations = 0;
  std::size_t loop_passes = 0;
  std::size_t diagnostics = 0;
};

analysis analyze(const ast_program& program,
                 const std::vector<std::string>& lines, int passes) {
  analyzer a({.max_loop_passes = passes});
  const std::size_t before = g_alloc_calls.load();
  a.run(program, lines);
  const std::size_t after = g_alloc_calls.load();
  return {after - before, a.statistics().loop_passes, a.diags().size()};
}

TEST(StllintAlloc, LoopPassesDoNotAllocate) {
  diagnostics diags;
  const std::vector<token> toks = tokenize(kNeverConverges, diags);
  const ast_program program = parse(toks, diags);
  ASSERT_TRUE(diags.empty());
  const std::vector<std::string> lines = source_lines(kNeverConverges);
  (void)analyze(program, lines, 2);  // resolves the telemetry handles

  const analysis four = analyze(program, lines, 4);
  const analysis sixteen = analyze(program, lines, 16);
  ASSERT_EQ(four.loop_passes, 4u);
  ASSERT_EQ(sixteen.loop_passes, 16u);
  EXPECT_EQ(four.diagnostics, 0u);
  EXPECT_EQ(sixteen.diagnostics, 0u);
  EXPECT_GT(four.allocations, 0u);  // the hook really counts
  EXPECT_EQ(four.allocations, sixteen.allocations)
      << "4 passes allocated " << four.allocations << " times, 16 passes "
      << sixteen.allocations << " times";
}

}  // namespace
}  // namespace cgp::stllint
