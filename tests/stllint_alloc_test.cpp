// Allocation behaviour of STLlint: the parser builds a flat tree with a
// small constant number of allocations and drops it without walking it,
// lint_source moves its diagnostics out instead of copying them, and the
// symbolic executor's branch and loop states recycle their buffers, so the
// number of allocations an analysis makes does not grow with the number of
// loop passes it runs.  Diagnostics are data: a report costs a constant
// number of exactly sized allocations, a repeated one costs none, and a
// kept result holds half the bytes it did when its trail was text.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

// Whole-binary counting operator new/delete.
#include "alloc_hook.hpp"
#include "check/gen.hpp"
#include "check/minicpp_gen.hpp"
#include "stllint/analyzer.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/stllint.hpp"

namespace cgp::stllint {
namespace {

// Tokens and abstract states are plain data: copying one never allocates.
static_assert(std::is_trivially_copyable_v<token>);
static_assert(std::is_trivially_copyable_v<container_state>);
static_assert(std::is_trivially_copyable_v<abstract_value>);
// AST nodes own nothing, so a tree is destroyed by freeing its vectors.
static_assert(std::is_trivially_destructible_v<ast_expr>);
static_assert(std::is_trivially_destructible_v<ast_stmt>);
static_assert(std::is_trivially_destructible_v<mini_type>);
static_assert(std::is_trivially_destructible_v<ast_function>);

/// Allocations made by parsing `source` (its tokens made beforehand).
std::size_t parse_allocations(const std::string& source) {
  diagnostics diags;
  const std::vector<token> toks = tokenize(source, diags);
  const std::size_t before = g_alloc_calls.load();
  const ast_program program = parse(toks, diags);
  return g_alloc_calls.load() - before;
}

TEST(StllintAlloc, ParsingAGeneratedProgramMakesAFewAllocations) {
  for (std::size_t i = 0; i < 200; ++i) {
    const std::string src =
        check::generate_minicpp(check::case_seed(0xa110c, i));
    EXPECT_LE(parse_allocations(src), 32u) << src;
  }
}

/// `n` copies of one function, each with a name of its own.
std::string functions(int n) {
  std::string src;
  for (int f = 0; f < n; ++f)
    src += "int f" + std::to_string(f) +
           "(vector<int>& v, list<int>& l, int n) {\n"
           "  int total = 0;\n"
           "  for (vector<int>::iterator it = v.begin(); it != v.end(); ++it)\n"
           "    total = total + weigh(*it, n * 2);\n"
           "  if (total > 10) l.push_back(total); else v.clear();\n"
           "  while (!l.empty()) { l.pop_back(); }\n"
           "  return total;\n"
           "}\n";
  return src;
}

// Every buffer is sized from the token count, so a larger program adds at
// most the symbol table's doublings (three buffers each time).
TEST(StllintAlloc, ParseAllocationsDoNotGrowWithTheProgram) {
  const std::size_t one = parse_allocations(functions(1));
  EXPECT_LE(one, 32u);
  for (int n = 2; n <= 12; ++n) {
    const std::size_t many = parse_allocations(functions(n));
    EXPECT_LE(many, 32u) << n << " functions";
    EXPECT_LE(many, one + 3) << n << " functions";
  }
}

// lint_source moves the analyzer's diagnostics, provenance trails and all,
// into its result instead of copying them, so it allocates no more than
// its three stages do on their own, plus the result's own bookkeeping.
TEST(StllintAlloc, LintSourceAllocatesNoMoreThanItsStages) {
  std::size_t with_provenance = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::string src =
        check::generate_minicpp(check::case_seed(0x11f7, i));
    (void)lint_source(src);  // resolves the telemetry handles
    const std::size_t before = g_alloc_calls.load();
    {
      diagnostics diags;
      const std::vector<token> toks = tokenize(src, diags);
      const ast_program program = parse(toks, diags);
      analyzer a;
      a.run(program, std::string_view(src));
      for (const diagnostic& d : a.diags())
        with_provenance += d.provenance.empty() ? 0 : 1;
    }
    const std::size_t stages = g_alloc_calls.load() - before;
    const std::size_t start = g_alloc_calls.load();
    const lint_result result = lint_source(src);
    EXPECT_LE(g_alloc_calls.load() - start, stages + 2) << src;
  }
  EXPECT_GT(with_provenance, 100u);  // there were trails to copy
}

// Destroying a tree nested at the parser's depth limit frees exactly as
// many blocks as destroying a flat one: destruction never follows a
// child, so it cannot recurse.
TEST(StllintAlloc, DestroyingTheDeepestTreeDoesNotWalkIt) {
  const auto frees_on_destruction = [](const std::string& source) {
    diagnostics diags;
    const std::vector<token> toks = tokenize(source, diags);
    std::optional<ast_program> program(parse(toks, diags));
    EXPECT_TRUE(diags.empty()) << diags.front().message;
    const std::size_t before = g_free_calls.load();
    program.reset();
    return g_free_calls.load() - before;
  };
  const std::string parens = "void f() {\n  int x = " +
                             std::string(kMaxParseDepth - 2, '(') + "1" +
                             std::string(kMaxParseDepth - 2, ')') + ";\n}\n";
  std::string ifs = "void f(int c) {\n";
  for (int i = 0; i < kMaxParseDepth - 1; ++i) ifs += "if (c) ";
  ifs += "return;\n}\n";
  const std::size_t flat = frees_on_destruction("void f(int c) { c = 1; }");
  EXPECT_LE(flat, 16u);
  EXPECT_EQ(frees_on_destruction(parens), flat);
  EXPECT_EQ(frees_on_destruction(ifs), flat);
}

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

// ---------------------------------------------------------------------------
// Diagnostics as data: text is built once per report, exactly sized, and
// the trail's text only when it is read
// ---------------------------------------------------------------------------

static_assert(sizeof(provenance_step) <= 32);
static_assert(std::is_trivially_copyable_v<provenance_step>);

std::string generated(std::size_t i) {
  return check::generate_minicpp(check::case_seed(0xd1a6, i));
}
constexpr std::size_t kPrograms = 200;

/// Lints every generated program once, so the telemetry handles each
/// severity resolves on its first report are not counted later.
void resolve_handles() {
  for (std::size_t i = 0; i < kPrograms; ++i) (void)lint_source(generated(i));
}

// Per report: its message, its echo, its trail and the trail's names.  The
// constant covers the executor's own buffers and the vectors' growth.
TEST(StllintAlloc, AnalysisAllocatesAConstantPlusFourPerDiagnostic) {
  resolve_handles();
  std::size_t diagnosed = 0;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    const std::string src = generated(i);
    diagnostics diags;
    const std::vector<token> toks = tokenize(src, diags);
    const ast_program program = parse(toks, diags);
    analyzer a;
    const std::size_t before = g_alloc_calls.load();
    a.run(program, std::string_view(src));
    const std::size_t allocations = g_alloc_calls.load() - before;
    EXPECT_LE(allocations, 48 + 4 * a.diags().size()) << src;
    diagnosed += a.diags().empty() ? 0 : 1;
  }
  EXPECT_GT(diagnosed, kPrograms / 2);  // reports were made
}

// Heap bytes the results keep, summed over the generated programs: at most
// half of the 929,993 they kept when each provenance step owned two strings.
TEST(StllintAlloc, ALintResultHoldsAtMostHalfItsTextualForm) {
  resolve_handles();
  std::ptrdiff_t held = 0;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    const std::string src = generated(i);
    const std::ptrdiff_t before = g_live_bytes.load();
    const lint_result r = lint_source(src);
    held += g_live_bytes.load() - before;
  }
  EXPECT_LE(held, 929993 / 2);
}

// A string copied into a cached result keeps its capacity, so every text
// a diagnostic holds is built at exactly its size.
TEST(StllintAlloc, DiagnosticTextIsExactlySized) {
  const std::size_t sso = std::string().capacity();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kPrograms; ++i)
    for (const diagnostic& d : lint_source(generated(i)).diags)
      for (const std::string* text : {&d.message, &d.source_line, &d.names})
        if (text->capacity() > sso) {
          EXPECT_EQ(text->capacity(), text->size()) << *text;
          ++checked;
        }
  EXPECT_GT(checked, kPrograms);
}

// A diagnostic owns everything it shows: a copy renders the same text
// after the source, the program and the analyzer that made it are gone
// (and their memory reused).
TEST(StllintAlloc, ACopiedDiagnosticRendersAlone) {
  diagnostics copies;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 50; ++i) {
    const std::string src = generated(i);
    diagnostics diags;
    const std::vector<token> toks = tokenize(src, diags);
    const auto program = std::make_unique<ast_program>(parse(toks, diags));
    analyzer a;
    a.run(*program, std::string_view(src));
    for (const diagnostic& d : a.diags()) {
      copies.push_back(d);
      expected.push_back(render_caret(d));
    }
  }
  (void)lint_source(generated(kPrograms));  // reuses the freed memory
  ASSERT_GT(copies.size(), 50u);
  for (std::size_t i = 0; i < copies.size(); ++i)
    EXPECT_EQ(render_caret(copies[i]), expected[i]);
}

// The dereference past the end repeats on every pass of a loop that never
// converges: it is reported once, and a repeat builds no text, so the
// analysis allocates the same however many passes it runs.
constexpr const char* kRepeatsItsReport = R"(
void f(vector<int>& v, int n) {
  vector<int>::iterator e = v.end();
  int i = 0;
  while (n > 0) {
    i = i + 1;
    use(*e);
  }
}
)";

TEST(StllintAlloc, ARepeatedReportBuildsNoSecondMessage) {
  diagnostics diags;
  const std::vector<token> toks = tokenize(kRepeatsItsReport, diags);
  const ast_program program = parse(toks, diags);
  ASSERT_TRUE(diags.empty());
  const std::vector<std::string> lines = source_lines(kRepeatsItsReport);
  (void)analyze(program, lines, 2);  // resolves the telemetry handles

  const analysis four = analyze(program, lines, 4);
  const analysis sixteen = analyze(program, lines, 16);
  ASSERT_EQ(four.loop_passes, 4u);
  ASSERT_EQ(sixteen.loop_passes, 16u);
  EXPECT_EQ(four.diagnostics, 1u);
  EXPECT_EQ(sixteen.diagnostics, 1u);
  EXPECT_EQ(four.allocations, sixteen.allocations)
      << "4 passes allocated " << four.allocations << " times, 16 passes "
      << sixteen.allocations << " times";
}

}  // namespace
}  // namespace cgp::stllint
