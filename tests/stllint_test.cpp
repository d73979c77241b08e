// Tests for STLlint: the MiniCpp front end and the concept-level symbolic
// executor (Section 3.1, Fig. 4).
#include <gtest/gtest.h>

#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/stllint.hpp"

namespace cgp::stllint {
namespace {

bool has_diag(const lint_result& r, severity sev, std::string_view needle,
              int line = 0) {
  for (const diagnostic& d : r.diags) {
    if (d.sev != sev) continue;
    if (d.message.find(needle) == std::string::npos) continue;
    if (line != 0 && d.line != line) continue;
    return true;
  }
  return false;
}

int count_diags(const lint_result& r, severity sev, std::string_view needle) {
  int n = 0;
  for (const diagnostic& d : r.diags)
    if (d.sev == sev && d.message.find(needle) != std::string::npos) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// lexer / parser
// ---------------------------------------------------------------------------

TEST(Lexer, TokenizesIteratorDeclaration) {
  diagnostics diags;
  const auto toks =
      tokenize("vector<int>::iterator it = v.begin();", diags);
  EXPECT_TRUE(diags.empty());
  ASSERT_GE(toks.size(), 12u);
  EXPECT_TRUE(toks[0].is(token_kind::keyword, "vector"));
  EXPECT_TRUE(toks[4].is(token_kind::punct, "::"));
  EXPECT_TRUE(toks[5].is(token_kind::keyword, "iterator"));
}

TEST(Lexer, TracksLineNumbers) {
  diagnostics diags;
  const auto toks = tokenize("int a;\nint b;\n  int c;", diags);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[3].line, 2);
  EXPECT_EQ(toks[6].line, 3);
  EXPECT_EQ(toks[6].column, 3);
}

// Lines looked up out of order, past the end and before the start read
// the same from the text as from its split lines.
TEST(Lexer, SourceViewReadsLinesInAnyOrder) {
  const std::string text = "a\nbb\n\nccc";
  const source_view view(text);
  const std::vector<std::string> lines = source_lines(text);
  const source_view split(lines);
  for (const int n : {2, 4, 1, 3, 5, 0, -1, 4, 4, 2})
    EXPECT_EQ(view.line(n), split.line(n)) << "line " << n;
  EXPECT_EQ(view.line(2), "bb");
  EXPECT_EQ(view.line(4), "ccc");
  EXPECT_EQ(view.line(5), "");
}

TEST(Lexer, SkipsCommentsAndReportsBadChars) {
  diagnostics diags;
  const auto toks = tokenize("int a; // c++ comment\n/* block */ int b; @",
                             diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("unexpected character"), std::string::npos);
  int idents = 0;
  for (const auto& t : toks)
    if (t.is(token_kind::identifier)) ++idents;
  EXPECT_EQ(idents, 2);
}

TEST(Parser, ParsesFunctionWithControlFlow) {
  diagnostics diags;
  const auto toks = tokenize(R"(
    int f(vector<int>& v, int n) {
      int total = 0;
      for (int i = 0; i < n; ++i) total = total + i;
      while (!v.empty()) { v.pop_back(); }
      if (total > 10) return total; else return 0;
    }
  )",
                             diags);
  const ast_program p = parse(toks, diags);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.symbols.name(p.functions[0].sym), "f");
  ASSERT_EQ(p.params_of(p.functions[0]).size(), 2u);
  EXPECT_TRUE(p.params_of(p.functions[0])[0].by_ref);
  EXPECT_EQ(p.type_name(p.params_of(p.functions[0])[0].type), "vector<int>");
}

TEST(Parser, RecoversFromBadStatement) {
  diagnostics diags;
  const auto toks = tokenize(R"(
    void f() {
      int x = ;
      int y = 2;
    }
  )",
                             diags);
  const ast_program p = parse(toks, diags);
  EXPECT_FALSE(diags.empty());
  ASSERT_EQ(p.functions.size(), 1u);  // function still produced
}

TEST(Parser, UserTypesAndMemberCalls) {
  diagnostics diags;
  const auto toks = tokenize(R"(
    void f(vector<student_info>& s) {
      student_info rec = s.front();
      s.push_back(rec);
    }
  )",
                             diags);
  const ast_program p = parse(toks, diags);
  EXPECT_TRUE(diags.empty());
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.type_name(p.types[p.params_of(p.functions[0])[0].type].element),
            "student_info");
}

// ---------------------------------------------------------------------------
// Fig. 4: the iterator-invalidation bug
// ---------------------------------------------------------------------------

constexpr const char* kFig4Program = R"(
vector<student_info> extract_fails(vector<student_info>& students) {
  vector<student_info> fail;
  vector<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      fail.push_back(*iter);
      students.erase(iter);
    } else
      ++iter;
  }
  return fail;
}
)";

TEST(Fig4, DetectsSingularIteratorDereference) {
  const lint_result r = lint_source(kFig4Program);
  // The paper's exact warning, anchored at the `if (fgrade(*iter))` line.
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator", 6))
      << r.to_string();
  // The echoed source line matches the paper's output.
  bool found_echo = false;
  for (const diagnostic& d : r.diags)
    if (d.line == 6 && d.source_line == "if (fgrade(*iter)) {")
      found_echo = true;
  EXPECT_TRUE(found_echo) << r.to_string();
}

TEST(Fig4, FixedProgramIsClean) {
  // The canonical fix: use erase's return value.
  constexpr const char* fixed = R"(
vector<student_info> extract_fails(vector<student_info>& students) {
  vector<student_info> fail;
  vector<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      fail.push_back(*iter);
      iter = students.erase(iter);
    } else
      ++iter;
  }
  return fail;
}
)";
  const lint_result r = lint_source(fixed);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Fig4, ListVariantIsAlsoBuggy) {
  // list::erase invalidates only the erased iterator — but the loop keeps
  // using exactly that iterator, so the bug remains.
  constexpr const char* listy = R"(
void extract_fails(list<student_info>& students) {
  list<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      students.erase(iter);
    } else
      ++iter;
  }
}
)";
  const lint_result r = lint_source(listy);
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator"))
      << r.to_string();
}

TEST(Fig4, ListEraseOfOtherIteratorKeepsLoopValid) {
  // For list, erasing a *different* iterator must not invalidate the loop
  // iterator (node-based container).
  constexpr const char* ok = R"(
void drop_first(list<int>& l) {
  list<int>::iterator first = l.begin();
  list<int>::iterator it = l.begin();
  ++it;
  l.erase(first);
  while (it != l.end()) {
    use(*it);
    ++it;
  }
}
)";
  const lint_result r = lint_source(ok);
  EXPECT_EQ(count_diags(r, severity::warning, "singular"), 0)
      << r.to_string();
}

TEST(Fig4, VectorEraseOfOtherIteratorInvalidatesEverything) {
  constexpr const char* bad = R"(
void drop_first(vector<int>& v) {
  vector<int>::iterator first = v.begin();
  vector<int>::iterator it = v.begin();
  ++it;
  v.erase(first);
  use(*it);
}
)";
  const lint_result r = lint_source(bad);
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator", 7))
      << r.to_string();
}

// ---------------------------------------------------------------------------
// Basic invalidation and range rules
// ---------------------------------------------------------------------------

TEST(Invalidation, PushBackInvalidatesVectorIterators) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator", 5));
}

TEST(Invalidation, PushBackDoesNotInvalidateListIterators) {
  const lint_result r = lint_source(R"(
void f(list<int>& v) {
  list<int>::iterator it = v.begin();
  v.push_back(1);
  use(*it);
}
)");
  EXPECT_EQ(count_diags(r, severity::warning, "singular"), 0)
      << r.to_string();
}

TEST(Invalidation, ClearInvalidatesEverything) {
  const lint_result r = lint_source(R"(
void f(list<int>& v) {
  list<int>::iterator it = v.begin();
  v.clear();
  use(*it);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator"));
}

TEST(Invalidation, UninitializedIteratorIsSingular) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int>::iterator it;
  use(*it);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning, "uninitialized"));
}

TEST(Ranges, DereferencingEndIterator) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  use(*v.end());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a past-the-end iterator"));
}

TEST(Ranges, DereferencingBeginOfEmptyContainer) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  use(*v.begin());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning, "past-the-end"));
}

TEST(Ranges, BeginOfNonEmptyKnownContainerIsFine) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.push_back(1);
  use(*v.begin());
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Ranges, EmptinessRefinementThroughBranch) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  if (!v.empty()) {
    use(*v.begin());
  }
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Ranges, MixedRangeAcrossContainers) {
  const lint_result r = lint_source(R"(
void f(vector<int>& a, vector<int>& b) {
  sort(a.begin(), b.end());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning, "spans different containers"));
}

TEST(Ranges, ComparingIteratorsOfDifferentContainers) {
  const lint_result r = lint_source(R"(
void f(vector<int>& a, vector<int>& b) {
  vector<int>::iterator x = a.begin();
  vector<int>::iterator y = b.begin();
  if (x == y) { use(1); }
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "comparison of iterators from different containers"));
}

TEST(Ranges, DecrementAtBegin) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  --it;
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "decrement an iterator already at the beginning"));
}

TEST(Ranges, EraseFromEmptyContainer) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.erase(v.begin());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning, "erase from an empty container"));
}

TEST(Ranges, FrontOnEmptyContainer) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  use(v.front());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning, "front() on an empty container"));
}

// ---------------------------------------------------------------------------
// Multipass / iterator-concept requirements (Section 3.1's archetypes)
// ---------------------------------------------------------------------------

TEST(Concepts, MaxElementOnInputStreamViolatesMultipass) {
  const lint_result r = lint_source(R"(
void f(input_stream<int>& s) {
  max_element(s.begin(), s.end());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "'max_element' requires a model of ForwardIterator"));
  EXPECT_TRUE(has_diag(r, severity::warning, "multipass"));
}

TEST(Concepts, FindOnInputStreamIsFine) {
  const lint_result r = lint_source(R"(
void f(input_stream<int>& s) {
  find(s.begin(), s.end(), 42);
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Concepts, SecondTraversalOfInputStream) {
  const lint_result r = lint_source(R"(
void f(input_stream<int>& s) {
  find(s.begin(), s.end(), 1);
  find(s.begin(), s.end(), 2);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "second traversal of single-pass sequence"));
}

TEST(Concepts, SortOnListRequiresRandomAccess) {
  const lint_result r = lint_source(R"(
void f(list<double>& l) {
  sort(l.begin(), l.end());
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "'sort' requires a model of RandomAccessIterator"));
}

TEST(Concepts, ListMemberSortIsTheRightTool) {
  const lint_result r = lint_source(R"(
void f(list<double>& l) {
  l.sort();
  bool found = binary_search(l.begin(), l.end(), 3.5);
}
)");
  EXPECT_EQ(count_diags(r, severity::warning, "RandomAccessIterator"), 0);
  EXPECT_EQ(count_diags(r, severity::warning, "sorted"), 0) << r.to_string();
}

TEST(Concepts, ReverseOnSetIsFineBidirectional) {
  const lint_result r = lint_source(R"(
void f(set<int>& s) {
  reverse(s.begin(), s.end());
}
)");
  // Bidirectional suffices for reverse.
  EXPECT_EQ(count_diags(r, severity::warning, "requires a model"), 0);
}

// ---------------------------------------------------------------------------
// Sortedness: entry/exit handlers and the optimization advisory (Section 3.2)
// ---------------------------------------------------------------------------

TEST(Sortedness, BinarySearchOnUnsortedContainerWarns) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.push_back(3);
  v.push_back(1);
  bool found = binary_search(v.begin(), v.end(), 2);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "requires the range [first, last) to be sorted"));
}

TEST(Sortedness, SortEstablishesThePostcondition) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.push_back(3);
  v.push_back(1);
  sort(v.begin(), v.end());
  bool found = binary_search(v.begin(), v.end(), 2);
}
)");
  EXPECT_EQ(count_diags(r, severity::warning, "to be sorted"), 0)
      << r.to_string();
}

TEST(Sortedness, SetIsAlwaysSorted) {
  const lint_result r = lint_source(R"(
void f(set<int>& s) {
  bool found = binary_search(s.begin(), s.end(), 2);
}
)");
  EXPECT_EQ(count_diags(r, severity::warning, "to be sorted"), 0);
}

TEST(Sortedness, PushBackAfterSortBreaksThePostcondition) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.push_back(3);
  v.push_back(1);
  sort(v.begin(), v.end());
  v.push_back(0);
  bool found = binary_search(v.begin(), v.end(), 2);
}
)");
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "requires the range [first, last) to be sorted"));
}

TEST(Advisory, SortThenLinearFindSuggestsLowerBound) {
  // The Section 3.2 example, message verbatim.
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  sort(v.begin(), v.end());
  vector<int>::iterator i = find(v.begin(), v.end(), 42);
}
)");
  EXPECT_TRUE(has_diag(
      r, severity::advice,
      "the incoming sequence [first, last) is sorted, but will be searched "
      "linearly with this algorithm. Consider replacing this algorithm with "
      "one specialized for sorted sequences (e.g., lower_bound)"))
      << r.to_string();
}

TEST(Advisory, FindOnUnsortedContainerIsSilent) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.push_back(2);
  v.push_back(1);
  vector<int>::iterator i = find(v.begin(), v.end(), 42);
}
)");
  EXPECT_EQ(count_diags(r, severity::advice, "sorted"), 0) << r.to_string();
}

TEST(Advisory, CanBeDisabled) {
  options opt;
  opt.advisories = false;
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  sort(v.begin(), v.end());
  vector<int>::iterator i = find(v.begin(), v.end(), 42);
}
)",
                                    opt);
  EXPECT_EQ(count_diags(r, severity::advice, "sorted"), 0);
}

TEST(Advisory, LowerBoundOnSortedRangeIsTheFix) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  sort(v.begin(), v.end());
  vector<int>::iterator i = lower_bound(v.begin(), v.end(), 42);
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(count_diags(r, severity::advice, "sorted"), 0);
}

// ---------------------------------------------------------------------------
// Loops, joins, and healing
// ---------------------------------------------------------------------------

TEST(Loops, StandardIterationIsClean) {
  const lint_result r = lint_source(R"(
int sum(vector<int>& v) {
  int total = 0;
  vector<int>::iterator it = v.begin();
  while (it != v.end()) {
    total = total + deref(*it);
    ++it;
  }
  return total;
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Loops, ForLoopOverContainerIsClean) {
  const lint_result r = lint_source(R"(
void f(list<int>& l) {
  for (list<int>::iterator it = l.begin(); it != l.end(); ++it) {
    use(*it);
  }
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Loops, SingularWarningReportedExactlyOnce) {
  const lint_result r = lint_source(kFig4Program);
  EXPECT_EQ(count_diags(r, severity::warning,
                        "attempt to dereference a singular iterator"),
            1)
      << r.to_string();
}

TEST(Loops, BreakStateReachesLoopExit) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  while (it != v.end()) {
    if (found(*it)) { v.erase(it); break; }
    ++it;
  }
  use(*it);
}
)");
  // After the break, `it` was invalidated by erase.
  EXPECT_TRUE(has_diag(r, severity::warning,
                       "attempt to dereference a singular iterator", 8))
      << r.to_string();
}

// Nested loops multiply their passes; past a budget a loop gets one pass,
// so 60 nested loops cost a bounded number of passes instead of 3^60.
TEST(Loops, DeepNestingRunsBoundedPasses) {
  std::string src = "void f(int c) {\n  int i = 0;\n";
  for (int k = 0; k < 60; ++k) src += "  while (c > 0) {\n";
  src += "  i = i + 1;\n";
  for (int k = 0; k < 60; ++k) src += "  }\n";
  const lint_result r = lint_source(src + "}\n");
  EXPECT_LE(r.stats.loop_passes, 1024u * 60);
  EXPECT_TRUE(has_diag(r, severity::note, "analyzed in one pass"));
  EXPECT_FALSE(has_diag(r, severity::error, ""));
}

TEST(Loops, IntBoundedLoopRefinesInterval) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  use(*v.begin());
}
)");
  // After at least one push_back the container may be non-empty; the
  // dereference must not be flagged as definitely past-the-end.
  EXPECT_EQ(count_diags(r, severity::warning, "past-the-end"), 0)
      << r.to_string();
}

TEST(Sema, UndeclaredVariable) {
  const lint_result r = lint_source(R"(
void f() {
  use(nonexistent);
}
)");
  EXPECT_TRUE(has_diag(r, severity::error, "undeclared variable"));
}

// ---------------------------------------------------------------------------
// nesting limit: hostile nesting ends in one diagnostic, never a crash
// ---------------------------------------------------------------------------

// Each program's nesting depth is its construct count plus a fixed
// overhead: a declaration statement and its initializer expression (2)
// around parentheses; the innermost condition or `return;` (1) inside
// `if`s; nothing around blocks nested in a function body.
std::string nested_parens(int n) {
  return "void f() {\n  int x = " + std::string(n, '(') + "1" +
         std::string(n, ')') + ";\n}\n";
}
std::string nested_ifs(int n) {
  std::string src = "void f(int c) {\n";
  for (int i = 0; i < n; ++i) src += "if (c) ";
  return src + "return;\n}\n";
}
std::string nested_blocks(int n) {
  return "void f() {" + std::string(n, '{') + std::string(n, '}') + "}\n";
}
std::string nested_if_blocks(int n) {
  std::string src = "void f(int c) {\n";
  for (int i = 0; i < n; ++i) src += "if (c) {";
  return src + std::string(n, '}') + "}\n";
}
std::string long_sum(int n) {
  std::string src = "void f(int c) {\n  c = c";
  for (int i = 0; i < n; ++i) src += " + c";
  return src + ";\n}\n";
}

int errors(const lint_result& r) { return count_diags(r, severity::error, ""); }

TEST(Parser, AcceptsNestingAtTheDepthLimit) {
  for (const std::string& src :
       {nested_parens(kMaxParseDepth - 2), nested_ifs(kMaxParseDepth - 1),
        nested_blocks(kMaxParseDepth)}) {
    const lint_result r = lint_source(src);
    EXPECT_EQ(errors(r), 0) << src.substr(0, 80);
  }
}

TEST(Parser, RejectsNestingPastTheDepthLimit) {
  for (const std::string& src :
       {nested_parens(kMaxParseDepth - 1), nested_ifs(kMaxParseDepth),
        nested_blocks(kMaxParseDepth + 1)}) {
    const lint_result r = lint_source(src);
    EXPECT_EQ(errors(r), 1) << src.substr(0, 80);
    EXPECT_EQ(count_diags(r, severity::error, "nesting deeper than"), 1);
  }
}

// Inputs that overflowed the stack before the parser had a depth limit: a
// flat chain of operators builds a tree as deep as a nested one.
TEST(Parser, DeepNestingProbesEndInADiagnostic) {
  for (const std::string& src :
       {nested_parens(4000), nested_if_blocks(20000), long_sum(20000)}) {
    const lint_result r = lint_source(src);
    EXPECT_EQ(count_diags(r, severity::error, "nesting deeper than"), 1);
  }
}

// A partial tree (here an `if` whose condition did not parse, as at the
// nesting limit) must still analyze.
TEST(Parser, IfWithoutConditionStillAnalyzes) {
  const lint_result r = lint_source("void f(int c) { if () c++; }");
  EXPECT_TRUE(has_diag(r, severity::error, "expected an expression"));
}

TEST(Stats, CountsWork) {
  const lint_result r = lint_source(kFig4Program);
  EXPECT_EQ(r.stats.functions, 1u);
  EXPECT_GT(r.stats.statements, 5u);
  EXPECT_GT(r.stats.expressions, 10u);
  EXPECT_GT(r.stats.loop_passes, 0u);
}

// Diagnostics accumulate across runs, but deduplication is per program: a
// second program whose report has the same line, column, message and
// arguments as one from an earlier run still gets its own diagnostic.
TEST(Analyzer, EachRunReportsItsOwnProgramsDiagnostics) {
  constexpr std::string_view first = R"(
void f(vector<int>& v) {
  use(*v.end());
}
)";
  constexpr std::string_view second = R"(
void g(vector<int>& v) {
  use(*v.end());
  v.clear();
}
)";
  analyzer a;
  for (const std::string_view src : {first, second}) {
    diagnostics parse_diags;
    const ast_program program = parse(tokenize(src, parse_diags), parse_diags);
    ASSERT_TRUE(parse_diags.empty());
    a.run(program, src);
  }
  int past_end = 0;
  for (const diagnostic& d : a.diags())
    if (d.message.find("past-the-end") != std::string::npos) {
      EXPECT_EQ(d.line, 3);
      ++past_end;
    }
  EXPECT_EQ(past_end, 2);
}

}  // namespace
}  // namespace cgp::stllint
