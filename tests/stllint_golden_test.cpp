// Golden diagnostics for STLlint: the safety net under analyzer refactors.
//
// Thousands of seeded, grammar-aware MiniCpp programs (check/minicpp_gen),
// the Fig. 4 programs and the invalidation matrix are linted, and the
// diagnostic count plus a hash of every `render_caret` output (message,
// caret echo and provenance trail) is compared against values recorded
// when the test was introduced.  A refactor that changes any byte of any
// diagnostic fails here.  The golden values are never edited to make a
// change pass; a deliberate change of diagnostic text is the only reason
// to re-record them, and must say so.
//
// Also pinned here: the provenance ring's semantics at several sizes, the
// name order of "becomes singular" notes, and that the generator really
// reaches the whole MiniCpp grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "check/minicpp_gen.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/stllint.hpp"

namespace cgp::stllint {
namespace {

constexpr std::uint64_t kCorpusSeed = 0x57117;

std::string corpus_program(std::size_t i) {
  return check::generate_minicpp(check::case_seed(kCorpusSeed, i));
}

/// Diagnostic count and FNV-1a hash over every rendered diagnostic.
struct digest {
  std::size_t diags = 0;
  std::uint64_t hash = 14695981039346656037ull;

  void add(const lint_result& r) {
    for (const diagnostic& d : r.diags) {
      ++diags;
      for (const char c : render_caret(d) + '\x1e') {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
      }
    }
  }
};

digest lint_corpus(std::size_t count, const options& opt) {
  digest out;
  for (std::size_t i = 0; i < count; ++i)
    out.add(lint_source(corpus_program(i), opt));
  return out;
}

void expect_golden(const digest& got, std::size_t diags, std::uint64_t hash) {
  EXPECT_EQ(got.diags, diags);
  EXPECT_EQ(got.hash, hash) << "recorded 0x" << std::hex << got.hash;
}

// ---------------------------------------------------------------------------
// Generated corpus
// ---------------------------------------------------------------------------

TEST(StllintGolden, GeneratedCorpusDefaultOptions) {
  expect_golden(lint_corpus(2000, {}), 7483, 0x959f9aec7edb1d44ull);
}

TEST(StllintGolden, GeneratedCorpusAtEveryRingSize) {
  struct golden {
    int steps;
    std::uint64_t hash;
  };
  for (const golden g : {golden{0, 0x4a1e888322d32965ull},
                         golden{1, 0x58e940e68fcf12acull},
                         golden{3, 0x9b8480e7ac334fe6ull},
                         golden{24, 0x4f6ca0dbfc5717cfull},
                         golden{100, 0x87301acd5df7914full}}) {
    SCOPED_TRACE("max_provenance_steps = " + std::to_string(g.steps));
    expect_golden(lint_corpus(500, {.max_provenance_steps = g.steps}), 1857,
                  g.hash);
  }
}

TEST(StllintGolden, GeneratedCorpusOtherOptions) {
  expect_golden(lint_corpus(500, {.max_loop_passes = 1, .advisories = false}),
                1750, 0x94353181ea325446ull);
  expect_golden(lint_corpus(500, {.max_loop_passes = 8}), 1857,
                0xa49e09e9664fb7e2ull);
}

// ---------------------------------------------------------------------------
// Fig. 4 programs and the invalidation matrix
// ---------------------------------------------------------------------------

constexpr const char* kFig4Programs[] = {
    R"(
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
)",
    R"(
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
)",
    R"(
void extract_fails(list<student_info>& students) {
  list<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      students.erase(iter);
    } else
      ++iter;
  }
}
)",
    R"(
void drop_first(vector<int>& v) {
  vector<int>::iterator first = v.begin();
  vector<int>::iterator it = v.begin();
  ++it;
  v.erase(first);
  use(*it);
}
)",
    R"(
void lookup(vector<int>& grades) {
  sort(grades.begin(), grades.end());
  vector<int>::iterator i = find(grades.begin(), grades.end(), 42);
  use(*i);
}
)",
};

TEST(StllintGolden, Fig4ProgramsAndInvalidationMatrix) {
  digest got;
  for (const char* src : kFig4Programs)
    for (const int steps : {0, 1, 3, 24})
      got.add(lint_source(src, {.max_provenance_steps = steps}));
  // The invalidation matrix's programs, every kind x mutation pair.
  for (const char* kind : {"vector", "deque", "list", "set", "multiset"})
    for (const char* mutation :
         {"c.push_back(1)", "c.insert(other, 1)", "c.insert(1)",
          "c.erase(other)", "c.erase(it)", "c.clear()", "c.reserve(100)",
          "c.resize(3)", "c.pop_back()", "c.size()"}) {
      const std::string k = kind;
      got.add(lint_source("void f(" + k + "<int>& c) {\n  " + k +
                          "<int>::iterator it = c.begin();\n  " + k +
                          "<int>::iterator other = c.begin();\n  ++other;\n  " +
                          mutation + ";\n  use(*it);\n}\n"));
    }
  expect_golden(got, 43, 0xd9b79d3aab91f668ull);
}

// ---------------------------------------------------------------------------
// Provenance ring semantics and note order
// ---------------------------------------------------------------------------

constexpr const char* kRingProgram = R"(
void f(vector<int>& v, int n) {
  vector<int>::iterator it = v.begin();
  int k = 0;
  while (k < n) {
    v.push_back(k);
    k += 1;
  }
  use(*it);
}
)";

std::vector<std::string> trail_of(int steps) {
  const lint_result r = lint_source(kRingProgram,
                                    {.max_provenance_steps = steps});
  std::vector<std::string> out;
  for (const diagnostic& d : r.diags)
    if (d.message.find("singular") != std::string::npos) {
      for (const provenance_step& s : d.provenance)
        out.push_back(d.step_text(s));
      return out;
    }
  ADD_FAILURE() << "no singular-iterator diagnostic\n" << r.to_string();
  return out;
}

TEST(StllintGolden, RingKeepsTheMostRecentStepsOldestFirst) {
  const std::vector<std::string> full = trail_of(24);
  ASSERT_GT(full.size(), 3u);
  ASSERT_LT(full.size(), 24u);  // the whole path fits: nothing dropped
  EXPECT_EQ(full.front(), "line 2: enter function 'f'");
  EXPECT_TRUE(trail_of(0).empty());
  for (const int steps : {1, 3}) {
    const std::vector<std::string> tail = trail_of(steps);
    ASSERT_EQ(tail.size(), static_cast<std::size_t>(steps));
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(), full.end() - steps))
        << "ring of " << steps << " is not the suffix of the full trail";
  }
}

TEST(StllintGolden, BecomesSingularNotesComeOutInNameOrder) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator zeta = v.begin();
  vector<int>::iterator mid = v.begin();
  vector<int>::iterator alpha = v.begin();
  v.push_back(1);
  use(*zeta);
}
)");
  ASSERT_FALSE(r.diags.empty()) << r.to_string();
  std::vector<std::string> order;
  const diagnostic& d = r.diags.front();
  for (const provenance_step& s : d.provenance)
    if (d.action_text(s).find("becomes singular") != std::string::npos)
      order.push_back(d.action_text(s));
  EXPECT_EQ(order, (std::vector<std::string>{
                       "iterator 'alpha' becomes singular",
                       "iterator 'mid' becomes singular",
                       "iterator 'zeta' becomes singular"}));
}

// ---------------------------------------------------------------------------
// Generator coverage
// ---------------------------------------------------------------------------

struct coverage {
  std::set<ast_stmt::kind> stmts;
  std::set<ast_expr::kind> exprs;
  std::set<std::string> callees;  ///< member functions and free functions
  std::set<std::string> containers;

  void walk(const ast_program& p) {
    for (const ast_function& fn : p.functions) {
      for (const ast_param& prm : p.params_of(fn)) type(p.types[prm.type]);
      stmt(p, fn.body);
    }
  }
  void type(const mini_type& t) {
    if (t.is_container() || t.is_iterator())
      containers.insert(std::string(op_table[t.container]));
  }
  void expr(const ast_program& p, node_id id) {
    if (id == no_node) return;
    const ast_expr& e = p.exprs[id];
    exprs.insert(e.k);
    if (e.k == ast_expr::kind::member_call || e.k == ast_expr::kind::call)
      callees.insert(std::string(p.symbols.name(e.sym)));
    for (const node_id c : p.children(e)) expr(p, c);
  }
  void stmt(const ast_program& p, node_id id) {
    if (id == no_node) return;
    const ast_stmt& s = p.stmts[id];
    stmts.insert(s.k);
    type(p.types[s.decl_type]);
    expr(p, s.e1);
    expr(p, s.e2);
    stmt(p, s.s1);
    stmt(p, s.s2);
    for (const node_id b : p.body(s)) stmt(p, b);
  }
};

TEST(StllintGolden, GeneratorReachesTheWholeGrammar) {
  coverage cov;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::string src = corpus_program(i);
    diagnostics diags;
    cov.walk(parse(tokenize(src, diags), diags));
  }
  EXPECT_EQ(cov.stmts.size(), 9u);
  EXPECT_EQ(cov.exprs.size(), 11u);
  for (const char* kind :
       {"vector", "list", "deque", "set", "multiset", "input_stream"})
    EXPECT_TRUE(cov.containers.contains(kind)) << kind;
  for (const char* m :
       {"begin", "end", "size", "empty", "push_back", "pop_back", "clear",
        "insert", "erase", "front", "back", "sort", "reserve", "resize",
        "swap", "find", "capacity"})
    EXPECT_TRUE(cov.callees.contains(m)) << m;
  for (const algorithm_spec& a : all_algorithms())
    EXPECT_TRUE(cov.callees.contains(a.name)) << a.name;
}

}  // namespace
}  // namespace cgp::stllint
