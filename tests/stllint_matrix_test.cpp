// Property-style sweeps over STLlint's invalidation semantics: every
// (container kind, mutating operation) pair is checked against the
// concept-level specification table, plus the loop-pass ablation showing
// why Fig. 4's bug needs at least two abstract iterations.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "stllint/stllint.hpp"

namespace cgp::stllint {
namespace {

struct invalidation_case {
  const char* name;
  const char* container;  ///< "vector", "deque", "list", "set"
  const char* mutation;   ///< statement performed while an iterator is live
  bool expect_invalidated;
};

// gtest names each instance's `GetParam() = ...` from this printer; its
// default byte dump would print the struct's pointers and padding, which
// differ between runs and rename the discovered tests.
void PrintTo(const invalidation_case& c, std::ostream* os) { *os << c.name; }

class InvalidationMatrix : public ::testing::TestWithParam<invalidation_case> {
};

TEST_P(InvalidationMatrix, MatchesSpecTable) {
  const auto& p = GetParam();
  // `other` is a second iterator; the mutation may reference `it`/`other`.
  const std::string source = std::string("void f(") + p.container +
                             "<int>& c) {\n" + "  " + p.container +
                             "<int>::iterator it = c.begin();\n  " +
                             p.container + "<int>::iterator other = c.begin();\n" +
                             "  ++other;\n" + "  " + p.mutation + ";\n" +
                             "  use(*it);\n}\n";
  const lint_result r = lint_source(source);
  bool warned = false;
  for (const diagnostic& d : r.diags)
    if (d.sev == severity::warning &&
        d.message.find("singular iterator") != std::string::npos)
      warned = true;
  EXPECT_EQ(warned, p.expect_invalidated) << source << "\n" << r.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Table, InvalidationMatrix,
    ::testing::Values(
        // vector: everything invalidates everything.
        invalidation_case{"vector_push_back", "vector", "c.push_back(1)",
                          true},
        invalidation_case{"vector_insert", "vector", "c.insert(other, 1)",
                          true},
        invalidation_case{"vector_erase_other", "vector", "c.erase(other)",
                          true},
        invalidation_case{"vector_clear", "vector", "c.clear()", true},
        invalidation_case{"vector_reserve", "vector", "c.reserve(100)", true},
        invalidation_case{"vector_size_query", "vector", "c.size()", false},
        // deque behaves like vector for middle mutations.
        invalidation_case{"deque_push_back", "deque", "c.push_back(1)", true},
        invalidation_case{"deque_erase_other", "deque", "c.erase(other)",
                          true},
        // list: node-based; only the erased iterator dies.
        invalidation_case{"list_push_back", "list", "c.push_back(1)", false},
        invalidation_case{"list_insert", "list", "c.insert(other, 1)", false},
        invalidation_case{"list_erase_other", "list", "c.erase(other)",
                          false},
        invalidation_case{"list_erase_self", "list", "c.erase(it)", true},
        invalidation_case{"list_clear", "list", "c.clear()", true},
        // set: node-based too.
        invalidation_case{"set_insert", "set", "c.insert(1)", false},
        invalidation_case{"set_erase_self", "set", "c.erase(it)", true}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// swap retargeting
// ---------------------------------------------------------------------------

TEST(Swap, IteratorsFollowTheSwappedStorage) {
  // After a.swap(b), iterators into `a` point into `b`'s elements: erasing
  // through b must invalidate them, erasing through a must not.
  const lint_result r = lint_source(R"(
void f(vector<int>& a, vector<int>& b) {
  vector<int>::iterator it = a.begin();
  a.swap(b);
  b.push_back(1);
  use(*it);
}
)");
  bool warned = false;
  for (const diagnostic& d : r.diags)
    if (d.message.find("singular iterator") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned) << r.to_string();

  const lint_result ok = lint_source(R"(
void f(vector<int>& a, vector<int>& b) {
  vector<int>::iterator it = a.begin();
  a.swap(b);
  a.push_back(1);
  use(*it);
}
)");
  EXPECT_EQ(std::count_if(ok.diags.begin(), ok.diags.end(),
                          [](const diagnostic& d) {
                            return d.message.find("singular") !=
                                   std::string::npos;
                          }),
            0)
      << ok.to_string();
}

TEST(Resize, UpdatesSizeInterval) {
  const lint_result r = lint_source(R"(
void f() {
  vector<int> v;
  v.resize(10);
  use(*v.begin());
}
)");
  // After resize(10) the container is non-empty: begin() dereference is OK.
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Advance, PastTheEndIncrementWarns) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  vector<int>::iterator it = v.end();
  ++it;
}
)");
  bool warned = false;
  for (const diagnostic& d : r.diags)
    if (d.message.find("advance a past-the-end iterator") !=
        std::string::npos)
      warned = true;
  EXPECT_TRUE(warned) << r.to_string();
}

TEST(Advance, NormalLoopIncrementStaysClean) {
  const lint_result r = lint_source(R"(
void f(vector<int>& v) {
  for (vector<int>::iterator it = v.begin(); it != v.end(); ++it) {
    use(*it);
  }
}
)");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

// ---------------------------------------------------------------------------
// Ablation: loop-pass budget (Fig. 4 needs >= 2 abstract iterations)
// ---------------------------------------------------------------------------

constexpr const char* kFig4 = R"(
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

class LoopPassAblation : public ::testing::TestWithParam<int> {};

TEST_P(LoopPassAblation, DetectionRequiresAtLeastTwoPasses) {
  options opt;
  opt.max_loop_passes = GetParam();
  const lint_result r = lint_source(kFig4, opt);
  bool detected = false;
  for (const diagnostic& d : r.diags)
    if (d.message.find("dereference a singular iterator") !=
        std::string::npos)
      detected = true;
  EXPECT_EQ(detected, GetParam() >= 2)
      << "passes=" << GetParam() << "\n"
      << r.to_string();
}

INSTANTIATE_TEST_SUITE_P(Budgets, LoopPassAblation,
                         ::testing::Values(1, 2, 3, 6));

}  // namespace
}  // namespace cgp::stllint
