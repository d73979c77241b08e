// Mutation fuzzing of STLlint (the MiniCpp lexer, parser and analyzer).
//
// Generated programs (check/minicpp_gen) get byte-level mutations: flipped
// bytes and inserted, deleted and duplicated spans, with inserts biased
// towards the openers that nest (`(`, `{`, `<`, `if`).  Every
// `lint_source` call must return, with at most one nesting-limit
// diagnostic, and a program nested past kMaxParseDepth must end in exactly
// that one diagnostic.  A failing input is shrunk by deleting lines and
// reported with the run's CGP_CHECK_SEED.  Under the asan-ubsan preset the
// same cases also check for memory and undefined-behaviour errors.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/gen.hpp"
#include "check/minicpp_gen.hpp"
#include "check/property.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/stllint.hpp"

namespace cgp::stllint {
namespace {

constexpr std::size_t kMutatedCases = 8000;
constexpr std::size_t kDeepCases = 400;

/// Text that opens one more nesting level wherever a statement may start.
constexpr std::string_view kNesting[] = {"(", "{", "if (c) ", "!",
                                         "{ if (c) "};
/// Inserts, biased towards the openers.
constexpr std::string_view kInserts[] = {
    "(", "(", "{", "{", "<", "<", "if (", "if (c) ", ")", "}", ">", ";",
    "else ", "while (", "for (", ".", "::iterator", "\"", "/*", "1.2.3"};

int depth_diagnostics(const lint_result& r) {
  int n = 0;
  for (const diagnostic& d : r.diags)
    if (d.message.find("nesting deeper than") != std::string::npos) ++n;
  return n;
}

/// Why linting `src` breaks the contract, or nullopt.  `deep`: the input
/// is known to nest past kMaxParseDepth.
std::optional<std::string> violation(const std::string& src, bool deep) {
  lint_result r;
  try {
    r = lint_source(src);
  } catch (const std::exception& e) {
    return std::string("lint_source threw: ") + e.what();
  } catch (...) {
    return "lint_source threw";
  }
  const int depth = depth_diagnostics(r);
  if (depth > 1) return std::to_string(depth) + " nesting-limit diagnostics";
  if (deep && depth != 1) return "nesting past the limit was not reported";
  return std::nullopt;
}

/// Deletes lines of `src` while `fails` still holds.
std::string shrink_lines(const std::string& src,
                         const std::function<bool(const std::string&)>& fails) {
  std::vector<std::string> lines = source_lines(src);
  const auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (std::size_t i = 0; i < ls.size(); ++i)
      out += (i == 0 ? "" : "\n") + ls[i];
    return out;
  };
  for (bool shrunk = true; shrunk;) {
    shrunk = false;
    for (std::size_t i = 0; i < lines.size();) {
      std::vector<std::string> trial = lines;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(join(trial))) {
        lines = std::move(trial);
        shrunk = true;
      } else {
        ++i;
      }
    }
  }
  return join(lines);
}

void expect_contract(const std::string& src, bool deep, std::size_t index) {
  const std::optional<std::string> why = violation(src, deep);
  if (!why) return;
  const std::string shrunk = shrink_lines(
      src,
      [deep](const std::string& s) { return violation(s, deep).has_value(); });
  ADD_FAILURE() << *why << " on case " << index << " ("
                << check::seed_banner() << "); shrunk input:\n"
                << shrunk;
}

std::string mutate(std::string s, check::random_source& rs) {
  for (std::uint64_t m = 1 + rs.below(4); m > 0; --m) {
    const std::size_t at = rs.below(s.size() + 1);
    switch (rs.below(5)) {
      case 0:  // flip a byte
        if (!s.empty())
          s[rs.below(s.size())] = static_cast<char>(rs.below(256));
        break;
      case 1: {  // insert an opener or closer, now and then a long run
        const std::string_view piece = kInserts[rs.below(std::size(kInserts))];
        const std::uint64_t times =
            rs.chance(10) ? rs.below(3 * kMaxParseDepth) : 1 + rs.below(3);
        std::string run;
        for (std::uint64_t k = 0; k < times; ++k) run += piece;
        s.insert(at, run);
        break;
      }
      case 2:  // delete a span
        s.erase(at, rs.below(24));
        break;
      case 3: {  // duplicate a span elsewhere
        const std::string span = s.substr(at, rs.below(80));
        s.insert(rs.below(s.size() + 1), span);
        break;
      }
      default:  // insert random bytes
        for (std::uint64_t k = 1 + rs.below(4); k > 0; --k)
          s.insert(at, 1, static_cast<char>(rs.below(256)));
    }
  }
  return s;
}

TEST(StllintFuzz, MutatedProgramsAlwaysLint) {
  const std::uint64_t seed = check::default_seed();
  for (std::size_t i = 0; i < kMutatedCases; ++i) {
    check::random_source rs(check::case_seed(seed, i));
    const std::string base = check::generate_minicpp(rs.bits());
    expect_contract(mutate(base, rs), false, i);
  }
}

std::string repeat(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// Shrunk failures, replayed.  CGP_CHECK_SEED=7 found a program that
/// nests ~100 loops: the analyzer ran max_loop_passes to the power of the
/// depth and never returned, until nested loops got a bounded budget.
TEST(StllintFuzz, ShrunkRegressionsReplay) {
  const std::string regressions[] = {
      "void f0(input_stream<student_info>& flag, bool alpha) {\n"
      "  for (int b = 0; " +
          repeat("for (", 41) + "for {(" + repeat("for (", 103) +
          "binary_search(flag.begin(), flag.end(), 4); b--) {",
  };
  for (std::size_t i = 0; i < std::size(regressions); ++i)
    expect_contract(regressions[i], false, i);
}

/// A parse-clean generated program with a run of nesting openers, longer
/// than the limit, inserted where its first function body starts.
TEST(StllintFuzz, NestingPastTheLimitEndsInOneDiagnostic) {
  const std::uint64_t seed = check::default_seed() ^ 0xdeeb;
  std::size_t ran = 0;
  for (std::size_t i = 0; i < kDeepCases; ++i) {
    check::random_source rs(check::case_seed(seed, i));
    std::string src = check::generate_minicpp(rs.bits());
    diagnostics diags;
    (void)parse(tokenize(src, diags), diags);
    const std::size_t body = src.find("{\n");
    if (!diags.empty() || body == src.npos) continue;
    const std::string_view opener = kNesting[rs.below(std::size(kNesting))];
    std::string run;
    for (std::uint64_t k = kMaxParseDepth + 1 + rs.below(kMaxParseDepth);
         k > 0; --k)
      run += opener;
    src.insert(body + 2, run);
    expect_contract(src, true, i);
    ++ran;
  }
  EXPECT_GT(ran, kDeepCases / 2);  // most generated programs parse cleanly
}

}  // namespace
}  // namespace cgp::stllint
