// Golden token streams for the MiniCpp lexer: the safety net under lexer
// rewrites.
//
// Every token's (kind, op, text, line, column) and every lexer diagnostic
// (severity, line, column, message) is hashed for a few hundred generated
// programs (check/minicpp_gen) and for a hostile set: unterminated
// comments and strings, escaped quotes, every byte value alone and after
// an identifier, malformed numbers and adjacent punctuators.  The hashes
// were recorded before the lexer was rewritten and are never edited to make
// a change pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/gen.hpp"
#include "check/minicpp_gen.hpp"
#include "stllint/lexer.hpp"

namespace cgp::stllint {
namespace {

constexpr std::uint64_t kCorpusSeed = 0x7e4e7;

/// Token and diagnostic counts and an FNV-1a hash over both streams.
struct digest {
  std::size_t tokens = 0;
  std::size_t diags = 0;
  std::uint64_t hash = 14695981039346656037ull;

  void mix(std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0x1e;  // field separator
    hash *= 1099511628211ull;
  }
  void mix(long v) { mix(std::to_string(v)); }

  void add(std::string_view source) {
    diagnostics ds;
    for (const token& t : tokenize(source, ds)) {
      ++tokens;
      mix(static_cast<long>(t.kind));
      mix(static_cast<long>(t.op));
      mix(t.text);
      mix(t.line);
      mix(t.column);
    }
    for (const diagnostic& d : ds) {
      ++diags;
      mix(static_cast<long>(d.sev));
      mix(d.line);
      mix(d.column);
      mix(d.message);
      mix(d.source_line);
    }
  }
};

void expect_golden(const digest& got, std::size_t tokens, std::size_t diags,
                   std::uint64_t hash) {
  EXPECT_EQ(got.tokens, tokens);
  EXPECT_EQ(got.diags, diags);
  EXPECT_EQ(got.hash, hash) << "recorded 0x" << std::hex << got.hash;
}

TEST(StllintTokenGolden, GeneratedPrograms) {
  digest d;
  for (std::size_t i = 0; i < 300; ++i)
    d.add(check::generate_minicpp(check::case_seed(kCorpusSeed, i)));
  expect_golden(d, 121786, 2, 0x351b5c31e9eb44d3ull);
}

TEST(StllintTokenGolden, CommentsAndStrings) {
  digest d;
  for (const std::string_view src :
       {"int a; /* never closed", "int a; /* never closed\n\n", "/*", "/*/",
        "/**/", "/* a */ b /* c", "a /* x\n y */ b", "// only a comment",
        "x // comment\ny", "/", "a/b", "a / / b",
        "\"never closed", "f(\"never closed\nint b;",
        "\"a \\\" quote\"", "\"\\\\\"", "\"\\\\\\\"\"", "\"ends in \\",
        "\"\\", "\"\"", "\"one\" \"two\"", "s = \"x\\ny\";",
        "\"multi\nline\" x"})
    d.add(src);
  expect_golden(d, 56, 9, 0x156cee4bab8a0925ull);
}

TEST(StllintTokenGolden, EveryByteAloneAndAfterAnIdentifier) {
  digest d;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    d.add(one);
    d.add("abc" + one);
    d.add("abc" + one + "def");
    d.add("12" + one + "3");
  }
  expect_golden(d, 2374, 672, 0x4d25a1271d3b4076ull);
}

// Bytes outside ASCII are not letters (as under std::isalpha in the "C"
// locale): each is one "unexpected character" and ends an identifier.
TEST(StllintTokenGolden, HighBytesAreUnexpectedCharacters) {
  for (int b = 0x80; b < 0x100; ++b) {
    diagnostics ds;
    const std::string src = "ab" + std::string(1, static_cast<char>(b)) + "cd";
    const std::vector<token> toks = tokenize(src, ds);  // views `src`
    ASSERT_EQ(ds.size(), 1u) << b;
    EXPECT_EQ(ds[0].message.rfind("unexpected character", 0), 0u) << b;
    EXPECT_EQ(ds[0].column, 3) << b;
    ASSERT_EQ(toks.size(), 3u) << b;
    EXPECT_EQ(toks[0].text, "ab");
    EXPECT_EQ(toks[1].text, "cd");
    EXPECT_EQ(toks[1].column, 4);
  }
}

TEST(StllintTokenGolden, NumbersAndAdjacentPunctuators) {
  digest d;
  for (const std::string_view src :
       {"1.2.3", "1..2", "1.", ".5", "0", "007", "123abc", "9.x", "1.2.3.",
        "::", ":::", "->", "-->", "->>", "+=", "+==", "++=", "<=", "<==",
        "<<=", "a::b->c+=d<=e", "::->+=<=", "a<=b>=c==d!=e&&f||g",
        "x+++y", "x---y", "a-=-b", "a=!b", "v.begin()->x", "&|&&||",
        "vector<int>::iterator", "for(;;){}", "set<list<int>>", "\t\r\n x",
        "\v\f", "iterator iterators if iff else_ _while"})
    d.add(src);
  expect_golden(d, 145, 2, 0xdc40ead7a350631aull);
}

}  // namespace
}  // namespace cgp::stllint
