#include "rewrite/parser.hpp"

#include <cctype>
#include <charconv>
#include <vector>

namespace cgp::rewrite {
namespace {

struct rtoken {
  enum class kind { number, string_lit, ident, meta, punct, eof };
  kind k = kind::eof;
  std::string text;
  bool is_float = false;
};

std::vector<rtoken> lex(std::string_view src) {
  std::vector<rtoken> out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      bool is_float = false;
      bool is_hex = j + 1 < n && src[j] == '0' &&
                    (src[j + 1] == 'x' || src[j + 1] == 'X');
      if (is_hex) j += 2;
      // The whole run of digits, letters and points is one token, which
      // parse_primary rejects unless it is one number: `12abc` is an error,
      // not 12 and then an identifier.
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                       src[j] == '.')) {
        const bool exponent = !is_hex && (src[j] == 'e' || src[j] == 'E');
        is_float |= src[j] == '.' || exponent;
        if (exponent && j + 1 < n && (src[j + 1] == '+' || src[j + 1] == '-'))
          ++j;  // the exponent's sign
        ++j;
      }
      out.push_back({rtoken::kind::number, std::string(src.substr(i, j - i)),
                     is_float});
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                       src[j] == '_'))
        ++j;
      out.push_back({rtoken::kind::ident, std::string(src.substr(i, j - i)),
                     false});
      i = j;
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"') ++j;
      if (j >= n) throw parse_error("unterminated string literal");
      out.push_back({rtoken::kind::string_lit,
                     std::string(src.substr(i + 1, j - i - 1)), false});
      i = j + 1;
      continue;
    }
    if (c == '?') {
      std::size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                       src[j] == '_'))
        ++j;
      if (j == i + 1) throw parse_error("'?' must introduce a metavariable");
      out.push_back({rtoken::kind::meta, std::string(src.substr(i, j - i)),
                     false});
      i = j;
      continue;
    }
    // Two-char operators first.
    for (std::string_view two : {"==", "!=", "<=", ">=", "&&", "||"}) {
      if (src.substr(i, 2) == two) {
        out.push_back({rtoken::kind::punct, std::string(two), false});
        i += 2;
        goto next;
      }
    }
    if (std::string_view("+-*/%&|^!~<>(),").find(c) !=
        std::string_view::npos) {
      out.push_back({rtoken::kind::punct, std::string(1, c), false});
      ++i;
      continue;
    }
    throw parse_error(std::string("unexpected character '") + c + "'");
  next:;
  }
  out.push_back({});
  return out;
}

class parser {
 public:
  parser(std::vector<rtoken> toks,
         const std::map<std::string, std::string>& types)
      : toks_(std::move(toks)), types_(types) {}

  expr parse() {
    expr e = parse_or();
    if (!peek().text.empty() || peek().k != rtoken::kind::eof)
      throw parse_error("trailing input after expression: '" + peek().text +
                        "'");
    return e;
  }

 private:
  const rtoken& peek() const { return toks_[pos_]; }
  rtoken take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool accept(std::string_view p) {
    if (peek().k == rtoken::kind::punct && peek().text == p) {
      (void)take();
      return true;
    }
    return false;
  }

  /// Enters one level of nesting; past kMaxParseDepth the parse fails.
  void enter() {
    if (++depth_ > kMaxParseDepth)
      throw parse_error("expression nests deeper than " +
                        std::to_string(kMaxParseDepth) + " levels");
  }

  std::string type_of(const std::string& name, const char* what) const {
    auto it = types_.find(name);
    if (it == types_.end())
      throw parse_error(std::string("no type given for ") + what + " '" +
                        name + "'");
    return it->second;
  }

  expr parse_binary_level(int level) {
    static const std::vector<std::vector<std::string>> ops = {
        {"||"}, {"&&"}, {"==", "!=", "<", "<=", ">", ">="},
        {"+", "-"}, {"*", "/", "%", "&", "|", "^"}};
    if (level >= static_cast<int>(ops.size())) return parse_unary();
    expr lhs = parse_binary_level(level + 1);
    for (;;) {
      bool matched = false;
      for (const std::string& op : ops[level]) {
        if (peek().k == rtoken::kind::punct && peek().text == op) {
          (void)take();
          expr rhs = parse_binary_level(level + 1);
          const bool boolean =
              level <= 1 || (level == 2);  // logic and comparisons
          lhs = expr::binary_op(op, std::move(lhs), std::move(rhs),
                                boolean && level == 2 ? "bool" : "");
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  expr parse_or() { return parse_binary_level(0); }

  expr parse_unary() {
    for (const char* op : {"-", "!", "~"}) {
      if (peek().k == rtoken::kind::punct && peek().text == op) {
        (void)take();
        enter();
        expr operand = parse_unary();
        --depth_;
        return expr::unary_op(op, std::move(operand));
      }
    }
    return parse_primary();
  }

  expr parse_primary() {
    const rtoken t = take();
    switch (t.k) {
      case rtoken::kind::number: {
        // The token must be one number, in range, to its last character.
        const char* first = t.text.data();
        const char* last = first + t.text.size();
        const auto whole = [&](std::from_chars_result r) {
          if (r.ptr != last || r.ec != std::errc())
            throw parse_error("malformed number '" + t.text + "'");
        };
        if (t.is_float) {
          double v = 0;
          whole(std::from_chars(first, last, v));
          return expr::double_lit(v);
        }
        if (t.text.size() >= 2 && t.text[0] == '0' &&
            (t.text[1] == 'x' || t.text[1] == 'X')) {
          std::uint64_t v = 0;
          whole(std::from_chars(first + 2, last, v, 16));
          return expr::uint_lit(v);
        }
        std::int64_t v = 0;
        whole(std::from_chars(first, last, v));
        return expr::int_lit(v);
      }
      case rtoken::kind::string_lit:
        return expr::string_lit(t.text);
      case rtoken::kind::meta:
        return expr::meta(t.text.substr(1), type_of(t.text, "metavariable"));
      case rtoken::kind::ident: {
        if (t.text == "true") return expr::bool_lit(true);
        if (t.text == "false") return expr::bool_lit(false);
        if (accept("(")) {
          enter();
          std::vector<expr> args;
          if (!accept(")")) {
            do {
              args.push_back(parse_or());
            } while (accept(","));
            if (!accept(")")) throw parse_error("expected ')' in call");
          }
          --depth_;
          std::string type;
          if (auto it = types_.find(t.text); it != types_.end())
            type = it->second;
          else if (!args.empty())
            type = args[0].type();
          return expr::call_fn(t.text, std::move(args), std::move(type));
        }
        if (auto it = types_.find(t.text); it != types_.end())
          return expr::var(t.text, it->second);
        // Unmapped identifier: a named constant; type inferred by context
        // is not available here, so leave it untyped-ish with its name.
        return expr::constant(t.text, types_.count("$const")
                                          ? types_.at("$const")
                                          : "matrix");
      }
      case rtoken::kind::punct:
        if (t.text == "(") {
          enter();
          expr inner = parse_or();
          if (!accept(")")) throw parse_error("expected ')'");
          --depth_;
          return inner;
        }
        throw parse_error("unexpected token '" + t.text + "'");
      case rtoken::kind::eof:
        throw parse_error("unexpected end of input");
    }
    throw parse_error("unreachable");
  }

  std::vector<rtoken> toks_;
  const std::map<std::string, std::string>& types_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

expr parse_expr(std::string_view source,
                const std::map<std::string, std::string>& types) {
  parser p(lex(source), types);
  return p.parse();
}

expr_rule parse_rule(const std::string& name, std::string_view pattern,
                     std::string_view replacement,
                     const std::map<std::string, std::string>& types,
                     std::string provenance) {
  return {name, parse_expr(pattern, types), parse_expr(replacement, types),
          std::move(provenance), {}};
}

}  // namespace cgp::rewrite
