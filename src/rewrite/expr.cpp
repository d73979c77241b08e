#include "rewrite/expr.hpp"

#include <charconv>
#include <cmath>

namespace cgp::rewrite {

matrix_value matrix_value::identity(std::size_t n) {
  matrix_value m{n, n, std::vector<double>(n * n, 0.0)};
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

std::string value_to_string(const value& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using X = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<X, std::monostate>) {
          return "<novalue>";
        } else if constexpr (std::is_same_v<X, bool>) {
          return x ? "true" : "false";
        } else if constexpr (std::is_same_v<X, std::string>) {
          return "\"" + x + "\"";
        } else if constexpr (std::is_same_v<
                                 X, std::shared_ptr<const matrix_value>>) {
          return "matrix[" + std::to_string(x ? x->rows : 0) + "x" +
                 std::to_string(x ? x->cols : 0) + "]";
        } else if constexpr (std::is_same_v<X, double>) {
          char buf[32];  // %g at precision 6, as a default std::ostream
          return {buf, std::to_chars(buf, buf + 32, x,
                                     std::chars_format::general, 6).ptr};
        } else {
          char buf[32];
          return {buf, std::to_chars(buf, buf + 32, x).ptr};
        }
      },
      v);
}

bool value_equal(const value& a, const value& b) {
  if (a.index() != b.index()) return false;
  if (std::holds_alternative<std::shared_ptr<const matrix_value>>(a)) {
    const auto& ma = std::get<std::shared_ptr<const matrix_value>>(a);
    const auto& mb = std::get<std::shared_ptr<const matrix_value>>(b);
    if (ma == mb) return true;
    return ma && mb && *ma == *mb;
  }
  return a == b;
}

expr expr::var(std::string name, std::string type) {
  return make({kind::variable, std::move(name), std::move(type), {}, {}});
}
expr expr::meta(std::string name, std::string type) {
  return make({kind::metavariable, std::move(name), std::move(type), {}, {}});
}
expr expr::lit(value v, std::string type) {
  return make({kind::literal, value_to_string(v), std::move(type),
               std::move(v), {}});
}
expr expr::constant(std::string name, std::string type) {
  return make({kind::named_const, std::move(name), std::move(type), {}, {}});
}
expr expr::unary_op(std::string op, expr operand, std::string type) {
  std::string t = type.empty() ? operand.type() : std::move(type);
  return make({kind::unary, std::move(op), std::move(t), {},
               {std::move(operand)}});
}
expr expr::binary_op(std::string op, expr lhs, expr rhs, std::string type) {
  std::string t = type.empty() ? lhs.type() : std::move(type);
  return make({kind::binary, std::move(op), std::move(t), {},
               {std::move(lhs), std::move(rhs)}});
}
expr expr::call_fn(std::string fn, std::vector<expr> args, std::string type) {
  return make({kind::call, std::move(fn), std::move(type), {},
               std::move(args)});
}

std::size_t expr::size() const noexcept {
  std::size_t n = 1;
  for (const expr& c : children()) n += c.size();
  return n;
}

bool operator==(const expr& a, const expr& b) {
  if (a.node_ == b.node_) return true;
  if (a.node_->k != b.node_->k || a.node_->symbol != b.node_->symbol ||
      a.node_->type != b.node_->type ||
      a.node_->children.size() != b.node_->children.size())
    return false;
  if (a.node_->k == expr::kind::literal &&
      !value_equal(a.node_->val, b.node_->val))
    return false;
  for (std::size_t i = 0; i < a.node_->children.size(); ++i)
    if (!(a.node_->children[i] == b.node_->children[i])) return false;
  return true;
}

std::string expr::to_string() const {
  switch (node_kind()) {
    case kind::variable:
    case kind::named_const:
      return symbol();
    case kind::metavariable:
      return "?" + symbol();
    case kind::literal:
      return value_to_string(literal_value());
    case kind::unary:
      return symbol() + "(" + children()[0].to_string() + ")";
    case kind::binary:
      return "(" + children()[0].to_string() + " " + symbol() + " " +
             children()[1].to_string() + ")";
    case kind::call: {
      std::string out = symbol() + "(";
      for (std::size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += ", ";
        out += children()[i].to_string();
      }
      return out + ")";
    }
  }
  return {};
}

namespace {

/// Metavariable bindings of one match attempt, in binding order.
using flat_binding = std::vector<std::pair<const std::string*, const expr*>>;

bool match_impl(const expr& subject, const expr& pattern,
                flat_binding& binding) {
  if (pattern.is(expr::kind::metavariable)) {
    if (!pattern.type().empty() && pattern.type() != subject.type())
      return false;
    for (const auto& [name, bound] : binding)
      if (*name == pattern.symbol()) return *bound == subject;
    binding.emplace_back(&pattern.symbol(), &subject);
    return true;
  }
  if (pattern.node_kind() != subject.node_kind() ||
      pattern.symbol() != subject.symbol() ||
      pattern.children().size() != subject.children().size())
    return false;
  if (!pattern.type().empty() && pattern.type() != subject.type())
    return false;
  if (pattern.is(expr::kind::literal) &&
      !value_equal(pattern.literal_value(), subject.literal_value()))
    return false;
  for (std::size_t i = 0; i < pattern.children().size(); ++i)
    if (!match_impl(subject.children()[i], pattern.children()[i], binding))
      return false;
  return true;
}

}  // namespace

std::optional<std::map<std::string, expr>> expr::match(
    const expr& pattern) const {
  // A per-thread buffer that keeps its capacity, so a failed match
  // allocates nothing; the public map is built only on success.
  thread_local flat_binding flat;
  flat.clear();
  if (!match_impl(*this, pattern, flat)) return std::nullopt;
  std::map<std::string, expr> binding;
  for (const auto& [name, bound] : flat) binding.emplace(*name, *bound);
  return binding;
}

expr expr::substitute(const std::map<std::string, expr>& b) const {
  if (is(kind::metavariable)) {
    auto it = b.find(symbol());
    return it == b.end() ? *this : it->second;
  }
  if (children().empty()) return *this;
  std::vector<expr> args;
  args.reserve(children().size());
  for (const expr& c : children()) args.push_back(c.substitute(b));
  return with_children(std::move(args));
}

expr expr::with_children(std::vector<expr> children) const {
  std::string t = type().empty() && !children.empty() && !is(kind::call)
                      ? children[0].type()
                      : type();
  return make({node_kind(), symbol(), std::move(t), literal_value(),
               std::move(children)});
}

std::optional<expr> parse_literal(const std::string& s,
                                  const std::string& type) {
  if (s.empty()) return std::nullopt;
  if (type == "bool") {
    if (s == "true") return expr::bool_lit(true);
    if (s == "false") return expr::bool_lit(false);
    return std::nullopt;
  }
  if (type == "string") {
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
      return expr::string_lit(s.substr(1, s.size() - 2));
    return std::nullopt;
  }
  if (type == "matrix" || type == "I") {
    // Symbolic constants of matrix type (the identity I).
    return expr::constant(s, "matrix");
  }
  if (type == "int") {
    std::int64_t v = 0;
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc{} && p == s.data() + s.size()) return expr::lit(v, type);
    return std::nullopt;
  }
  if (type == "unsigned") {
    std::uint64_t v = 0;
    const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    const char* first = hex ? s.data() + 2 : s.data();
    auto [p, ec] =
        std::from_chars(first, s.data() + s.size(), v, hex ? 16 : 10);
    if (ec == std::errc{} && p == s.data() + s.size()) return expr::lit(v, type);
    return std::nullopt;
  }
  if (type == "double" || type == "float" || type == "bigfloat" ||
      type == "rational") {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() + s.size()) return expr::lit(v, type);
    return std::nullopt;
  }
  // Unknown type: treat the spelling as a symbolic constant.
  return expr::constant(s, type);
}

}  // namespace cgp::rewrite
