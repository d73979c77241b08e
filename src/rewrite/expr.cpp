#include "rewrite/expr.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <mutex>
#include <string_view>

namespace cgp::rewrite {
namespace {

/// The process-wide intern table of node names and types.  Ids come from
/// a `core::symbol_table` under one mutex, and each name is stored once in
/// chunks that never move, so `name` reads it with no lock: an id reaches
/// a reader only through a node built after its name was stored.
class name_table {
 public:
  static constexpr core::symbol kUntyped = 0;  ///< the id of ""

  name_table() { (void)intern(""); }

  core::symbol intern(std::string_view s) {
    const std::lock_guard lock(m_);
    const std::size_t known = ids_.size();
    const core::symbol id = ids_.intern(s);
    if (ids_.size() == known) return id;
    const auto [c, i] = locate(id);
    std::string* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new std::string[std::size_t{64} << c];
      chunks_[c].store(chunk, std::memory_order_release);
    }
    chunk[i] = s;
    return id;
  }

  [[nodiscard]] const std::string& name(core::symbol id) const noexcept {
    const auto [c, i] = locate(id);
    return chunks_[c].load(std::memory_order_acquire)[i];
  }

 private:
  /// Chunk c holds 64 * 2^c names: ids 64 * (2^c - 1) up to, not
  /// including, 64 * (2^(c+1) - 1).
  static std::pair<std::size_t, std::size_t> locate(core::symbol id) noexcept {
    const std::uint64_t n = std::uint64_t{id} + 64;
    const std::size_t c = static_cast<std::size_t>(std::bit_width(n)) - 7;
    return {c, static_cast<std::size_t>(n - (std::uint64_t{64} << c))};
  }

  std::mutex m_;
  core::symbol_table ids_;  ///< guarded by m_
  std::array<std::atomic<std::string*>, 27> chunks_{};  ///< 2^32 ids
};

/// Never destroyed, so a name stays readable while any node exists.
name_table& names() {
  static name_table* const table = new name_table;
  return *table;
}

}  // namespace

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
          // The shortest spelling that reads back as the same double, with
          // `.0` when it has no point or exponent, so it reparses as a
          // double and not as an int.
          char buf[32];
          std::string out(buf, std::to_chars(buf, buf + 32, x).ptr);
          if (std::isfinite(x) && out.find_first_of(".e") == std::string::npos)
            out += ".0";
          return out;
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
  return make({kind::variable, names().intern(name), names().intern(type),
               {}, {}, {}});
}
expr expr::meta(std::string name, std::string type) {
  return make({kind::metavariable, names().intern(name), names().intern(type),
               {}, {}, {}});
}
expr expr::lit(value v, std::string type) {
  return make({kind::literal, core::no_symbol, names().intern(type),
               value_to_string(v), std::move(v), {}});
}
expr expr::constant(std::string name, std::string type) {
  return make({kind::named_const, names().intern(name), names().intern(type),
               {}, {}, {}});
}
expr expr::unary_op(std::string op, expr operand, std::string type) {
  const core::symbol t = type.empty() ? operand.type_id() : names().intern(type);
  return make({kind::unary, names().intern(op), t, {}, {},
               {std::move(operand)}});
}
expr expr::binary_op(std::string op, expr lhs, expr rhs, std::string type) {
  const core::symbol t = type.empty() ? lhs.type_id() : names().intern(type);
  return make({kind::binary, names().intern(op), t, {}, {},
               {std::move(lhs), std::move(rhs)}});
}
expr expr::call_fn(std::string fn, std::vector<expr> args, std::string type) {
  return make({kind::call, names().intern(fn), names().intern(type), {}, {},
               std::move(args)});
}

const std::string& expr::symbol() const noexcept {
  return node_->k == kind::literal ? node_->spelling : names().name(node_->sym);
}
const std::string& expr::type() const noexcept {
  return names().name(node_->ty);
}

std::size_t expr::size() const noexcept {
  std::size_t n = 1;
  for (const expr& c : children()) n += c.size();
  return n;
}

namespace {

/// Literal spellings are not interned, so two literals compare by value
/// and then by spelling, which tells 0.0 from -0.0.
bool same_literal(const expr& a, const expr& b) {
  return value_equal(a.literal_value(), b.literal_value()) &&
         a.symbol() == b.symbol();
}

}  // namespace

bool operator==(const expr& a, const expr& b) {
  if (a.node_ == b.node_) return true;
  const expr::node& x = *a.node_;
  const expr::node& y = *b.node_;
  if (x.k != y.k || x.sym != y.sym || x.ty != y.ty ||
      x.children.size() != y.children.size())
    return false;
  if (x.k == expr::kind::literal && !same_literal(a, b)) return false;
  for (std::size_t i = 0; i < x.children.size(); ++i)
    if (!(x.children[i] == y.children[i])) return false;
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

bool match_impl(const expr& subject, const expr& pattern,
                flat_binding& binding) {
  const core::symbol untyped = name_table::kUntyped;
  if (pattern.is(expr::kind::metavariable)) {
    if (pattern.type_id() != untyped && pattern.type_id() != subject.type_id())
      return false;
    for (const auto& [id, bound] : binding)
      if (id == pattern.symbol_id()) return *bound == subject;
    binding.emplace_back(pattern.symbol_id(), &subject);
    return true;
  }
  if (pattern.node_kind() != subject.node_kind() ||
      pattern.symbol_id() != subject.symbol_id() ||
      pattern.children().size() != subject.children().size())
    return false;
  if (pattern.type_id() != untyped && pattern.type_id() != subject.type_id())
    return false;
  if (pattern.is(expr::kind::literal) && !same_literal(pattern, subject))
    return false;
  for (std::size_t i = 0; i < pattern.children().size(); ++i)
    if (!match_impl(subject.children()[i], pattern.children()[i], binding))
      return false;
  return true;
}

}  // namespace

bool expr::match(const expr& pattern, flat_binding& binding) const {
  binding.clear();
  return match_impl(*this, pattern, binding);
}

std::optional<std::map<std::string, expr>> expr::match(
    const expr& pattern) const {
  flat_binding flat;
  if (!match(pattern, flat)) return std::nullopt;
  std::map<std::string, expr> binding;
  for (const auto& [id, bound] : flat) binding.emplace(names().name(id), *bound);
  return binding;
}

expr expr::substitute(const flat_binding& b) const {
  if (is(kind::metavariable)) {
    for (const auto& [id, bound] : b)
      if (id == node_->sym) return *bound;
    return *this;
  }
  if (children().empty()) return *this;
  std::vector<expr> args;
  args.reserve(children().size());
  for (const expr& c : children()) args.push_back(c.substitute(b));
  return with_children(std::move(args));
}

expr expr::substitute(const std::map<std::string, expr>& b) const {
  flat_binding flat;
  flat.reserve(b.size());
  for (const auto& [name, bound] : b)
    flat.emplace_back(names().intern(name), &bound);
  return substitute(flat);
}

expr expr::with_children(std::vector<expr> children) const {
  const core::symbol t = node_->ty == name_table::kUntyped &&
                                 !children.empty() && !is(kind::call)
                             ? children[0].type_id()
                             : node_->ty;
  return make({node_kind(), node_->sym, t, node_->spelling, literal_value(),
               std::move(children)});
}

expr expr::with_value(value v) const {
  return make({kind::literal, core::no_symbol, node_->ty, value_to_string(v),
               std::move(v), {}});
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
