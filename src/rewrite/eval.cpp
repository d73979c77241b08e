#include "rewrite/eval.hpp"

#include <cmath>
#include <type_traits>

namespace cgp::rewrite {
namespace {

using matrix_ptr = std::shared_ptr<const matrix_value>;

matrix_ptr as_matrix(const value& v, const char* ctx) {
  if (const auto* m = std::get_if<matrix_ptr>(&v); m != nullptr && *m)
    return *m;
  throw eval_error(std::string("expected matrix operand in ") + ctx);
}

value matmul(const value& a, const value& b) {
  const matrix_ptr ma = as_matrix(a, "matmul");
  const matrix_ptr mb = as_matrix(b, "matmul");
  if (ma->cols != mb->rows) throw eval_error("matmul: dimension mismatch");
  matrix_value out{ma->rows, mb->cols,
                   std::vector<double>(ma->rows * mb->cols, 0.0)};
  for (std::size_t i = 0; i < ma->rows; ++i)
    for (std::size_t k = 0; k < ma->cols; ++k) {
      const double aik = ma->at(i, k);
      for (std::size_t j = 0; j < mb->cols; ++j)
        out.at(i, j) += aik * mb->at(k, j);
    }
  return std::make_shared<const matrix_value>(std::move(out));
}

/// Gauss-Jordan inverse (square, well-conditioned inputs only; this is an
/// evaluator for rewrite testing, not a numerics library — see src/linalg).
value matinv(const value& a) {
  const matrix_ptr m = as_matrix(a, "inverse");
  if (m->rows != m->cols) throw eval_error("inverse: non-square matrix");
  const std::size_t n = m->rows;
  matrix_value aug{n, 2 * n, std::vector<double>(n * 2 * n, 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) aug.at(i, j) = m->at(i, j);
    aug.at(i, n + i) = 1.0;
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(aug.at(r, col)) > std::abs(aug.at(pivot, col))) pivot = r;
    if (std::abs(aug.at(pivot, col)) < 1e-12)
      throw eval_error("inverse: singular matrix");
    if (pivot != col)
      for (std::size_t j = 0; j < 2 * n; ++j)
        std::swap(aug.at(pivot, j), aug.at(col, j));
    const double d = aug.at(col, col);
    for (std::size_t j = 0; j < 2 * n; ++j) aug.at(col, j) /= d;
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = aug.at(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < 2 * n; ++j)
        aug.at(r, j) -= f * aug.at(col, j);
    }
  }
  matrix_value out{n, n, std::vector<double>(n * n)};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(i, j) = aug.at(i, n + j);
  return std::make_shared<const matrix_value>(std::move(out));
}

template <class T>
value arith_binary(const std::string& op, T a, T b) {
  // Integer +, -, * wrap modulo 2^64: signed overflow is undefined, so
  // integers compute in the unsigned type (whose overflow is defined) and
  // convert back (defined, two's complement, since C++20).
  using W = typename std::conditional_t<std::is_integral_v<T>,
                                        std::make_unsigned<T>,
                                        std::type_identity<T>>::type;
  const W wa = static_cast<W>(a), wb = static_cast<W>(b);
  if (op == "+") return static_cast<T>(wa + wb);
  if (op == "-") return static_cast<T>(wa - wb);
  if (op == "*") return static_cast<T>(wa * wb);
  if (op == "/") {
    if constexpr (std::is_integral_v<T>) {
      if (b == T{0}) throw eval_error("integer division by zero");
    }
    return static_cast<T>(a / b);
  }
  if constexpr (std::is_integral_v<T>) {
    if (op == "%") {
      if (b == T{0}) throw eval_error("integer modulo by zero");
      return static_cast<T>(a % b);
    }
    if (op == "&") return static_cast<T>(a & b);
    if (op == "|") return static_cast<T>(a | b);
    if (op == "^") return static_cast<T>(a ^ b);
  }
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  if (op == ">=") return a >= b;
  if (op == "==") return a == b;
  if (op == "!=") return a != b;
  throw eval_error("unsupported arithmetic operator '" + op + "'");
}

}  // namespace

value evaluate(const expr& e, const environment& env) {
  switch (e.node_kind()) {
    case expr::kind::literal:
      return e.literal_value();
    case expr::kind::metavariable:
      throw eval_error("cannot evaluate unbound metavariable ?" + e.symbol());
    case expr::kind::variable:
    case expr::kind::named_const: {
      auto it = env.find(e.symbol());
      if (it != env.end()) return it->second;
      throw eval_error("unbound name '" + e.symbol() + "'");
    }
    case expr::kind::unary: {
      const value v = evaluate(e.children()[0], env);
      if (e.symbol() == "-") {
        if (const auto* i = std::get_if<std::int64_t>(&v)) return -*i;
        if (const auto* d = std::get_if<double>(&v)) return -*d;
        throw eval_error("unary - on non-numeric value");
      }
      if (e.symbol() == "!") {
        if (const auto* b = std::get_if<bool>(&v)) return !*b;
        throw eval_error("! on non-bool value");
      }
      if (e.symbol() == "~") {
        if (const auto* u = std::get_if<std::uint64_t>(&v)) return ~*u;
        throw eval_error("~ on non-unsigned value");
      }
      throw eval_error("unsupported unary operator '" + e.symbol() + "'");
    }
    case expr::kind::binary: {
      const value a = evaluate(e.children()[0], env);
      const value b = evaluate(e.children()[1], env);
      if (e.symbol() == "&&" || e.symbol() == "||") {
        const auto* ba = std::get_if<bool>(&a);
        const auto* bb = std::get_if<bool>(&b);
        if (ba == nullptr || bb == nullptr)
          throw eval_error("logical operator on non-bool operands");
        return e.symbol() == "&&" ? (*ba && *bb) : (*ba || *bb);
      }
      if (std::holds_alternative<std::int64_t>(a) &&
          std::holds_alternative<std::int64_t>(b))
        return arith_binary(e.symbol(), std::get<std::int64_t>(a),
                            std::get<std::int64_t>(b));
      if (std::holds_alternative<std::uint64_t>(a) &&
          std::holds_alternative<std::uint64_t>(b))
        return arith_binary(e.symbol(), std::get<std::uint64_t>(a),
                            std::get<std::uint64_t>(b));
      if (std::holds_alternative<double>(a) &&
          std::holds_alternative<double>(b))
        return arith_binary(e.symbol(), std::get<double>(a),
                            std::get<double>(b));
      if (std::holds_alternative<std::string>(a) &&
          std::holds_alternative<std::string>(b) && e.symbol() == "+")
        return std::get<std::string>(a) + std::get<std::string>(b);
      if (std::holds_alternative<matrix_ptr>(a)) {
        if (e.symbol() == "*") return matmul(a, b);
      }
      throw eval_error("binary '" + e.symbol() +
                       "' on unsupported operand types");
    }
    case expr::kind::call: {
      std::vector<value> args;
      args.reserve(e.children().size());
      for (const expr& c : e.children()) args.push_back(evaluate(c, env));
      const std::string& fn = e.symbol();
      if (fn == "concat" && args.size() == 2)
        return std::get<std::string>(args[0]) + std::get<std::string>(args[1]);
      if (fn == "matmul" && args.size() == 2) return matmul(args[0], args[1]);
      if (fn == "inverse" && args.size() == 1) return matinv(args[0]);
      if ((fn == "reciprocal" || fn == "Inverse") && args.size() == 1) {
        if (const auto* d = std::get_if<double>(&args[0])) {
          if (*d == 0.0) throw eval_error("reciprocal of zero");
          return 1.0 / *d;
        }
        throw eval_error(fn + " on non-floating value");
      }
      throw eval_error("unknown function '" + fn + "'");
    }
  }
  throw eval_error("unreachable expression kind");
}

cost_model::cost_model() {
  costs_ = {{"+", 1},         {"-", 1},        {"!", 1},   {"~", 1},
            {"&&", 1},        {"||", 1},       {"&", 1},   {"|", 1},
            {"^", 1},         {"<", 1},        {"*", 2},   {"%", 12},
            {"/", 12},        {"concat", 6},   {"matmul", 250},
            {"inverse", 900}, {"reciprocal", 12}, {"Inverse", 4}};
}

double cost_model::op_cost(const std::string& op) const {
  auto it = costs_.find(op);
  return it == costs_.end() ? default_call_cost_ : it->second;
}

double cost_model::total(const expr& e) const {
  double c = 0.0;
  switch (e.node_kind()) {
    case expr::kind::unary:
    case expr::kind::binary:
    case expr::kind::call:
      c = op_cost(e.symbol());
      break;
    default:
      return 0.0;
  }
  for (const expr& ch : e.children()) c += total(ch);
  return c;
}

}  // namespace cgp::rewrite
