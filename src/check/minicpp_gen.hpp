// Seeded, grammar-aware MiniCpp program generation: the golden safety net
// for STLlint refactors and the input source for fuzzing its lexer, parser
// and analyzer.
//
// Every program is a pure function of its seed.  The generator keeps a
// scope of typed variables, so most statements mean something to the
// analyzer: iterators into declared containers, algorithm ranges over
// them, mutations while iterators are live, loops and branches around all
// of it.  Across a few hundred seeds it reaches every statement and
// expression kind of the MiniCpp grammar, every member function STLlint
// models (and ones it does not), every algorithm spec and every container
// kind.  A small share of programs also get one byte-level mutation, so
// lexer errors and parser recovery are exercised too.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "check/gen.hpp"

namespace cgp::check {

class minicpp_generator {
 public:
  explicit minicpp_generator(std::uint64_t seed) : rs_(seed) {}

  /// One translation unit of 1..kMaxFunctions function definitions.
  [[nodiscard]] std::string program() {
    const int fns = 1 + static_cast<int>(rs_.below(kMaxFunctions));
    for (int f = 0; f < fns; ++f) function();
    if (rs_.chance(kMutatePercent) && !out_.empty()) {
      const std::size_t at = rs_.below(out_.size());
      static constexpr std::string_view noise = "(){};@\"/*<>.:";
      if (rs_.chance(50))
        out_.erase(at, 1);
      else
        out_.insert(at, 1, noise[rs_.below(noise.size())]);
    }
    return std::move(out_);
  }

 private:
  static constexpr std::uint64_t kMaxFunctions = 3;
  static constexpr std::uint64_t kMaxStatements = 5;  ///< per block
  static constexpr int kMaxDepth = 3;  ///< nesting of compound statements
  static constexpr unsigned kMutatePercent = 6;  ///< one byte-level mutation

  enum class vk { container, iterator, integer, boolean, other };
  struct var {
    std::string name;
    vk k;
    std::string kind;  ///< container kind, for containers and iterators
  };

  static constexpr const char* kKinds[] = {
      "vector", "list", "deque", "set", "multiset", "input_stream"};
  static constexpr const char* kElems[] = {"int", "int", "double", "string",
                                           "student_info"};
  static constexpr const char* kNames[] = {
      "a",     "b",    "c",     "it",   "jt",    "pos",  "first",
      "last",  "v",    "w",     "xs",   "n",     "k",    "total",
      "flag",  "iter", "zeta",  "mid",  "alpha", "students",
      "an_unusually_long_variable_name"};
  static constexpr const char* kAlgorithms[] = {
      "find",       "find_if",     "count",        "accumulate",
      "for_each",   "max_element", "min_element",  "adjacent_find",
      "unique",     "lower_bound", "upper_bound",  "equal_range",
      "binary_search", "reverse",  "sort",         "stable_sort",
      "nth_element", "random_shuffle", "merge",    "copy"};

  template <class T, std::size_t N>
  const T& pick(const T (&xs)[N]) {
    return xs[rs_.below(N)];
  }
  std::string num(int lo, int hi) { return std::to_string(rs_.int_in(lo, hi)); }
  /// Concatenates `parts`.  A braced list evaluates its elements left to
  /// right, which fixes the order of the random draws inside them; the
  /// operands of `+` are unsequenced, and compilers order them differently.
  static std::string cat(std::initializer_list<std::string> parts) {
    std::string out;
    for (const std::string& p : parts) out += p;
    return out;
  }

  void line(const std::string& text) {
    out_.append(static_cast<std::size_t>(2 * indent_), ' ');
    out_ += text;
    out_ += '\n';
  }

  /// A variable of kind `k` in scope, or nullptr.
  const var* find_var(vk k) {
    std::vector<const var*> hits;
    for (const var& v : scope_)
      if (v.k == k) hits.push_back(&v);
    return hits.empty() ? nullptr : hits[rs_.below(hits.size())];
  }
  std::string fresh(vk k, std::string kind = {}) {
    std::string name = pick(kNames);
    scope_.push_back({name, k, std::move(kind)});
    return name;
  }
  std::string container_type(const std::string& kind) {
    return kind + "<" + pick(kElems) + ">";
  }

  // --- expressions ---------------------------------------------------------
  std::string cont_name() {
    const var* c = find_var(vk::container);
    return c != nullptr ? c->name : std::string(pick(kNames));
  }
  std::string int_expr(int depth) {
    const var* i = find_var(vk::integer);
    switch (depth <= 0 ? rs_.below(3) : rs_.below(12)) {
      case 0:
        return num(-2, 12);
      case 1:
        return i != nullptr ? i->name : num(0, 3);
      case 2:
        return cont_name() + ".size()";
      case 3:
      case 4: {
        static constexpr const char* ops[] = {"+", "-", "*", "/", "%"};
        return cat({int_expr(depth - 1), " ", pick(ops), " ",
                    int_expr(depth - 1)});
      }
      case 5:
        return "-" + int_expr(depth - 1);
      case 6:
        return "(" + int_expr(depth - 1) + ")";
      case 7:
        return i != nullptr ? i->name + (rs_.chance(50) ? "++" : "--")
                            : std::string("--k");
      case 8: {
        const std::string c = cont_name();
        return std::string(rs_.chance(50) ? "count" : "accumulate") + "(" + c +
               ".begin(), " + c + ".end(), 0)";
      }
      case 9:
        return cat({"weigh(", int_expr(depth - 1), ", ", num(1, 9), ")"});
      case 10:
        return rs_.chance(50) ? "2.5" : "\"text\"";
      default:
        return "*" + iter_expr(depth - 1);
    }
  }
  std::string bool_expr(int depth) {
    static constexpr const char* cmp[] = {"<", "<=", ">", ">=", "==", "!="};
    const var* it = find_var(vk::iterator);
    switch (depth <= 0 ? rs_.below(3) : rs_.below(10)) {
      case 0:
        return rs_.chance(50) ? "true" : "false";
      case 1:
        return cont_name() + ".empty()";
      case 2: {
        const var* b = find_var(vk::boolean);
        return b != nullptr ? b->name : std::string("fails(") + num(0, 9) + ")";
      }
      case 3:
      case 4:
        if (it != nullptr)
          return cat({it->name, rs_.chance(50) ? " != " : " == ",
                      rs_.chance(80) ? cont_name() + ".end()"
                                     : iter_expr(depth - 1)});
        [[fallthrough]];
      case 5:
        return cat({int_expr(depth - 1), " ", pick(cmp), " ",
                    int_expr(depth - 1)});
      case 6:
        return "!" + bool_expr(depth - 1);
      case 7:
        return cat({bool_expr(depth - 1), rs_.chance(50) ? " && " : " || ",
                    bool_expr(depth - 1)});
      case 8: {
        const std::string c = cont_name();
        return "binary_search(" + c + ".begin(), " + c + ".end(), " +
               num(0, 9) + ")";
      }
      default:
        return "!" + cont_name() + ".empty()";
    }
  }
  std::string iter_expr(int depth) {
    const std::string c = cont_name();
    const var* it = find_var(vk::iterator);
    switch (depth <= 0 ? rs_.below(3) : rs_.below(9)) {
      case 0:
        return c + ".begin()";
      case 1:
        return c + ".end()";
      case 2:
        return it != nullptr ? it->name : c + ".begin()";
      case 3:
        return c + ".find(" + num(0, 9) + ")";
      case 4:
        return cat({c, ".insert(", iter_expr(0), ", ", num(0, 9), ")"});
      case 5:
        return c + ".erase(" + iter_expr(0) + ")";
      case 6:
        return algorithm_call(depth - 1);
      case 7:
        return it != nullptr ? (rs_.chance(50) ? "++" : "--") + it->name
                             : c + ".end()";
      default:
        return c + ".insert(" + num(0, 9) + ")";
    }
  }
  std::string algorithm_call(int depth) {
    const std::string a = cont_name();
    const std::string b = rs_.chance(85) ? a : cont_name();
    std::string call = std::string(pick(kAlgorithms)) + "(";
    switch (rs_.below(10)) {
      case 0:
        return call + a + ".begin())";  // too few arguments
      case 1:
        return cat({call, iter_expr(depth), ", ", iter_expr(depth), ")"});
      default:
        call += a + ".begin(), " + b + ".end()";
        if (rs_.chance(60)) call += ", " + int_expr(depth);
        return call + ")";
    }
  }
  std::string member_call() {
    const std::string c = cont_name();
    const var* it = find_var(vk::iterator);
    const std::string pos = it != nullptr ? it->name : c + ".begin()";
    switch (rs_.below(18)) {
      case 0:
      case 1:
        return c + ".push_back(" + int_expr(1) + ")";
      case 2:
        return c + ".pop_back()";
      case 3:
        return c + ".clear()";
      case 4:
        return c + ".insert(" + pos + ", " + num(0, 9) + ")";
      case 5:
        return c + ".insert(" + num(0, 9) + ")";
      case 6:
      case 7:
        return c + ".erase(" + pos + ")";
      case 8:
        return c + ".front()";
      case 9:
        return c + ".back()";
      case 10:
        return c + ".sort()";
      case 11:
        return c + ".reserve(" + num(1, 64) + ")";
      case 12:
        return c + ".resize(" + int_expr(1) + ")";
      case 13:
        return c + ".swap(" + cont_name() + ")";
      case 14:
        return c + ".size()";
      case 15:
        return c + (rs_.chance(50) ? ".capacity()" : ".shrink_to_fit()");
      case 16:
        return "n.describe(" + num(0, 3) + ")";  // receiver not a container
      default:
        return c + ".empty()";
    }
  }

  // --- statements ----------------------------------------------------------
  void declaration(int kind = -1) {
    switch (kind >= 0 ? static_cast<std::uint64_t>(kind) : rs_.below(7)) {
      case 0: {
        const std::string kind = pick(kKinds);
        const std::string type = container_type(kind);
        const var* src = find_var(vk::container);
        const std::string init =
            src != nullptr && rs_.chance(30) ? " = " + src->name : "";
        line(type + " " + fresh(vk::container, kind) + init + ";");
        return;
      }
      case 1:
      case 2: {
        const var* c = find_var(vk::container);
        const std::string kind = c != nullptr ? c->kind : pick(kKinds);
        const std::string init = rs_.chance(15) ? "" : " = " + iter_expr(2);
        line(cat({container_type(kind), "::iterator ",
                  fresh(vk::iterator, kind), init, ";"}));
        return;
      }
      case 3:
        line(cat({"int ", fresh(vk::integer),
                  rs_.chance(80) ? " = " + int_expr(2) : "", ";"}));
        return;
      case 4:
        line(cat({"bool ", fresh(vk::boolean), " = ", bool_expr(2), ";"}));
        return;
      case 5:
        line(rs_.chance(50) ? "double " + fresh(vk::other) + " = 1.5;"
                            : "string " + fresh(vk::other) + " = \"s\";");
        return;
      default:
        line(cat({"student_info ", fresh(vk::other), " = ", cont_name(),
                  ".front();"}));
        return;
    }
  }
  void expression_statement() {
    const var* it = find_var(vk::iterator);
    const var* i = find_var(vk::integer);
    const std::string iv = it != nullptr ? it->name : "iter";
    const std::uint64_t roll = rs_.below(13);
    if (it == nullptr && roll >= 5 && roll <= 8 && rs_.chance(80))
      return declaration(1);
    switch (roll) {
      case 0:
      case 1:
      case 2:
        line(member_call() + ";");
        return;
      case 3:
      case 4:
        line(algorithm_call(1) + ";");
        return;
      case 5:
        line("use(*" + iv + ");");
        return;
      case 6:
        line("*" + iv + " = " + int_expr(1) + ";");
        return;
      case 7:
        line(rs_.chance(50) ? "++" + iv + ";" : iv + "--;");
        return;
      case 8:
        line(iv + " = " + iter_expr(2) + ";");
        return;
      case 9: {
        static constexpr const char* ops[] = {"=", "+=", "-="};
        line(cat({i != nullptr ? i->name : "total", " ", pick(ops), " ",
                  int_expr(2), ";"}));
        return;
      }
      case 10:
        line(cat({cont_name(), " = ", cont_name(), ";"}));
        return;
      default:
        if (rs_.chance(20))
          line(cat({cont_name(), ".size() = ", num(0, 9), ";"}));  // bad target
        else
          line("x = " + bool_expr(2) + ";");
        return;
    }
  }
  void block(int depth) {
    const std::size_t mark = scope_.size();
    ++indent_;
    const int n = static_cast<int>(rs_.below(kMaxStatements));
    for (int s = 0; s <= n; ++s) statement(depth);
    --indent_;
    scope_.resize(mark);
  }
  void body(int depth) {  // braced block or a single statement
    if (rs_.chance(80)) {
      out_.back() = ' ';
      out_ += "{\n";
      block(depth);
      line("}");
    } else {
      ++indent_;
      statement(depth);
      --indent_;
    }
  }
  void statement(int depth) {
    const std::uint64_t roll =
        depth >= kMaxDepth ? rs_.below(10) : rs_.below(17);
    if (roll < 4) return declaration();
    if (roll < 9) return expression_statement();
    if (roll == 9) {
      if (loops_ > 0 && rs_.chance(50))
        return line(rs_.chance(50) ? "break;" : "continue;");
      return line(rs_.chance(30) ? "return;" : "return " + int_expr(1) + ";");
    }
    if (roll < 12) {
      line("if (" + bool_expr(2) + ")");
      body(depth + 1);
      if (rs_.chance(40)) {
        line("else");
        body(depth + 1);
      }
      return;
    }
    ++loops_;
    if (roll < 14) {
      line("while (" + bool_expr(2) + ")");
      body(depth + 1);
    } else if (roll < 16) {
      const std::size_t mark = scope_.size();
      std::string init, cond = rs_.chance(85) ? bool_expr(2) : "";
      switch (rs_.below(4)) {
        case 0:
          init = "int " + fresh(vk::integer) + " = 0";
          break;
        case 1: {
          const var* c = find_var(vk::container);
          const std::string kind = c != nullptr ? c->kind : "vector";
          const std::string cn = c != nullptr ? c->name : "v";
          const std::string it = fresh(vk::iterator, kind);
          init = container_type(kind) + "::iterator " + it + " = " + cn +
                 ".begin()";
          if (rs_.chance(70)) cond = it + " != " + cn + ".end()";
          break;
        }
        case 2: {
          const var* i = find_var(vk::integer);
          init = (i != nullptr ? i->name : std::string("k")) + " = 0";
          break;
        }
        default:
          break;
      }
      const var* it = find_var(vk::iterator);
      const std::string step =
          rs_.chance(15) ? ""
          : it != nullptr && rs_.chance(50) ? "++" + it->name
                                            : int_expr(1);
      line("for (" + init + "; " + cond + "; " + step + ")");
      body(depth + 1);
      scope_.resize(mark);
    } else {
      line("{");
      block(depth + 1);
      line("}");
    }
    --loops_;
  }
  void function() {
    static constexpr const char* rets[] = {"void", "int", "bool",
                                           "vector<int>"};
    std::string head = std::string(pick(rets)) + " f" +
                       std::to_string(fn_++) + "(";
    const int params = static_cast<int>(rs_.below(3));
    for (int p = 0; p <= params; ++p) {
      if (p > 0) head += ", ";
      switch (p == 0 ? 0 : rs_.below(6)) {
        case 0:
        case 1:
        case 2: {
          const std::string kind = pick(kKinds);
          head += cat({rs_.chance(20) ? "const " : "", container_type(kind),
                       rs_.chance(80) ? "& " : " ",
                       fresh(vk::container, kind)});
          break;
        }
        case 3:
          head += "int " + fresh(vk::integer);
          break;
        case 4:
          head += "bool " + fresh(vk::boolean);
          break;
        default: {
          const std::string kind = pick(kKinds);
          head += cat({container_type(kind), "::iterator ",
                       fresh(vk::iterator, kind)});
          break;
        }
      }
    }
    line(head + ") {");
    block(0);
    line("}");
    scope_.clear();
  }

  random_source rs_;
  std::string out_;
  std::vector<var> scope_;
  int indent_ = 0;
  int loops_ = 0;
  int fn_ = 0;
};

/// The MiniCpp program for `seed` (see minicpp_generator).
[[nodiscard]] inline std::string generate_minicpp(std::uint64_t seed) {
  return minicpp_generator(seed).program();
}

}  // namespace cgp::check
