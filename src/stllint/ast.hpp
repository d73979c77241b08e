// AST and type representation for MiniCpp.
//
// A parsed program is flat: its expressions and statements live in two
// vectors owned by `ast_program` and refer to each other by 32-bit index.
// An expression's operands and a block's statements are an (offset, count)
// range into one flat index vector, `kids` (the CSR layout of
// distributed/topology).  Types are rows of a per-program table and names
// are interned in its symbol table, so no node owns a string or a pointer:
// a tree is built into a handful of vectors reserved up front and dropped
// without recursion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/symbol.hpp"
#include "stllint/lexer.hpp"

namespace cgp::stllint {

/// Index of an expression or statement in its program's vector.
using node_id = std::uint32_t;
inline constexpr node_id no_node = ~node_id{0};
/// Index of a type in its program's type table, whose first rows are the
/// scalar types in mini_type::kind order.
using type_id = std::uint32_t;

/// MiniCpp types.  Containers know their kind (the op_table row of
/// "vector", "list", "deque", "set", "multiset" or "input_stream") and
/// element type; iterator types know which container kind they iterate.
struct mini_type {
  enum class kind : std::uint8_t {
    void_t,
    int_t,
    bool_t,
    double_t,
    string_t,
    user,       ///< opaque user type, e.g. student_info
    container,
    iterator,
  };

  kind k = kind::void_t;
  op_id container = 0;                ///< for container/iterator
  type_id element = 0;                ///< for container/iterator
  core::symbol name = core::no_symbol;  ///< for kind::user

  [[nodiscard]] bool is_container() const { return k == kind::container; }
  [[nodiscard]] bool is_iterator() const { return k == kind::iterator; }
};

/// Expression node.  Operators carry their `op` id, names (var, call,
/// member_call) their interned `sym`, integer literals their value.
struct ast_expr {
  enum class kind : std::uint8_t {
    int_lit,
    double_lit,
    bool_lit,
    string_lit,
    var,
    unary,        ///< op in {"++", "--", "!", "-", "*"}; prefix
    postfix,      ///< op in {"++", "--"}
    binary,       ///< op in {"+","-","*","/","%","<","<=",">",">=","==","!=","&&","||"}
    assign,       ///< children = {target, value}; op in {"=", "+=", "-="}
    member_call,  ///< sym = method; children = {object, args...}
    call,         ///< sym = function; children = args
  };

  kind k = kind::int_lit;
  op_id op = 0;
  core::symbol sym = core::no_symbol;
  long value = 0;  ///< int_lit
  std::uint32_t first = 0, count = 0;  ///< children: kids[first, first + count)
  int line = 0;
  int column = 0;
};

/// Statement node.
struct ast_stmt {
  enum class kind : std::uint8_t {
    decl,      ///< decl_type name [= e1];
    expr,      ///< e1;
    if_stmt,   ///< if (e1) s1 [else s2]
    while_stmt,  ///< while (e1) s1
    for_stmt,  ///< for (s1; e1; e2) s2   (s1 may be decl or expr stmt)
    return_stmt,  ///< return [e1];
    block,     ///< { body... }: kids[first, first + count)
    break_stmt,
    continue_stmt,
  };

  kind k = kind::block;
  type_id decl_type = 0;
  core::symbol sym = core::no_symbol;  ///< declared variable name
  node_id e1 = no_node, e2 = no_node;  ///< expressions
  node_id s1 = no_node, s2 = no_node;  ///< statements
  std::uint32_t first = 0, count = 0;  ///< block body
  int line = 0;
  int column = 0;
};

/// Function parameter; containers may be passed by reference (the analyzer
/// treats both the same — no container aliasing in MiniCpp).
struct ast_param {
  type_id type = 0;
  core::symbol sym = core::no_symbol;
  bool by_ref = false;
};

struct ast_function {
  type_id return_type = 0;
  core::symbol sym = core::no_symbol;
  std::uint32_t first_param = 0, param_count = 0;  ///< into params
  node_id body = no_node;
  int line = 0;
};

/// A parsed translation unit: it owns every node, type and name its
/// functions refer to.
struct ast_program {
  std::vector<ast_function> functions;
  std::vector<ast_param> params;
  std::vector<ast_expr> exprs;
  std::vector<ast_stmt> stmts;
  std::vector<node_id> kids;
  std::vector<mini_type> types;  ///< scalars first, then one row per parse
  core::symbol_table symbols;

  [[nodiscard]] std::span<const node_id> children(const ast_expr& e) const {
    return {kids.data() + e.first, e.count};
  }
  [[nodiscard]] std::span<const node_id> body(const ast_stmt& s) const {
    return {kids.data() + s.first, s.count};
  }
  [[nodiscard]] std::span<const ast_param> params_of(
      const ast_function& fn) const {
    return {params.data() + fn.first_param, fn.param_count};
  }
  /// `t` spelled as in source, e.g. "vector<int>::iterator".
  [[nodiscard]] std::string type_name(type_id t) const;
};

}  // namespace cgp::stllint
