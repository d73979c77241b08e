// AST and type representation for MiniCpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/symbol.hpp"
#include "stllint/lexer.hpp"

namespace cgp::stllint {

/// MiniCpp types.  Containers know their kind ("vector", "list", "deque",
/// "set", "multiset", "input_stream") and element type; iterator types know
/// which container kind they iterate.
struct mini_type {
  enum class kind {
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
  std::string user_name;             ///< for kind::user
  std::string container;             ///< container kind, for container/iterator
  std::shared_ptr<mini_type> element;  ///< element type, for container/iterator

  [[nodiscard]] bool is_container() const { return k == kind::container; }
  [[nodiscard]] bool is_iterator() const { return k == kind::iterator; }
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] static mini_type void_type() { return {}; }
  [[nodiscard]] static mini_type scalar(kind k) {
    mini_type t;
    t.k = k;
    return t;
  }
  [[nodiscard]] static mini_type user(std::string name) {
    mini_type t;
    t.k = kind::user;
    t.user_name = std::move(name);
    return t;
  }
  [[nodiscard]] static mini_type make_container(std::string c, mini_type elem) {
    mini_type t;
    t.k = kind::container;
    t.container = std::move(c);
    t.element = std::make_shared<mini_type>(std::move(elem));
    return t;
  }
  [[nodiscard]] static mini_type make_iterator(std::string c, mini_type elem) {
    mini_type t;
    t.k = kind::iterator;
    t.container = std::move(c);
    t.element = std::make_shared<mini_type>(std::move(elem));
    return t;
  }
};

/// Expression node.  `text` holds the operator, callee, variable name, or
/// literal spelling depending on `k`; operators also carry their `op` id,
/// and names (var, call, member_call) their interned `sym`.
struct ast_expr {
  enum class kind {
    int_lit,
    double_lit,
    bool_lit,
    string_lit,
    var,
    unary,        ///< text in {"++", "--", "!", "-", "*"}; prefix
    postfix,      ///< text in {"++", "--"}
    binary,       ///< text in {"+","-","*","/","%","<","<=",">",">=","==","!=","&&","||"}
    assign,       ///< children = {target, value}; text in {"=", "+=", "-="}
    member_call,  ///< text = method; children = {object, args...}
    call,         ///< text = function; children = args
  };

  kind k = kind::int_lit;
  std::string text;
  op_id op = 0;
  core::symbol sym = core::no_symbol;
  std::vector<std::unique_ptr<ast_expr>> children;
  int line = 0;
  int column = 0;
};

using expr_ptr = std::unique_ptr<ast_expr>;

/// Statement node.
struct ast_stmt {
  enum class kind {
    decl,      ///< decl_type name [= e1];
    expr,      ///< e1;
    if_stmt,   ///< if (e1) s1 [else s2]
    while_stmt,  ///< while (e1) s1
    for_stmt,  ///< for (s1; e1; e2) s2   (s1 may be decl or expr stmt)
    return_stmt,  ///< return [e1];
    block,     ///< { body... }
    break_stmt,
    continue_stmt,
  };

  kind k = kind::block;
  mini_type decl_type;
  std::string name;  ///< declared variable name
  core::symbol sym = core::no_symbol;  ///< interned `name`
  expr_ptr e1, e2;
  std::unique_ptr<ast_stmt> s1, s2;
  std::vector<std::unique_ptr<ast_stmt>> body;
  int line = 0;
  int column = 0;
};

using stmt_ptr = std::unique_ptr<ast_stmt>;

/// Function parameter; containers may be passed by reference (the analyzer
/// treats both the same — no container aliasing in MiniCpp).
struct ast_param {
  mini_type type;
  std::string name;
  core::symbol sym = core::no_symbol;
  bool by_ref = false;
};

struct ast_function {
  mini_type return_type;
  std::string name;
  core::symbol sym = core::no_symbol;
  std::vector<ast_param> params;
  stmt_ptr body;
  int line = 0;
};

/// A parsed translation unit; it owns the symbol table its `sym` ids index.
struct ast_program {
  std::vector<ast_function> functions;
  core::symbol_table symbols;
};

}  // namespace cgp::stllint
