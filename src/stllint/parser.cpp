#include "stllint/parser.hpp"

#include <array>
#include <charconv>

namespace cgp::stllint {

std::string ast_program::type_name(type_id id) const {
  const mini_type& t = types[id];
  if (t.k == mini_type::kind::user) return std::string(symbols.name(t.name));
  if (!t.is_container() && !t.is_iterator())  // a scalar: its op_table row
    return std::string(op_table[op_of("void") + static_cast<int>(t.k)]);
  return std::string(op_table[t.container]) + "<" + type_name(t.element) +
         ">" + (t.is_iterator() ? "::iterator" : "");
}

namespace {

/// Binding level of each binary operator by op_table row: 0 for `||` up to
/// 5 for `*`, `/` and `%`; -1 for every other row.
constexpr int kBinaryLevels = 6;
constexpr std::array<std::int8_t, std::size(op_table)> kBinaryLevel = [] {
  std::array<std::int8_t, std::size(op_table)> t{};
  t.fill(-1);
  t[op_of("||")] = 0;
  t[op_of("&&")] = 1;
  t[op_of("==")] = t[op_of("!=")] = 2;
  t[op_of("<")] = t[op_of("<=")] = t[op_of(">")] = t[op_of(">=")] = 3;
  t[op_of("+")] = t[op_of("-")] = 4;
  t[op_of("*")] = t[op_of("/")] = t[op_of("%")] = 5;
  return t;
}();
constexpr bool is_assignment(op_id o) {
  return o == op_of("=") || o == op_of("+=") || o == op_of("-=");
}
constexpr bool is_prefix(op_id o) {
  return o == op_of("++") || o == op_of("--") || o == op_of("!") ||
         o == op_of("-") || o == op_of("*");
}

class parser {
 public:
  parser(const std::vector<token>& toks, diagnostics& diags)
      : toks_(toks), diags_(diags) {
    // Sized from the token count: each share is above the most any
    // generated program needs, so a typical parse grows nothing.
    const std::size_t n = toks.size();
    prog_.functions.reserve(n / 128 + 4);
    prog_.params.reserve(n / 32 + 8);
    prog_.exprs.reserve(n / 2);
    prog_.stmts.reserve(n / 4);
    prog_.kids.reserve(n / 2);
    prog_.types.reserve(n / 16 + 8);
    pending_.reserve(64);
    // The scalar types are the first rows, in mini_type::kind order.
    for (int k = 0; k <= static_cast<int>(mini_type::kind::string_t); ++k)
      prog_.types.push_back({.k = static_cast<mini_type::kind>(k)});
  }

  ast_program parse_program() {
    while (!peek().is(token_kind::end_of_file)) {
      const std::size_t before = pos_;
      if (const auto fn = parse_function()) prog_.functions.push_back(*fn);
      if (pos_ == before) advance();  // ensure progress on malformed input
    }
    return std::move(prog_);
  }

 private:
  // --- token stream helpers -------------------------------------------------
  const token& peek(std::size_t k = 0) const {
    const std::size_t i = pos_ + k;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const token& advance() {
    const token& t = peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  bool accept(op_id o) {
    if (!peek().is(o)) return false;
    advance();
    return true;
  }
  void expect(op_id o) {
    if (!accept(o)) error("expected '" + std::string(op_table[o]) + "'");
  }
  void error(const std::string& msg) {
    if (stopped_) return;
    diags_.push_back({severity::error, peek().line, peek().column,
                      cat({msg, " (got '", peek().text, "')"}), ""});
  }

  /// Restores the nesting depth when the construct it guards ends.
  struct depth_scope {
    parser& p;
    int saved = p.depth_;
    ~depth_scope() { p.depth_ = saved; }
  };

  /// One more nesting level until the enclosing depth_scope ends.  Past
  /// kMaxParseDepth: one error, then end of input, so the parse unwinds
  /// with what it has.  False once stopped.
  [[nodiscard]] bool deepen() {
    if (++depth_ > kMaxParseDepth && !stopped_) {
      error("nesting deeper than " + std::to_string(kMaxParseDepth) +
            " levels");
      stopped_ = true;
      pos_ = toks_.size() - 1;
    }
    return !stopped_;
  }
  core::symbol intern(const token& t) { return prog_.symbols.intern(t.text); }
  void sync_to_statement_end() {
    int depth = 0;
    while (!peek().is(token_kind::end_of_file)) {
      const token& t = peek();
      if (t.is(op_of("{"))) ++depth;
      if (t.is(op_of("}"))) {
        if (depth == 0) return;
        --depth;
      }
      if (t.is(op_of(";")) && depth == 0) {
        advance();
        return;
      }
      advance();
    }
  }

  // --- nodes -----------------------------------------------------------------
  /// Children collected for a node not yet built, on the parser's one
  /// stack; dropped from it when the list goes out of scope.
  struct child_list {
    parser& p;
    std::size_t mark = p.pending_.size();
    ~child_list() { p.pending_.resize(mark); }
    void add(node_id id) { p.pending_.push_back(id); }
    [[nodiscard]] std::span<const node_id> ids() const {
      return std::span<const node_id>(p.pending_).subspan(mark);
    }
  };

  /// Appends `children` to the flat index vector; returns where they start.
  std::uint32_t attach(std::span<const node_id> children) {
    prog_.kids.insert(prog_.kids.end(), children.begin(), children.end());
    return static_cast<std::uint32_t>(prog_.kids.size() - children.size());
  }
  /// A new expression at token `t` over `children`, named `sym`.
  node_id add_expr(ast_expr::kind k, const token& t,
                   std::span<const node_id> children = {},
                   core::symbol sym = core::no_symbol) {
    prog_.exprs.push_back(
        {.k = k, .op = t.op, .sym = sym, .first = attach(children),
         .count = static_cast<std::uint32_t>(children.size()),
         .line = t.line, .column = t.column});
    return static_cast<node_id>(prog_.exprs.size() - 1);
  }
  node_id add_stmt(const ast_stmt& s) {
    prog_.stmts.push_back(s);
    return static_cast<node_id>(prog_.stmts.size() - 1);
  }
  static ast_stmt stmt_at(ast_stmt::kind k, const token& t) {
    return {.k = k, .line = t.line, .column = t.column};
  }

  // --- types ------------------------------------------------------------------
  /// Returns true iff a type starts at position `pos_ + k` (lookahead only).
  bool looks_like_type(std::size_t k = 0) const {
    const token& t = peek(k);
    if (is_scalar_type(t.op) || is_container_kind(t.op)) return true;
    // user-type declaration heuristic: identifier identifier
    return t.is(token_kind::identifier) &&
           peek(k + 1).is(token_kind::identifier);
  }

  /// A new row of the type table (scalars have theirs already).
  type_id add_type(const mini_type& t) {
    prog_.types.push_back(t);
    return static_cast<type_id>(prog_.types.size() - 1);
  }

  std::optional<type_id> parse_type() {
    const depth_scope scope{*this};
    if (!deepen()) return std::nullopt;
    const token& t = peek();
    if (is_scalar_type(t.op)) {
      advance();
      return static_cast<type_id>(t.op - op_of("void"));
    }
    if (is_container_kind(t.op)) {
      advance();
      expect(op_of("<"));
      const auto elem = parse_type();
      if (!elem) return std::nullopt;
      // tolerate `>>` from nested templates by splitting: not needed in
      // MiniCpp (single-level templates only).
      expect(op_of(">"));
      mini_type type{.k = mini_type::kind::container, .container = t.op,
                     .element = *elem};
      if (accept(op_of("::"))) {
        if (!accept(op_of("iterator"))) {
          error("expected 'iterator' after '::'");
          return std::nullopt;
        }
        type.k = mini_type::kind::iterator;
      }
      return add_type(type);
    }
    if (t.is(token_kind::identifier)) {
      advance();
      return add_type({.k = mini_type::kind::user, .name = intern(t)});
    }
    error("expected a type");
    return std::nullopt;
  }

  // --- expressions --------------------------------------------------------------
  node_id parse_expression() { return parse_assignment(); }

  node_id parse_assignment() {
    const depth_scope scope{*this};
    if (!deepen()) return no_node;
    const node_id lhs = parse_binary_level(0);
    if (lhs == no_node || !is_assignment(peek().op)) return lhs;
    const token& t = advance();
    const node_id rhs = parse_assignment();
    if (rhs == no_node) return no_node;
    return add_expr(ast_expr::kind::assign, t, std::array{lhs, rhs});
  }

  node_id parse_binary_level(int level) {
    if (level >= kBinaryLevels) return parse_unary();
    node_id lhs = parse_binary_level(level + 1);
    if (lhs == no_node) return no_node;
    // Each operator of a chain deepens its left spine by one level.
    const depth_scope scope{*this};
    while (kBinaryLevel[peek().op] == level) {
      if (!deepen()) return no_node;
      const token& t = advance();
      const node_id rhs = parse_binary_level(level + 1);
      if (rhs == no_node) return no_node;
      lhs = add_expr(ast_expr::kind::binary, t, std::array{lhs, rhs});
    }
    return lhs;
  }

  node_id parse_unary() {
    const token& t = peek();
    if (!is_prefix(t.op)) return parse_postfix();
    advance();
    const depth_scope scope{*this};
    if (!deepen()) return no_node;
    const node_id operand = parse_unary();
    if (operand == no_node) return no_node;
    return add_expr(ast_expr::kind::unary, t, std::array{operand});
  }

  node_id parse_postfix() {
    node_id e = parse_primary();
    if (e == no_node) return no_node;
    // Like binary chains, each postfix operator deepens the tree.
    const depth_scope scope{*this};
    for (;;) {
      const token& t = peek();
      if (t.is(op_of("++")) || t.is(op_of("--"))) {
        if (!deepen()) return no_node;
        advance();
        e = add_expr(ast_expr::kind::postfix, t, std::array{e});
        continue;
      }
      if (t.is(op_of("."))) {
        if (!deepen()) return no_node;
        advance();
        const token& name = peek();
        if (!name.is(token_kind::identifier) &&
            !name.is(token_kind::keyword)) {
          error("expected member name after '.'");
          return no_node;
        }
        advance();
        e = parse_call(ast_expr::kind::member_call, name, e);
        if (e == no_node) return no_node;
        continue;
      }
      return e;
    }
  }

  node_id parse_primary() {
    const token& t = peek();
    if (t.is(token_kind::integer)) {
      advance();
      const node_id id = add_expr(ast_expr::kind::int_lit, t);
      std::from_chars(t.text.data(), t.text.data() + t.text.size(),
                      prog_.exprs[id].value);
      return id;
    }
    if (t.is(token_kind::floating)) {
      advance();
      return add_expr(ast_expr::kind::double_lit, t);
    }
    if (t.is(token_kind::string_lit)) {
      advance();
      return add_expr(ast_expr::kind::string_lit, t);
    }
    if (t.is(op_of("true")) || t.is(op_of("false"))) {
      advance();
      return add_expr(ast_expr::kind::bool_lit, t);
    }
    if (t.is(op_of("("))) {
      advance();
      const node_id inner = parse_expression();
      expect(op_of(")"));
      return inner;
    }
    if (t.is(token_kind::identifier)) {
      advance();
      if (!peek().is(op_of("(")))
        return add_expr(ast_expr::kind::var, t, {}, intern(t));
      return parse_call(ast_expr::kind::call, t, no_node);  // free function
    }
    error("expected an expression");
    return no_node;
  }

  /// A call of `name` on `object` (no_node for a free function): parses
  /// `(arg, ...)` into its children after `object`.
  node_id parse_call(ast_expr::kind k, const token& name, node_id object) {
    const core::symbol sym = intern(name);
    child_list args{*this};
    if (object != no_node) args.add(object);
    expect(op_of("("));
    if (!peek().is(op_of(")"))) {
      do {
        const node_id arg = parse_expression();
        if (arg == no_node) return no_node;
        args.add(arg);
      } while (accept(op_of(",")));
    }
    expect(op_of(")"));
    return add_expr(k, name, args.ids(), sym);
  }

  // --- statements ------------------------------------------------------------
  node_id parse_statement() {
    const depth_scope scope{*this};
    if (!deepen()) return no_node;
    const token& t = peek();
    if (t.is(op_of("{"))) return parse_block();
    if (t.is(op_of("if")) || t.is(op_of("while"))) return parse_if_or_while();
    if (t.is(op_of("for"))) return parse_for();
    if (t.is(op_of("return"))) {
      advance();
      ast_stmt s = stmt_at(ast_stmt::kind::return_stmt, t);
      if (!peek().is(op_of(";"))) s.e1 = parse_expression();
      expect(op_of(";"));
      return add_stmt(s);
    }
    if (t.is(op_of("break")) || t.is(op_of("continue"))) {
      advance();
      expect(op_of(";"));
      return add_stmt(stmt_at(t.is(op_of("break"))
                                  ? ast_stmt::kind::break_stmt
                                  : ast_stmt::kind::continue_stmt,
                              t));
    }
    if (looks_like_type()) return parse_declaration();
    // Expression statement.
    ast_stmt s = stmt_at(ast_stmt::kind::expr, t);
    s.e1 = parse_expression();
    if (s.e1 == no_node) {
      sync_to_statement_end();
      return no_node;
    }
    expect(op_of(";"));
    return add_stmt(s);
  }

  node_id parse_declaration() {
    const token& t = peek();
    const auto type = parse_type();
    if (!type) {
      sync_to_statement_end();
      return no_node;
    }
    const token& name = peek();
    if (!name.is(token_kind::identifier)) {
      error("expected variable name in declaration");
      sync_to_statement_end();
      return no_node;
    }
    advance();
    ast_stmt s = stmt_at(ast_stmt::kind::decl, t);
    s.decl_type = *type;
    s.sym = intern(name);
    if (accept(op_of("="))) {
      s.e1 = parse_expression();
      if (s.e1 == no_node) {
        sync_to_statement_end();
        return no_node;
      }
    }
    expect(op_of(";"));
    return add_stmt(s);
  }

  node_id parse_block() {
    const token& t = peek();
    expect(op_of("{"));
    child_list body{*this};
    while (!peek().is(op_of("}")) &&
           !peek().is(token_kind::end_of_file)) {
      const std::size_t before = pos_;
      if (const node_id inner = parse_statement(); inner != no_node)
        body.add(inner);
      if (pos_ == before) advance();
    }
    expect(op_of("}"));
    ast_stmt s = stmt_at(ast_stmt::kind::block, t);
    s.first = attach(body.ids());
    s.count = static_cast<std::uint32_t>(body.ids().size());
    return add_stmt(s);
  }

  /// `if (e1) s1 [else s2]` or `while (e1) s1`.
  node_id parse_if_or_while() {
    const token& t = advance();
    const bool is_if = t.is(op_of("if"));
    ast_stmt s = stmt_at(
        is_if ? ast_stmt::kind::if_stmt : ast_stmt::kind::while_stmt, t);
    expect(op_of("("));
    s.e1 = parse_expression();
    expect(op_of(")"));
    s.s1 = parse_statement();
    if (is_if && accept(op_of("else"))) s.s2 = parse_statement();
    return add_stmt(s);
  }

  node_id parse_for() {
    const token& t = advance();  // 'for'
    ast_stmt s = stmt_at(ast_stmt::kind::for_stmt, t);
    expect(op_of("("));
    if (!accept(op_of(";"))) {
      if (looks_like_type()) {
        s.s1 = parse_declaration();  // consumes ';'
      } else {
        ast_stmt init = stmt_at(ast_stmt::kind::expr, peek());
        init.e1 = parse_expression();
        expect(op_of(";"));
        s.s1 = add_stmt(init);
      }
    }
    if (!peek().is(op_of(";"))) s.e1 = parse_expression();
    expect(op_of(";"));
    if (!peek().is(op_of(")"))) s.e2 = parse_expression();
    expect(op_of(")"));
    s.s2 = parse_statement();
    return add_stmt(s);
  }

  // --- functions ----------------------------------------------------------------
  std::optional<ast_function> parse_function() {
    const auto ret = parse_type();
    if (!ret) {
      sync_to_statement_end();
      return std::nullopt;
    }
    const token& name = peek();
    if (!name.is(token_kind::identifier)) {
      error("expected function name");
      sync_to_statement_end();
      return std::nullopt;
    }
    advance();
    ast_function fn{.return_type = *ret,
                    .sym = intern(name),
                    .first_param =
                        static_cast<std::uint32_t>(prog_.params.size()),
                    .line = name.line};
    expect(op_of("("));
    if (!peek().is(op_of(")"))) {
      do {
        accept(op_of("const"));
        const auto type = parse_type();
        if (!type) return std::nullopt;
        const bool by_ref = accept(op_of("&"));
        const token& pname = peek();
        if (!pname.is(token_kind::identifier)) {
          error("expected parameter name");
          return std::nullopt;
        }
        advance();
        prog_.params.push_back(
            {.type = *type, .sym = intern(pname), .by_ref = by_ref});
      } while (accept(op_of(",")));
    }
    expect(op_of(")"));
    fn.param_count =
        static_cast<std::uint32_t>(prog_.params.size()) - fn.first_param;
    fn.body = parse_block();
    return fn;
  }

  const std::vector<token>& toks_;
  diagnostics& diags_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool stopped_ = false;  ///< nesting limit hit: input ends here
  std::vector<node_id> pending_;  ///< children of nodes being parsed
  ast_program prog_;
};

}  // namespace

ast_program parse(const std::vector<token>& tokens, diagnostics& diags) {
  parser p(tokens, diags);
  return p.parse_program();
}

}  // namespace cgp::stllint
