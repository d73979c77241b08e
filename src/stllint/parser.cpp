#include "stllint/parser.hpp"

#include <cassert>

namespace cgp::stllint {

std::string mini_type::to_string() const {
  if (k == kind::user) return user_name;
  if (!is_container() && !is_iterator())  // a scalar: its op_table row
    return std::string(op_table[op_of("void") + static_cast<int>(k)]);
  return container + "<" + (element ? element->to_string() : "?") + ">" +
         (is_iterator() ? "::iterator" : "");
}

std::string mini_type_to_string(const mini_type& t) { return t.to_string(); }

namespace {

class parser {
 public:
  parser(const std::vector<token>& toks, diagnostics& diags)
      : toks_(toks), diags_(diags) {}

  ast_program parse_program() {
    while (!peek().is(token_kind::end_of_file)) {
      const std::size_t before = pos_;
      if (auto fn = parse_function()) prog_.functions.push_back(std::move(*fn));
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
                      msg + " (got '" + std::string(peek().text) + "')", ""});
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

  // --- types ------------------------------------------------------------------
  /// Returns true iff a type starts at position `pos_ + k` (lookahead only).
  bool looks_like_type(std::size_t k = 0) const {
    const token& t = peek(k);
    if (is_scalar_type(t.op) || is_container_kind(t.op)) return true;
    // user-type declaration heuristic: identifier identifier
    return t.is(token_kind::identifier) &&
           peek(k + 1).is(token_kind::identifier);
  }

  std::optional<mini_type> parse_type() {
    const depth_scope scope{*this};
    if (!deepen()) return std::nullopt;
    const token& t = peek();
    if (is_scalar_type(t.op)) {
      advance();
      return mini_type::scalar(
          static_cast<mini_type::kind>(t.op - op_of("void")));
    }
    if (is_container_kind(t.op)) {
      const std::string cont(advance().text);
      expect(op_of("<"));
      auto elem = parse_type();
      if (!elem) return std::nullopt;
      // tolerate `>>` from nested templates by splitting: not needed in
      // MiniCpp (single-level templates only).
      expect(op_of(">"));
      if (accept(op_of("::"))) {
        if (!accept(op_of("iterator"))) {
          error("expected 'iterator' after '::'");
          return std::nullopt;
        }
        return mini_type::make_iterator(cont, std::move(*elem));
      }
      return mini_type::make_container(cont, std::move(*elem));
    }
    if (t.is(token_kind::identifier)) {
      return mini_type::user(std::string(advance().text));
    }
    error("expected a type");
    return std::nullopt;
  }

  // --- expressions --------------------------------------------------------------
  expr_ptr make_expr(ast_expr::kind k, const token& t) {
    auto e = std::make_unique<ast_expr>();
    e->k = k;
    e->text = t.text;
    e->op = t.op;
    e->line = t.line;
    e->column = t.column;
    return e;
  }

  expr_ptr parse_expression() { return parse_assignment(); }

  expr_ptr parse_assignment() {
    const depth_scope scope{*this};
    if (!deepen()) return nullptr;
    expr_ptr lhs = parse_logical_or();
    if (lhs == nullptr) return nullptr;
    for (const op_id op : {op_of("="), op_of("+="), op_of("-=")}) {
      if (peek().is(op)) {
        const token& t = advance();
        expr_ptr rhs = parse_assignment();
        if (rhs == nullptr) return nullptr;
        auto e = make_expr(ast_expr::kind::assign, t);
        e->children.push_back(std::move(lhs));
        e->children.push_back(std::move(rhs));
        return e;
      }
    }
    return lhs;
  }

  expr_ptr parse_binary_level(int level) {
    // levels: 0 ||, 1 &&, 2 ==/!=, 3 </<=/>/>=, 4 +/-, 5 */ /%.
    static const std::vector<std::vector<op_id>> ops = {
        {op_of("||")},
        {op_of("&&")},
        {op_of("=="), op_of("!=")},
        {op_of("<"), op_of("<="), op_of(">"), op_of(">=")},
        {op_of("+"), op_of("-")},
        {op_of("*"), op_of("/"), op_of("%")}};
    if (level >= static_cast<int>(ops.size())) return parse_unary();
    expr_ptr lhs = parse_binary_level(level + 1);
    if (lhs == nullptr) return nullptr;
    // Each operator of a chain deepens its left spine by one level.
    const depth_scope scope{*this};
    for (;;) {
      bool matched = false;
      for (const op_id op : ops[level]) {
        if (peek().is(op)) {
          if (!deepen()) return nullptr;
          const token& t = advance();
          expr_ptr rhs = parse_binary_level(level + 1);
          if (rhs == nullptr) return nullptr;
          auto e = make_expr(ast_expr::kind::binary, t);
          e->children.push_back(std::move(lhs));
          e->children.push_back(std::move(rhs));
          lhs = std::move(e);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  expr_ptr parse_logical_or() { return parse_binary_level(0); }

  expr_ptr parse_unary() {
    const token& t = peek();
    for (const op_id op :
         {op_of("++"), op_of("--"), op_of("!"), op_of("-"), op_of("*")}) {
      if (t.is(op)) {
        advance();
        const depth_scope scope{*this};
        if (!deepen()) return nullptr;
        expr_ptr operand = parse_unary();
        if (operand == nullptr) return nullptr;
        auto e = make_expr(ast_expr::kind::unary, t);
        e->children.push_back(std::move(operand));
        return e;
      }
    }
    return parse_postfix();
  }

  expr_ptr parse_postfix() {
    expr_ptr e = parse_primary();
    if (e == nullptr) return nullptr;
    // Like binary chains, each postfix operator deepens the tree.
    const depth_scope scope{*this};
    for (;;) {
      const token& t = peek();
      if (t.is(op_of("++")) || t.is(op_of("--"))) {
        if (!deepen()) return nullptr;
        advance();
        auto p = make_expr(ast_expr::kind::postfix, t);
        p->children.push_back(std::move(e));
        e = std::move(p);
        continue;
      }
      if (t.is(op_of("."))) {
        if (!deepen()) return nullptr;
        advance();
        const token& name = peek();
        if (!name.is(token_kind::identifier) &&
            !name.is(token_kind::keyword)) {
          error("expected member name after '.'");
          return nullptr;
        }
        advance();
        auto call = make_expr(ast_expr::kind::member_call, name);
        call->sym = intern(name);
        call->children.push_back(std::move(e));
        expect(op_of("("));
        if (!parse_arguments(*call)) return nullptr;
        e = std::move(call);
        continue;
      }
      return e;
    }
  }

  expr_ptr parse_primary() {
    const token& t = peek();
    if (t.is(token_kind::integer)) {
      advance();
      return make_expr(ast_expr::kind::int_lit, t);
    }
    if (t.is(token_kind::floating)) {
      advance();
      return make_expr(ast_expr::kind::double_lit, t);
    }
    if (t.is(token_kind::string_lit)) {
      advance();
      return make_expr(ast_expr::kind::string_lit, t);
    }
    if (t.is(op_of("true")) || t.is(op_of("false"))) {
      advance();
      return make_expr(ast_expr::kind::bool_lit, t);
    }
    if (t.is(op_of("("))) {
      advance();
      expr_ptr inner = parse_expression();
      expect(op_of(")"));
      return inner;
    }
    if (t.is(token_kind::identifier)) {
      advance();
      const bool is_call = accept(op_of("("));  // free function call
      auto e = make_expr(is_call ? ast_expr::kind::call : ast_expr::kind::var,
                         t);
      e->sym = intern(t);
      return is_call && !parse_arguments(*e) ? nullptr : std::move(e);
    }
    error("expected an expression");
    return nullptr;
  }

  /// Parses `arg, ...)` after a call's '(' into `call`'s children.
  bool parse_arguments(ast_expr& call) {
    if (!peek().is(op_of(")"))) {
      do {
        expr_ptr arg = parse_expression();
        if (arg == nullptr) return false;
        call.children.push_back(std::move(arg));
      } while (accept(op_of(",")));
    }
    expect(op_of(")"));
    return true;
  }

  // --- statements ------------------------------------------------------------
  stmt_ptr make_stmt(ast_stmt::kind k, int line, int col) {
    auto s = std::make_unique<ast_stmt>();
    s->k = k;
    s->line = line;
    s->column = col;
    return s;
  }

  stmt_ptr parse_statement() {
    const depth_scope scope{*this};
    if (!deepen()) return nullptr;
    const token& t = peek();
    if (t.is(op_of("{"))) return parse_block();
    if (t.is(op_of("if")) || t.is(op_of("while"))) return parse_if_or_while();
    if (t.is(op_of("for"))) return parse_for();
    if (t.is(op_of("return"))) {
      advance();
      auto s = make_stmt(ast_stmt::kind::return_stmt, t.line, t.column);
      if (!peek().is(op_of(";"))) s->e1 = parse_expression();
      expect(op_of(";"));
      return s;
    }
    if (t.is(op_of("break")) || t.is(op_of("continue"))) {
      advance();
      expect(op_of(";"));
      return make_stmt(t.is(op_of("break")) ? ast_stmt::kind::break_stmt
                                            : ast_stmt::kind::continue_stmt,
                       t.line, t.column);
    }
    if (looks_like_type()) return parse_declaration();
    // Expression statement.
    auto s = make_stmt(ast_stmt::kind::expr, t.line, t.column);
    s->e1 = parse_expression();
    if (s->e1 == nullptr) {
      sync_to_statement_end();
      return nullptr;
    }
    expect(op_of(";"));
    return s;
  }

  stmt_ptr parse_declaration() {
    const token& t = peek();
    auto type = parse_type();
    if (!type) {
      sync_to_statement_end();
      return nullptr;
    }
    const token& name = peek();
    if (!name.is(token_kind::identifier)) {
      error("expected variable name in declaration");
      sync_to_statement_end();
      return nullptr;
    }
    advance();
    auto s = make_stmt(ast_stmt::kind::decl, t.line, t.column);
    s->decl_type = std::move(*type);
    s->name = name.text;
    s->sym = intern(name);
    if (accept(op_of("="))) {
      s->e1 = parse_expression();
      if (s->e1 == nullptr) {
        sync_to_statement_end();
        return nullptr;
      }
    }
    expect(op_of(";"));
    return s;
  }

  stmt_ptr parse_block() {
    const token& t = peek();
    expect(op_of("{"));
    auto s = make_stmt(ast_stmt::kind::block, t.line, t.column);
    while (!peek().is(op_of("}")) &&
           !peek().is(token_kind::end_of_file)) {
      const std::size_t before = pos_;
      if (stmt_ptr inner = parse_statement())
        s->body.push_back(std::move(inner));
      if (pos_ == before) advance();
    }
    expect(op_of("}"));
    return s;
  }

  /// `if (e1) s1 [else s2]` or `while (e1) s1`.
  stmt_ptr parse_if_or_while() {
    const token& t = advance();
    const bool is_if = t.is(op_of("if"));
    auto s = make_stmt(is_if ? ast_stmt::kind::if_stmt
                             : ast_stmt::kind::while_stmt,
                       t.line, t.column);
    expect(op_of("("));
    s->e1 = parse_expression();
    expect(op_of(")"));
    s->s1 = parse_statement();
    if (is_if && accept(op_of("else"))) s->s2 = parse_statement();
    return s;
  }

  stmt_ptr parse_for() {
    const token& t = advance();  // 'for'
    auto s = make_stmt(ast_stmt::kind::for_stmt, t.line, t.column);
    expect(op_of("("));
    if (!accept(op_of(";"))) {
      if (looks_like_type()) {
        s->s1 = parse_declaration();  // consumes ';'
      } else {
        auto init = make_stmt(ast_stmt::kind::expr, peek().line,
                              peek().column);
        init->e1 = parse_expression();
        expect(op_of(";"));
        s->s1 = std::move(init);
      }
    }
    if (!peek().is(op_of(";"))) s->e1 = parse_expression();
    expect(op_of(";"));
    if (!peek().is(op_of(")"))) s->e2 = parse_expression();
    expect(op_of(")"));
    s->s2 = parse_statement();
    return s;
  }

  // --- functions ----------------------------------------------------------------
  std::optional<ast_function> parse_function() {
    auto ret = parse_type();
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
    ast_function fn;
    fn.return_type = std::move(*ret);
    fn.name = name.text;
    fn.sym = intern(name);
    fn.line = name.line;
    expect(op_of("("));
    if (!peek().is(op_of(")"))) {
      do {
        accept(op_of("const"));
        auto pt = parse_type();
        if (!pt) return std::nullopt;
        ast_param p;
        p.type = std::move(*pt);
        p.by_ref = accept(op_of("&"));
        const token& pname = peek();
        if (!pname.is(token_kind::identifier)) {
          error("expected parameter name");
          return std::nullopt;
        }
        advance();
        p.name = pname.text;
        p.sym = intern(pname);
        fn.params.push_back(std::move(p));
      } while (accept(op_of(",")));
    }
    expect(op_of(")"));
    fn.body = parse_block();
    return fn;
  }

  const std::vector<token>& toks_;
  diagnostics& diags_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool stopped_ = false;  ///< nesting limit hit: input ends here
  ast_program prog_;
};

}  // namespace

ast_program parse(const std::vector<token>& tokens, diagnostics& diags) {
  parser p(tokens, diags);
  return p.parse_program();
}

}  // namespace cgp::stllint
