#include "stllint/stllint.hpp"

#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"

namespace cgp::stllint {

lint_result lint_source(std::string_view source, const options& opt) {
  lint_result result;
  const std::vector<token> toks = tokenize(source, result.diags);
  const ast_program program = parse(toks, result.diags);
  analyzer a(opt);
  a.run(program, source);
  for (const diagnostic& d : a.diags()) result.diags.push_back(d);
  result.stats = a.statistics();
  return result;
}

}  // namespace cgp::stllint
