#include "stllint/stllint.hpp"

#include <iterator>
#include <utility>

#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"

namespace cgp::stllint {

lint_result lint_source(std::string_view source, const options& opt) {
  lint_result result;
  const std::vector<token> toks = tokenize(source, result.diags);
  const ast_program program = parse(toks, result.diags);
  analyzer a(opt);
  a.run(program, source);
  result.stats = a.statistics();
  diagnostics found = std::move(a).take_diags();
  if (result.diags.empty())
    result.diags = std::move(found);
  else
    result.diags.insert(result.diags.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
  return result;
}

}  // namespace cgp::stllint
