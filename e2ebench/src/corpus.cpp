#include "corpus.hpp"

#include <algorithm>
#include <tuple>

#include "check/gen.hpp"

namespace e2e {
namespace {

using cgp::check::random_source;
using cgp::stllint::severity;

constexpr const char* kSingular = "attempt to dereference a singular iterator";
constexpr const char* kLinearSearch =
    "the incoming sequence [first, last) is sorted, but will be searched "
    "linearly";
constexpr const char* kSortNeedsRandomAccess =
    "'sort' requires a model of RandomAccessIterator";

// Function templates.  The first five are clean; each of the last four
// plants one defect and names the diagnostic it must raise.
enum class shape {
  iterate_clean,
  erase_reassigned,
  sorted_lower_bound,
  list_member_sort,
  list_push_back,
  vector_push_back,  // invalidation after push_back
  erase_discarded,   // erase without reassignment (Fig. 4)
  sorted_find,       // sorted, then linear find (the lower_bound advisory)
  sort_on_list,      // sort needs random access
};
constexpr int kShapes = 9;

class tu_writer {
 public:
  int line(const std::string& text) {
    src_ += text;
    src_ += '\n';
    return line_++;
  }
  // A line whose literal is an edit slot: records the literal's offsets.
  void slot_line(const std::string& head, const std::string& literal,
                 const std::string& tail, unit& u) {
    const std::size_t at = src_.size() + head.size();
    u.edit_slots.emplace_back(at, literal.size());
    line(head + literal + tail);
  }
  std::string take() { return std::move(src_); }

 private:
  std::string src_;
  int line_ = 1;
};

std::string num(random_source& rs, int lo, int hi) {
  return std::to_string(rs.int_in(lo, hi));
}

void emit_function(tu_writer& b, random_source& rs, std::size_t index, int k,
                   unit& u) {
  const auto kind = static_cast<shape>(rs.below(kShapes));
  const std::string name = "unit" + std::to_string(index) + "_f" +
                           std::to_string(k);
  b.line("int " + name + "(vector<int>& va, list<int>& lb, int n) {");
  b.slot_line("  int total = ", num(rs, 0, 999), ";", u);
  b.line("  for (int i = 0; i < n; ++i) {");
  b.line("    total = total + i * " + num(rs, 1, 97) + ";");
  b.line("  }");
  b.line("  if (total > " + num(rs, 10, 5000) + ") {");
  b.line("    total = total - " + num(rs, 1, 300) + ";");
  b.line("  } else {");
  b.line("    total += " + num(rs, 1, 300) + ";");
  b.line("  }");
  b.line("  vector<int>::iterator it = va.begin();");
  b.line("  while (it != va.end()) {");
  b.line("    total = total + weigh(*it, " + num(rs, 2, 64) + ");");
  b.line("    ++it;");
  b.line("  }");
  b.line("  for (list<int>::iterator li = lb.begin(); li != lb.end(); ++li) {");
  b.line("    total = total + deref(*li);");
  b.line("  }");
  const std::string c = num(rs, 0, 9999);
  switch (kind) {
    case shape::iterate_clean:
      b.line("  vector<int>::iterator p = va.begin();");
      b.line("  while (p != va.end()) {");
      b.line("    total = total - deref(*p);");
      b.line("    ++p;");
      b.line("  }");
      break;
    case shape::erase_reassigned:
      b.line("  vector<int>::iterator q = va.begin();");
      b.line("  while (q != va.end()) {");
      b.line("    if (fails(*q, " + c + ")) {");
      b.line("      q = va.erase(q);");
      b.line("    } else");
      b.line("      ++q;");
      b.line("  }");
      break;
    case shape::sorted_lower_bound:
      b.line("  sort(va.begin(), va.end());");
      b.line("  vector<int>::iterator f = lower_bound(va.begin(), va.end(), " +
             c + ");");
      break;
    case shape::list_member_sort:
      b.line("  lb.sort();");
      b.line("  bool found = binary_search(lb.begin(), lb.end(), " + c + ");");
      break;
    case shape::list_push_back:
      b.line("  list<int>::iterator p = lb.begin();");
      b.line("  lb.push_back(" + c + ");");
      b.line("  total = total + deref(*p);");
      break;
    case shape::vector_push_back: {
      b.line("  vector<int>::iterator p = va.begin();");
      b.line("  va.push_back(" + c + ");");
      const int at = b.line("  total = total + deref(*p);");
      u.expected.push_back({severity::warning, at, kSingular});
      break;
    }
    case shape::erase_discarded: {
      b.line("  vector<int>::iterator q = va.begin();");
      b.line("  while (q != va.end()) {");
      const int at = b.line("    if (fails(*q, " + c + ")) {");
      b.line("      va.erase(q);");
      b.line("    } else");
      b.line("      ++q;");
      b.line("  }");
      u.expected.push_back({severity::warning, at, kSingular});
      break;
    }
    case shape::sorted_find: {
      b.line("  sort(va.begin(), va.end());");
      const int at = b.line(
          "  vector<int>::iterator f = find(va.begin(), va.end(), " + c + ");");
      u.expected.push_back({severity::advice, at, kLinearSearch});
      break;
    }
    case shape::sort_on_list: {
      const int at = b.line("  sort(lb.begin(), lb.end());");
      u.expected.push_back({severity::warning, at, kSortNeedsRandomAccess});
      break;
    }
  }
  b.line("  return total;");
  b.line("}");
  b.line("");
}

}  // namespace

std::vector<unit> make_corpus(std::uint64_t seed, std::size_t count) {
  constexpr int kFunctions = 6;
  std::vector<unit> corpus(count);
  for (std::size_t i = 0; i < count; ++i) {
    random_source rs(cgp::check::case_seed(seed, i));
    unit& u = corpus[i];
    tu_writer b;
    b.line("// generated translation unit " + std::to_string(i));
    for (int k = 0; k < kFunctions; ++k) emit_function(b, rs, i, k, u);
    u.source = b.take();
  }
  return corpus;
}

std::string make_edit(const unit& base, std::size_t slot,
                      std::uint64_t value) {
  const auto [at, len] = base.edit_slots[slot % base.edit_slots.size()];
  std::string out = base.source;
  out.replace(at, len, std::to_string(value));
  return out;
}

bool matches(const cgp::stllint::lint_result& got,
             const std::vector<expected_diag>& expected) {
  std::vector<const cgp::stllint::diagnostic*> real;
  for (const auto& d : got.diags)
    if (d.sev != severity::note) real.push_back(&d);
  if (real.size() != expected.size()) return false;
  std::sort(real.begin(), real.end(), [](const auto* a, const auto* b) {
    return std::tie(a->line, a->sev) < std::tie(b->line, b->sev);
  });
  // `expected` is emitted in line order, one diagnostic per line.
  for (std::size_t i = 0; i < real.size(); ++i) {
    const expected_diag& e = expected[i];
    if (real[i]->sev != e.sev || real[i]->line != e.line ||
        real[i]->message.compare(0, e.prefix.size(), e.prefix) != 0)
      return false;
  }
  return true;
}

}  // namespace e2e
