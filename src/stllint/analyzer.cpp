#include "stllint/analyzer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

#include "telemetry/scope.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cgp::stllint {
namespace {

using validity = iterator_state::validity;
using position = iterator_state::position;
using value_kind = abstract_value::kind;

constexpr const char* kSeverityKey[] = {"error", "warning", "advice", "note"};

/// Most analyses of one loop body per function entry that nested loops may
/// multiply up to: a loop nested deeper gets one pass, so hostile nesting
/// costs linear time, not max_loop_passes to the power of the depth.
constexpr long kMaxBodyRuns = 1024;

// Telemetry handles, each resolved once: the registry lookup takes a global
// mutex and builds a string.  Per-severity counters are resolved on first
// use, so a severity never reported never appears in the registry.
template <severity S>
telemetry::counter& diagnostics_counter() {
  static telemetry::counter& c = telemetry::registry::global().get_counter(
      std::string("stllint.analyzer.diagnostics.") +
      kSeverityKey[static_cast<std::size_t>(S)]);
  return c;
}
telemetry::counter& (*const kDiagnosticsCounter[])() = {
    diagnostics_counter<severity::error>,
    diagnostics_counter<severity::warning>,
    diagnostics_counter<severity::advice>, diagnostics_counter<severity::note>};

telemetry::counter& analyzer_counter(const char* name) {
  return telemetry::registry::global().get_counter(
      std::string("stllint.analyzer.") + name);
}

/// Member functions the executor models, which double as the causes of a
/// singular iterator: a mutating member function, or one of the two
/// entries before them.
enum member : std::uint8_t {
  m_none, m_uninitialized, m_assignment,
  m_push_back, m_pop_back, m_clear, m_insert, m_erase, m_reserve, m_resize,
  m_begin, m_end, m_size, m_empty, m_front, m_back, m_sort, m_swap, m_find,
  m_unmodeled,
};
constexpr std::string_view kMembers[] = {
    "", "uninitialized", "container assignment",
    "push_back", "pop_back", "clear", "insert", "erase", "reserve", "resize",
    "begin", "end", "size", "empty", "front", "back", "sort", "swap", "find"};

/// `x OP y` is `y mirrored(OP) x`; `!(x OP y)` is `x negated(OP) y`.
constexpr op_id mirrored(op_id o) {
  if (o == op_of("<") || o == op_of(">")) return op_of("<") + op_of(">") - o;
  if (o == op_of("<=") || o == op_of(">="))
    return op_of("<=") + op_of(">=") - o;
  return o;
}
constexpr op_id negated(op_id o) {
  if (o == op_of("==") || o == op_of("!="))
    return op_of("==") + op_of("!=") - o;
  if (o == op_of("<") || o == op_of(">=")) return op_of("<") + op_of(">=") - o;
  if (o == op_of(">") || o == op_of("<=")) return op_of(">") + op_of("<=") - o;
  return o;
}
constexpr bool is_comparison(op_id o) {
  return o == op_of("==") || o == op_of("!=") || o == op_of("<") ||
         o == op_of("<=") || o == op_of(">") || o == op_of(">=");
}

/// Most steps a provenance trail keeps: with at most three names a step,
/// a trail's names fit its 16-bit name ids.
constexpr int kMaxTrail = 16384;

/// The text `write(out)` spells, where each `out(part)` appends a part,
/// built with one allocation of exactly its size: a reported message is
/// kept in every cached result (`reserve` would round 16-29 characters up
/// to 30).
template <class Write>
std::string build(Write write) {
  std::size_t n = 0;
  write([&](std::string_view p) { n += p.size(); });
  std::string out(n, '\0');
  char* at = out.data();
  write([&](std::string_view p) { at = std::copy(p.begin(), p.end(), at); });
  return out;
}

/// Why an iterator is singular: its cause and, for a mutation, the
/// container mutated, spelled part by part.
template <class Out>
void spell_reason(std::uint8_t cause, std::string_view container, Out out) {
  if (cause < m_push_back) return out(kMembers[cause]);
  out("invalidated by ");
  out(container);
  out(".");
  out(kMembers[cause]);
  out("()");
}

/// The op_table row of a container kind (0 for the conservative spec).
std::uint8_t kind_row(const container_spec& spec) {
  for (op_id o = op_of("vector"); o <= op_of("input_stream"); ++o)
    if (op_table[o] == spec.kind) return o;
  return 0;
}

using message_args = std::array<std::int64_t, 5>;

/// A message template and its code: a hash of its text, computed at
/// compile time.  In the text, `$` and a letter spell the next argument: n
/// a name (a rank), i an integer, s a C string with static storage, and r
/// " (why)" for a singular iterator's cause and container (two arguments;
/// nothing for no cause).
struct msg {
  consteval msg(const char* t) : text(t) {
    std::size_t args = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      code = (code ^ static_cast<unsigned char>(text[i])) * 1099511628211ull;
      if (text[i] != '$') continue;
      if (i + 1 == text.size() ||
          std::string_view("nisr").find(text[i + 1]) == text.npos)
        throw "a `$` must be followed by n, i, s or r";
      args += text[i + 1] == 'r' ? 2 : 1;
    }
    if (args > std::tuple_size_v<message_args>) throw "too many arguments";
  }
  std::string_view text;
  std::uint64_t code = 14695981039346656037ull;
};

/// Short human description of an interval for provenance trails.
std::string describe(const interval& iv) {
  if (iv.lo <= interval::neg_inf && iv.hi >= interval::pos_inf)
    return "unknown";
  if (iv.is_exact()) return std::to_string(iv.lo);
  std::string lo = iv.lo <= interval::neg_inf ? "-inf" : std::to_string(iv.lo);
  std::string hi = iv.hi >= interval::pos_inf ? "+inf" : std::to_string(iv.hi);
  return "[" + lo + ", " + hi + "]";
}

// ===========================================================================
// Rendering: a diagnostic's trail becomes text only when it is read
// ===========================================================================

/// The text of a diagnostic's provenance steps; splits its names once.
class trail {
 public:
  explicit trail(const diagnostic& d) {
    const std::string_view all = d.names;
    for (std::size_t at = 0, end; at < all.size(); at = end + 1) {
      end = all.find('\0', at);
      names_.push_back(all.substr(at, end - at));
    }
  }

  /// The step's action, and the state after it ("" when it shows none).
  std::pair<std::string, std::string> text(const provenance_step& s) const {
    const std::string_view who = name(s.subject);
    switch (s.what) {
      using enum provenance_step::action;
      case enter:
        return {cat({"enter function '", who, "'"}), ""};
      case singular:
        return {cat({"iterator '", who, "' becomes singular"}), reason(s.it)};
      case mutate:
        return {cat({who, ".", kMembers[s.member],
                     s.member == m_pop_back || s.member == m_clear ? "()"
                                                                   : "(...)"}),
                cat({"'", who, "': ", describe(s.c)})};
      case decl_container:
        return {cat({"declare container '", who, "'"}),
                cat({"'", who, "': ", describe(s.c)})};
      case decl_iterator:
        return {cat({"declare iterator '", who, "'"}),
                cat({"'", who, "': ", describe(s.it)})};
      case decl_int:
        return {cat({"declare '", who, "'"}),
                cat({"'", who, "' = ", stllint::describe(s.num)})};
      case loop_pass:
        return {"loop analysis pass " + std::to_string(s.num.lo), ""};
    }
    return {};
  }

  /// "line N: <action>  [<state after>]"; the state only when it has one.
  std::string line(const provenance_step& s) const {
    const auto [action, after] = text(s);
    std::string out = "line " + std::to_string(s.line) + ": " + action;
    if (!after.empty()) out += "  [" + after + "]";
    return out;
  }

 private:
  std::string_view name(name_id i) const {  // no_name is past the end
    return i < names_.size() ? names_[i] : std::string_view();
  }
  std::string reason(const iterator_view& it) const {
    return build(
        [&](auto out) { spell_reason(it.cause, name(it.mutated), out); });
  }
  /// " (reason)", or "" when there is none.
  std::string because(const iterator_view& it) const {
    return it.cause == 0 ? "" : " (" + reason(it) + ")";
  }

  std::string describe(const iterator_view& it) const {
    if (validity{it.valid} == validity::singular)
      return "singular" + because(it);
    if (validity{it.valid} == validity::maybe_singular)
      return "maybe-singular" + because(it);
    std::string out = "valid";
    if (position{it.pos} == position::from_begin)
      out += " at begin+" + std::to_string(it.offset);
    else if (position{it.pos} == position::from_end)
      out += it.offset == 0 ? " at end"
                            : " at end-" + std::to_string(it.offset);
    else if (position{it.pos} == position::somewhere)
      out += " somewhere";
    if (it.container != no_name) out += cat({" in '", name(it.container), "'"});
    if (it.algorithm != 0)
      out += ", unverified result of '" +
             all_algorithms()[it.algorithm - 1].name + "'";
    return out;
  }

  static std::string describe(const container_view& c) {
    std::string out = spec_for(op_table[c.kind]).kind + ", size " +
                      stllint::describe(interval{c.lo, c.hi});
    out += c.sorted == sorted3::yes  ? ", sorted"
           : c.sorted == sorted3::no ? ", unsorted"
                                     : "";
    if (c.consumed) out += ", traversal consumed";
    return out;
  }
  std::vector<std::string_view> names_;
};

iterator_state join_iterators(const iterator_state& a,
                              const iterator_state& b) {
  if (a == b) return a;
  iterator_state out;
  out.valid = a.valid == b.valid ? a.valid : validity::maybe_singular;
  out.reason = a.reason.empty() ? b.reason : a.reason;
  out.unverified_from =
      a.unverified_from == nullptr ? b.unverified_from : a.unverified_from;
  if (a.container == b.container) {
    out.container = a.container;
    if (a.pos == b.pos && a.offset == b.offset) {
      out.pos = a.pos;
      out.offset = a.offset;
    } else {
      out.pos = position::somewhere;
    }
  } else {
    out.container = no_rank;
    out.pos = position::somewhere;
  }
  if (out.valid == validity::singular) out.pos = position::none;
  return out;
}

abstract_value join_values(const abstract_value& a, const abstract_value& b) {
  if (a == b) return a;
  if (a.k != b.k) return abstract_value::unknown_value();
  switch (a.k) {
    case value_kind::integer:
      return abstract_value::integer(a.num.join(b.num));
    case value_kind::boolean:
      return abstract_value::boolean(a.truth == b.truth ? a.truth
                                                        : std::nullopt);
    case value_kind::iterator:
      return abstract_value::iterator(join_iterators(a.iter, b.iter));
    default:
      return abstract_value::unknown_value();
  }
}

container_state join_containers(container_state a, const container_state& b) {
  a.size = a.size.join(b.size);
  a.sorted = join(a.sorted, b.sorted);
  a.consumed = a.consumed || b.consumed;
  return a;
}

/// Linear merge of two rank-sorted maps; keys in both are joined.
template <class V, class Join>
void merge(const core::symbol_map<V>& a, const core::symbol_map<V>& b,
           core::symbol_map<V>& out, Join join_one) {
  out.clear();
  auto i = a.begin();
  for (const auto& [k, v] : b) {
    for (; i != a.end() && i->first < k; ++i)
      out.push_back(i->first, i->second);
    const bool both = i != a.end() && i->first == k;
    out.push_back(k, both ? join_one((i++)->second, v) : v);
  }
  for (; i != a.end(); ++i) out.push_back(i->first, i->second);
}

}  // namespace

std::string cat(std::initializer_list<std::string_view> parts) {
  return build([&](auto out) {
    for (const std::string_view p : parts) out(p);
  });
}

std::string diagnostic::action_text(const provenance_step& s) const {
  return trail(*this).text(s).first;
}

std::string diagnostic::step_text(const provenance_step& s) const {
  return trail(*this).line(s);
}

std::string render_caret(const diagnostic& d) {
  std::string out = std::string(to_string(d.sev)) + ": " + d.message + "\n";
  out += "  --> line " + std::to_string(d.line) + ", column " +
         std::to_string(d.column) + "\n";
  if (!d.source_line.empty()) {
    out += "   |  " + d.source_line + "\n";
    if (d.caret_column >= 1 &&
        static_cast<std::size_t>(d.caret_column) <= d.source_line.size())
      out += "   |  " +
             std::string(static_cast<std::size_t>(d.caret_column - 1), ' ') +
             "^\n";
  }
  if (!d.provenance.empty()) {
    out += "  provenance:\n";
    const trail t(d);
    std::size_t n = 0;
    for (const provenance_step& step : d.provenance)
      out += "   " + std::to_string(++n) + ". " + t.line(step) + "\n";
  }
  return out;
}

void join(const abstract_state& a, const abstract_state& b,
          abstract_state& out) {
  if (!a.reachable || !b.reachable) {
    out = a.reachable ? a : b;
    return;
  }
  out.reachable = true;
  merge(a.containers, b.containers, out.containers, join_containers);
  merge(a.values, b.values, out.values, join_values);
}

// ===========================================================================
// The executor
// ===========================================================================

class exec_impl {
 public:
  exec_impl(analyzer& a, const ast_program& p) : a_(a), p_(p) {
    // Rank the program's symbols in name order, once: states keyed by rank
    // iterate exactly as name-keyed maps would.  Member functions and
    // algorithms are classified here too, not at every call.
    const std::size_t n = p.symbols.size();
    ranked_.reserve(n);
    for (core::symbol s = 0; s < n; ++s)
      ranked_.push_back({p.symbols.name(s), s});
    std::ranges::sort(ranked_, {}, &symbol_info::name);
    rank_of_.resize(n);
    for (rank r = 0; r < n; ++r) {
      symbol_info& info = ranked_[r];
      rank_of_[info.sym] = r;
      info.algorithm = algorithm_for(info.name);
      info.member = m_unmodeled;
      for (std::uint8_t m = m_push_back; m < m_unmodeled; ++m)
        if (kMembers[m] == info.name) info.member = m;
    }
    ring_cap_ = static_cast<std::size_t>(
        std::clamp(a_.opt_.max_provenance_steps, 0, kMaxTrail));
    ring_.reserve(std::min<std::size_t>(ring_cap_, 64));  // larger caps grow
    named_.reserve(std::min(n, 3 * ring_cap_));
    pool_.reserve(16);
  }

  void run_function(const ast_function& fn) {
    ++a_.stats_.functions;
    ring_next_ = ring_size_ = 0;
    note({.w = what::enter, .line = fn.line, .subject = rank_of(fn.sym)});
    scratch st(*this, {});
    for (const ast_param& p : p_.params_of(fn)) bind_param(p, *st);
    if (fn.body != no_node) exec(p_.stmts[fn.body], *st);
  }

 private:
  struct symbol_info {
    std::string_view name;
    core::symbol sym = core::no_symbol;
    std::uint8_t member = m_unmodeled;
    name_id local = no_name;  ///< its id in the trail being copied out
    const algorithm_spec* algorithm = nullptr;
  };

  rank rank_of(core::symbol s) const { return rank_of_[s]; }
  std::string_view name(rank r) const {
    return r == no_rank ? std::string_view() : ranked_[r].name;
  }
  rank var_rank(const ast_expr& e) const {
    return e.k == ast_expr::kind::var ? rank_of(e.sym) : no_rank;
  }
  /// Child `i` of `e`.
  const ast_expr& kid(const ast_expr& e, std::size_t i) const {
    return p_.exprs[p_.kids[e.first + i]];
  }
  const ast_expr* expr_at(node_id id) const {
    return id == no_node ? nullptr : &p_.exprs[id];
  }
  const ast_stmt* stmt_at(node_id id) const {
    return id == no_node ? nullptr : &p_.stmts[id];
  }

  /// A pooled abstract state: branch and loop scratch states recycle their
  /// buffers instead of allocating on every branch and pass, and a new one
  /// starts with room enough that copies into it rarely grow it.
  class scratch {
   public:
    explicit scratch(exec_impl& x, const abstract_state& init = {}) : x_(x) {
      if (!x.pool_.empty()) {
        s_ = std::move(x.pool_.back());
        x.pool_.pop_back();
      } else {  // a new state, with room for a typical function's names
        const std::size_t room = std::min<std::size_t>(x.ranked_.size(), 16);
        s_.containers.reserve(room);
        s_.values.reserve(room);
      }
      s_ = init;
    }
    ~scratch() { x_.pool_.push_back(std::move(s_)); }
    scratch(const scratch&) = delete;
    abstract_state& operator*() { return s_; }
    abstract_state* operator->() { return &s_; }

   private:
    exec_impl& x_;
    abstract_state s_;
  };

  // --- provenance trail -----------------------------------------------------
  /// One symbolic-execution step as recorded: ranks and whole states in a
  /// fixed ring, compacted into a provenance_step only when a diagnostic
  /// copies the ring.
  using what = provenance_step::action;
  struct step {
    what w = what::enter;
    int line = 0;
    rank subject = no_rank;  ///< the function, variable or container named
    std::uint8_t member = m_none;  ///< mutate: the member function
    container_state c;   ///< mutate, decl_container: the state after
    iterator_state it;   ///< singular: its reason; decl_iterator
    interval num;        ///< decl_int; loop_pass: the pass number
  };

  /// Appends a step to the bounded trail, dropping the oldest when full.
  /// The trail is a linear log of the analyzer's most recent steps (branch
  /// copies of the abstract state share it), so a diagnostic's provenance
  /// reads as "the path the analyzer walked to get here".
  void note(const step& s) {
    if (ring_cap_ == 0) return;
    if (ring_next_ == ring_.size()) ring_.push_back(s);  // still filling
    else ring_[ring_next_] = s;
    ring_next_ = (ring_next_ + 1) % ring_cap_;
    ring_size_ = std::min(ring_size_ + 1, ring_cap_);
  }

  /// Copies the ring into `d` as its provenance.  The names its steps show
  /// go into `d.names`, numbered in order of first mention.
  void attach_provenance(diagnostic& d) {
    std::size_t bytes = 0;
    const auto id = [&](rank r) {
      if (r == no_rank) return no_name;
      symbol_info& info = ranked_[r];
      if (info.local == no_name) {
        info.local = static_cast<name_id>(named_.size());
        named_.push_back(r);
        bytes += info.name.size() + 1;
      }
      return info.local;
    };
    d.provenance.reserve(ring_size_);
    for (std::size_t i = ring_cap_ - ring_size_; i < ring_cap_; ++i) {
      const step& s = ring_[(ring_next_ + i) % ring_cap_];
      provenance_step& p = d.provenance.emplace_back();
      p.line = s.line;
      p.what = s.w;
      p.member = s.member;
      p.subject = id(s.subject);
      if (s.w == what::singular || s.w == what::decl_iterator) {
        const bool valid = s.it.valid == validity::valid;
        p.it = {.offset = s.it.offset,
                .container = valid ? id(s.it.container) : no_name,
                .mutated = !valid && s.it.reason.cause >= m_push_back
                               ? id(s.it.reason.container)
                               : no_name,
                .valid = static_cast<std::uint8_t>(s.it.valid),
                .pos = static_cast<std::uint8_t>(s.it.pos),
                .cause = s.it.reason.cause,
                .algorithm = static_cast<std::uint8_t>(
                    s.it.unverified_from == nullptr
                        ? 0
                        : s.it.unverified_from - all_algorithms().data() + 1)};
      } else if (s.w == what::mutate || s.w == what::decl_container) {
        p.c = {s.c.size.lo, s.c.size.hi, kind_row(*s.c.kind), s.c.sorted,
               s.c.consumed};
      } else {
        p.num = s.num;
      }
    }
    d.names = std::string(bytes, '\0');  // one allocation, exactly sized
    char* at = d.names.data();
    for (const rank r : named_) {
      at = std::ranges::copy(ranked_[r].name, at).out + 1;
      ranked_[r].local = no_name;
    }
    named_.clear();
  }

  // --- reporting ------------------------------------------------------------
  /// A singular iterator's reason as message arguments (for `$r`).
  static message_args why(const singular_reason& r) {
    return {r.cause, r.container};
  }
  /// A static string as a message argument (for `$s`).
  static std::int64_t str(const std::string& s) { return str(s.c_str()); }
  static std::int64_t str(const char* s) {
    return reinterpret_cast<std::intptr_t>(s);
  }

  /// Message `m`'s text with `args` spelled in.
  std::string spell(const msg& m, const message_args& args) const {
    return build([&](auto out) {
      std::string_view t = m.text;
      const std::int64_t* arg = args.data();
      for (std::size_t i; (i = t.find('$')) != t.npos; t.remove_prefix(i + 2)) {
        out(t.substr(0, i));
        const std::int64_t v = *arg++;
        char digits[24];
        switch (t[i + 1]) {
          case 'n':
            out(name(static_cast<rank>(v)));
            break;
          case 'i':
            out({digits, std::to_chars(digits, std::end(digits), v).ptr});
            break;
          case 's':
            out(reinterpret_cast<const char*>(v));
            break;
          case 'r':
            if (v != 0) {
              out(" (");
              spell_reason(static_cast<std::uint8_t>(v),
                           name(static_cast<rank>(*arg)), out);
              out(")");
            }
            ++arg;
            break;
        }
      }
      out(t);
    });
  }

  /// Reports message `m` with `args` at (line, col), once: a repeat is
  /// found on the integer key before any text is built.
  void report(severity sev, int line, int col, const msg& m,
              const message_args& args = {}) {
    std::array<std::int64_t, 8> key = {line, col,
                                       static_cast<std::int64_t>(m.code)};
    std::ranges::copy(args, key.begin() + 3);
    const auto at = std::ranges::lower_bound(a_.reported_, key);
    if (at != a_.reported_.end() && *at == key) return;
    a_.reported_.insert(at, key);
    std::string_view echo = a_.source_.line(line);
    int caret_col = 0;
    if (const std::size_t first = echo.find_first_not_of(" \t");
        first != echo.npos) {
      echo.remove_prefix(first);
      caret_col = col - static_cast<int>(first);
      if (caret_col < 1) caret_col = 0;
    }
    kDiagnosticsCounter[static_cast<std::size_t>(sev)]().add();
    diagnostic d{sev,       line, col, spell(m, args), std::string(echo),
                 caret_col, {}};
    attach_provenance(d);
    // Traced sessions also see the verdict (with its provenance) as an
    // instant event hanging off the analyzer's span.
    if (telemetry::trace::current_context().active()) {
      const trail t(d);
      std::string path;
      for (const provenance_step& p : d.provenance) {
        if (!path.empty()) path += " ; ";
        path += t.line(p);
      }
      telemetry::trace::instant(
          "stllint.diagnostic", "stllint",
          {{"severity", kSeverityKey[static_cast<std::size_t>(sev)]},
           {"line", std::to_string(line)},
           {"column", std::to_string(col)},
           {"message", d.message},
           {"provenance", std::move(path)}});
    }
    a_.diags_.push_back(std::move(d));
  }

  // --- state helpers ----------------------------------------------------------
  static container_state* container_of(abstract_state& st, rank name) {
    return st.containers.find(name);
  }
  /// The iterator state of variable `var`, if it holds one.
  static iterator_state* iterator_var(abstract_state& st, rank var) {
    abstract_value* v = st.values.find(var);
    return v != nullptr && v->k == value_kind::iterator ? &v->iter : nullptr;
  }

  void bind_param(const ast_param& p, abstract_state& st) {
    const rank r = rank_of(p.sym);
    const mini_type& t = p_.types[p.type];
    if (t.is_container()) {
      const container_spec& spec = spec_for(op_table[t.container]);
      st.containers[r] = {
          .kind = &spec,
          .size = interval{0, interval::pos_inf},
          .sorted = spec.keeps_sorted ? sorted3::yes : sorted3::unknown};
    } else if (t.is_iterator()) {
      st.values[r] = abstract_value::iterator(
          iterator_state::at(position::somewhere, no_rank));
    } else if (t.k == mini_type::kind::int_t) {
      st.values[r] = abstract_value::integer(interval::unknown());
    } else if (t.k == mini_type::kind::bool_t) {
      st.values[r] = abstract_value::boolean(std::nullopt);
    } else {
      st.values[r] = abstract_value::unknown_value();
    }
  }

  /// Makes each iterator into `cont` that `hit` selects singular, noting
  /// each one in name order.
  template <class Hit>
  void invalidate(abstract_state& st, rank cont, singular_reason why, int line,
                  Hit hit) {
    for (auto& [var, v] : st.values) {
      if (v.k != value_kind::iterator || v.iter.container != cont ||
          !hit(var, v.iter))
        continue;
      v.iter.valid = validity::singular;
      v.iter.pos = position::none;
      v.iter.reason = why;
      note({.w = what::singular, .line = line, .subject = var, .it = v.iter});
    }
  }
  void invalidate_all(abstract_state& st, rank cont, singular_reason why,
                      int line) {
    invalidate(st, cont, why, line, [](rank, const iterator_state& it) {
      return it.valid != validity::singular;
    });
  }

  /// Applies a spec's invalidation rule for mutation `cause` of `cont`;
  /// `arg`/`arg_var` are the iterator argument and its variable, if any.
  void apply_invalidation(abstract_state& st, rank cont, invalidation rule,
                          std::uint8_t cause, int line,
                          const iterator_state& arg = {},
                          rank arg_var = no_rank) {
    const singular_reason why{cause, cont};
    if (rule == invalidation::all) invalidate_all(st, cont, why, line);
    if (rule != invalidation::argument) return;
    invalidate(st, cont, why, line, [&](rank var, const iterator_state& it) {
      const bool same_known_pos = arg.pos != position::somewhere &&
                                  arg.pos != position::none &&
                                  it.pos == arg.pos && it.offset == arg.offset;
      return (arg_var != no_rank && var == arg_var) || same_known_pos;
    });
  }

  /// After reporting a singular-iterator misuse rooted at variable `var`,
  /// heal the variable so one root cause yields one report.
  static void heal(abstract_state& st, rank var) {
    if (iterator_state* s = iterator_var(st, var)) {
      s->valid = validity::valid;
      s->pos = position::somewhere;
      s->reason = {};
    }
  }

  // --- iterator use checks -------------------------------------------------
  void check_deref(abstract_state& st, const iterator_state& it, rank var,
                   int line, int col) {
    if (it.valid == validity::valid && it.unverified_from != nullptr) {
      report(severity::warning, line, col,
             "dereferencing the result of '$s' without comparing it against "
             "end() first — it may be the not-found sentinel",
             {str(it.unverified_from->name)});
      if (iterator_state* s = iterator_var(st, var))
        s->unverified_from = nullptr;
      return;
    }
    if (it.valid != validity::valid) {
      report(severity::warning, line, col,
             "attempt to dereference a singular iterator$r", why(it.reason));
      heal(st, var);
      return;
    }
    if (it.pos == position::from_end && it.offset == 0) {
      report(severity::warning, line, col,
             "attempt to dereference a past-the-end iterator");
      return;
    }
    if (const container_state* c = container_of(st, it.container);
        it.pos == position::from_begin && c != nullptr &&
        it.offset >= c->size.hi)
      report(severity::warning, line, col,
             "attempt to dereference a past-the-end iterator (position "
             "begin+$i, size at most $i)",
             {it.offset, c->size.hi});
  }

  void check_advance(abstract_state& st, const iterator_state& it, rank var,
                     bool forward, int line, int col) {
    if (it.valid != validity::valid) {
      report(severity::warning, line, col,
             forward ? msg("attempt to advance a singular iterator$r")
                     : msg("attempt to decrement a singular iterator$r"),
             why(it.reason));
      heal(st, var);
      return;
    }
    if (!forward && it.pos == position::from_begin && it.offset == 0) {
      report(severity::warning, line, col,
             "attempt to decrement an iterator already at the beginning");
    }
    if (forward && it.pos == position::from_end && it.offset == 0) {
      report(severity::warning, line, col,
             "attempt to advance a past-the-end iterator");
    }
  }

  /// Checks the iterator argument `pos` (variable `var`) of a member call
  /// `e` on `cont`; `singular` is the misuse message for a singular one.
  /// Returns whether `pos` is a valid iterator.
  bool check_position(abstract_state& st, const abstract_value& pos, rank var,
                      rank cont, const ast_expr& e, msg singular) {
    if (pos.k != value_kind::iterator) return false;
    if (pos.iter.container != no_rank && pos.iter.container != cont)
      report(severity::warning, e.line, e.column,
             "iterator into '$n' passed to '$n'.$n",
             {pos.iter.container, cont, rank_of(e.sym)});
    if (pos.iter.valid == validity::valid) return true;
    report(severity::warning, e.line, e.column, singular, why(pos.iter.reason));
    heal(st, var);
    return false;
  }

  // --- expression evaluation -------------------------------------------------
  abstract_value eval(const ast_expr& e, abstract_state& st) {
    ++a_.stats_.expressions;
    switch (e.k) {
      case ast_expr::kind::int_lit:
        return abstract_value::integer(interval::exact(e.value));
      case ast_expr::kind::double_lit:
      case ast_expr::kind::string_lit:
        return abstract_value::unknown_value();
      case ast_expr::kind::bool_lit:
        return abstract_value::boolean(e.op == op_of("true"));
      case ast_expr::kind::var:
        return eval_var(e, st);
      case ast_expr::kind::unary:
        return eval_unary(e, st);
      case ast_expr::kind::postfix:
        return eval_incdec(e, kid(e, 0), e.op == op_of("++"), st);
      case ast_expr::kind::binary:
        return eval_binary(e, st);
      case ast_expr::kind::assign:
        return eval_assign(e, st);
      case ast_expr::kind::member_call:
        return eval_member_call(e, st);
      case ast_expr::kind::call:
        return eval_call(e, st);
    }
    return abstract_value::unknown_value();
  }

  abstract_value eval_var(const ast_expr& e, abstract_state& st) {
    const rank r = rank_of(e.sym);
    if (const abstract_value* v = st.values.find(r)) return *v;
    if (st.containers.find(r) != nullptr)
      return {.k = value_kind::container_ref, .container = r};
    report(severity::error, e.line, e.column, "use of undeclared variable '$n'",
           {r});
    return abstract_value::unknown_value();
  }

  abstract_value eval_unary(const ast_expr& e, abstract_state& st) {
    const ast_expr& operand = kid(e, 0);
    if (e.op == op_of("*")) {
      const abstract_value v = eval(operand, st);
      if (v.k == value_kind::iterator)
        check_deref(st, v.iter, var_rank(operand), e.line, e.column);
      return abstract_value::unknown_value();
    }
    if (e.op == op_of("++") || e.op == op_of("--"))
      return eval_incdec(e, operand, e.op == op_of("++"), st);
    const abstract_value v = eval(operand, st);
    if (e.op == op_of("!")) {
      if (v.k == value_kind::boolean && v.truth.has_value())
        return abstract_value::boolean(!*v.truth);
      return abstract_value::boolean(std::nullopt);
    }
    if (e.op == op_of("-") && v.k == value_kind::integer) {
      return abstract_value::integer(
          {v.num.hi >= interval::pos_inf ? interval::neg_inf : -v.num.hi,
           v.num.lo <= interval::neg_inf ? interval::pos_inf : -v.num.lo});
    }
    return abstract_value::unknown_value();
  }

  abstract_value eval_incdec(const ast_expr& site, const ast_expr& operand,
                             bool forward, abstract_state& st) {
    const abstract_value before = eval(operand, st);
    const rank var = var_rank(operand);
    if (before.k == value_kind::iterator) {
      check_advance(st, before.iter, var, forward, site.line, site.column);
      iterator_state next = before.iter;
      if (next.valid == validity::valid) {
        if (next.pos == position::from_begin)
          next.offset += forward ? 1 : -1;
        else if (next.pos == position::from_end)
          next.offset += forward ? -1 : 1;
        // somewhere stays somewhere
      }
      if (abstract_value* v = st.values.find(var);
          v != nullptr && v->k == value_kind::iterator &&
          v->iter.valid == validity::valid)
        *v = abstract_value::iterator(next);
      return abstract_value::iterator(next);
    }
    if (before.k == value_kind::integer) {
      const abstract_value after =
          abstract_value::integer(before.num.plus(forward ? 1 : -1));
      if (abstract_value* v = st.values.find(var)) *v = after;
      return after;
    }
    return abstract_value::unknown_value();
  }

  abstract_value eval_binary(const ast_expr& e, abstract_state& st) {
    const abstract_value a = eval(kid(e, 0), st);
    const abstract_value b = eval(kid(e, 1), st);
    const op_id op = e.op;
    const bool eq_op = op == op_of("==") || op == op_of("!=");

    // Iterator comparison: flag cross-container comparisons.
    if (a.k == value_kind::iterator && b.k == value_kind::iterator) {
      // Any comparison verifies a search result (the `it != end()` idiom).
      for (const node_id child : p_.children(e))
        if (iterator_state* s = iterator_var(st, var_rank(p_.exprs[child])))
          s->unverified_from = nullptr;
      if (a.iter.container != no_rank && b.iter.container != no_rank &&
          a.iter.container != b.iter.container) {
        report(severity::warning, e.line, e.column,
               "comparison of iterators from different containers ('$n' and "
               "'$n')",
               {a.iter.container, b.iter.container});
        return abstract_value::boolean(std::nullopt);
      }
      if (eq_op && a.iter.valid == validity::valid &&
          b.iter.valid == validity::valid &&
          a.iter.container == b.iter.container) {
        // Known positions let us decide the comparison.
        if (a.iter.pos == b.iter.pos && a.iter.pos != position::somewhere &&
            a.iter.pos != position::none) {
          const bool eq = a.iter.offset == b.iter.offset;
          return abstract_value::boolean(op == op_of("==") ? eq : !eq);
        }
        if (container_state* c = container_of(st, a.iter.container)) {
          // begin+k vs end-j with exact size: decidable.
          const bool ab = a.iter.pos == position::from_begin &&
                          b.iter.pos == position::from_end;
          const bool ba = b.iter.pos == position::from_begin &&
                          a.iter.pos == position::from_end;
          const iterator_state& fb = ab ? a.iter : b.iter;
          const iterator_state& fe = ab ? b.iter : a.iter;
          if ((ab || ba) && c->size.is_exact()) {
            const bool eq = fb.offset == c->size.lo - fe.offset;
            return abstract_value::boolean(op == op_of("==") ? eq : !eq);
          }
          // begin+k vs end: if k < minimum size, definitely not equal.
          if ((ab || ba) && fe.offset == 0 && fb.offset < c->size.lo)
            return abstract_value::boolean(op != op_of("=="));
        }
      }
      return abstract_value::boolean(std::nullopt);
    }

    // Integer arithmetic and comparisons over intervals.
    if (a.k == value_kind::integer && b.k == value_kind::integer) {
      const interval& x = a.num;
      const interval& y = b.num;
      const auto sat_add = [](long p, long q) {
        if (p <= interval::neg_inf || q <= interval::neg_inf)
          return interval::neg_inf;
        if (p >= interval::pos_inf || q >= interval::pos_inf)
          return interval::pos_inf;
        return p + q;
      };
      // Decides `x OP y` when the intervals allow: `yes` holds if the
      // comparison is certainly true, `no` if certainly false.
      const auto decide = [](bool yes, bool no) {
        return abstract_value::boolean(yes  ? std::optional<bool>(true)
                                       : no ? std::optional<bool>(false)
                                            : std::nullopt);
      };
      if (op == op_of("+"))
        return abstract_value::integer({sat_add(x.lo, y.lo),
                                        sat_add(x.hi, y.hi)});
      if (op == op_of("-"))
        return abstract_value::integer({sat_add(x.lo, -y.hi),
                                        sat_add(x.hi, -y.lo)});
      if (op == op_of("*") && x.is_exact() && y.is_exact())
        return abstract_value::integer(interval::exact(x.lo * y.lo));
      const bool exact = x.is_exact() && y.is_exact();
      const bool apart = x.hi < y.lo || y.hi < x.lo;
      if (op == op_of("<")) return decide(x.hi < y.lo, x.lo >= y.hi);
      if (op == op_of("<=")) return decide(x.hi <= y.lo, x.lo > y.hi);
      if (op == op_of(">")) return decide(x.lo > y.hi, x.hi <= y.lo);
      if (op == op_of(">=")) return decide(x.lo >= y.hi, x.hi < y.lo);
      if (op == op_of("=="))
        return exact ? abstract_value::boolean(x.lo == y.lo)
                     : decide(false, apart);
      if (op == op_of("!="))
        return exact ? abstract_value::boolean(x.lo != y.lo)
                     : decide(apart, false);
      return abstract_value::integer(interval::unknown());
    }

    if (op == op_of("&&") || op == op_of("||")) {
      const bool is_and = op == op_of("&&");
      // The absorbing value decides alone; the other needs both operands.
      const std::optional<bool> absorb = !is_and;
      if (a.truth == absorb || b.truth == absorb)
        return abstract_value::boolean(absorb);
      if (a.truth == std::optional<bool>(is_and) && b.truth == a.truth)
        return abstract_value::boolean(is_and);
      return abstract_value::boolean(std::nullopt);
    }
    if (is_comparison(op)) return abstract_value::boolean(std::nullopt);
    return abstract_value::unknown_value();
  }

  abstract_value eval_assign(const ast_expr& e, abstract_state& st) {
    const ast_expr& target = kid(e, 0);
    abstract_value rhs = eval(kid(e, 1), st);

    if (target.k == ast_expr::kind::unary && target.op == op_of("*")) {
      // *it = value: a dereference-write; run the read checks.
      const abstract_value it = eval(kid(target, 0), st);
      if (it.k == value_kind::iterator) {
        check_deref(st, it.iter, var_rank(kid(target, 0)), target.line,
                    target.column);
        // Writing through an iterator can break sortedness.
        if (container_state* c = container_of(st, it.iter.container))
          if (c->sorted == sorted3::yes) c->sorted = sorted3::unknown;
      }
      return rhs;
    }

    if (target.k != ast_expr::kind::var) {
      report(severity::error, target.line, target.column,
             "unsupported assignment target");
      return rhs;
    }
    const rank name = rank_of(target.sym);
    if (container_state* dst = container_of(st, name)) {
      if (rhs.k == value_kind::container_ref) {
        if (container_state* src = container_of(st, rhs.container)) {
          *dst = *src;
          invalidate_all(st, name, {m_assignment}, target.line);
        }
      }
      return rhs;
    }
    abstract_value* cur = st.values.find(name);
    if (e.op == op_of("+=") || e.op == op_of("-=")) {
      if (cur != nullptr && cur->k == value_kind::integer &&
          rhs.k == value_kind::integer && rhs.num.is_exact()) {
        const long d = e.op == op_of("+=") ? rhs.num.lo : -rhs.num.lo;
        return *cur = abstract_value::integer(cur->num.plus(d));
      }
      return st.values[name] = abstract_value::unknown_value();
    }
    // Keep iterator-ness when assigning an unknown value to an iterator var.
    if (cur != nullptr && cur->k == value_kind::iterator &&
        rhs.k == value_kind::unknown)
      return *cur = abstract_value::iterator(
                 iterator_state::at(position::somewhere, no_rank));
    st.values[name] = rhs;
    return rhs;
  }

  abstract_value eval_member_call(const ast_expr& e, abstract_state& st) {
    const ast_expr& object = kid(e, 0);
    const rank name = var_rank(object);
    container_state* cp = container_of(st, name);
    if (cp == nullptr) {
      // Unknown receiver: evaluate everything for its side diagnostics.
      for (const node_id c : p_.children(e)) (void)eval(p_.exprs[c], st);
      return abstract_value::unknown_value();
    }
    // Expression evaluation never adds containers, so `c` stays valid.
    container_state& c = *cp;
    const container_spec& spec = *c.kind;

    const auto eval_arg = [&](std::size_t i) { return eval(kid(e, i), st); };
    // One more element: an unsorted container stops being sorted.
    const auto grow = [&] {
      const bool was_empty = c.size.hi == 0;
      c.size = c.size.plus(1).clamp_lo(1);
      if (!spec.keeps_sorted) c.sorted = was_empty ? sorted3::yes : sorted3::no;
    };
    // The state after a mutation, as a provenance step.
    const auto note_mutation = [&](std::uint8_t m) {
      note({.w = what::mutate, .line = e.line, .subject = name, .member = m,
            .c = c});
    };

    const std::uint8_t member = ranked_[rank_of(e.sym)].member;
    switch (member) {
      case m_begin:
      case m_end:
        if (spec.single_pass && member == m_begin) {
          if (c.consumed) {
            report(severity::warning, e.line, e.column,
                   "second traversal of single-pass sequence '$n' (its "
                   "iterators model only InputIterator; a second pass requires "
                   "ForwardIterator)",
                   {name});
          }
          c.consumed = true;
        }
        return abstract_value::iterator(iterator_state::at(
            member == m_begin ? position::from_begin : position::from_end,
            name));
      case m_size:
        return abstract_value::integer(c.size.clamp_lo(0));
      case m_empty:
        if (c.size.hi == 0) return abstract_value::boolean(true);
        if (c.size.lo >= 1) return abstract_value::boolean(false);
        return abstract_value::boolean(std::nullopt);
      case m_push_back: {
        if (e.count > 1) (void)eval_arg(1);
        if (!spec.has_push_back)
          report(severity::error, e.line, e.column, "'$s' has no push_back",
                 {str(spec.kind)});
        apply_invalidation(st, name, spec.on_push_back, m_push_back, e.line);
        grow();
        note_mutation(m_push_back);
        return abstract_value::unknown_value();
      }
      case m_pop_back:
        if (c.size.hi == 0)
          report(severity::warning, e.line, e.column,
                 "pop_back on an empty container '$n'", {name});
        c.size = c.size.plus(-1).clamp_lo(0);
        // Iterators at/near the end die; be precise only about known ones.
        invalidate(st, name, {m_pop_back, name}, e.line,
                   [](rank, const iterator_state& it) {
                     return it.pos == position::from_end &&
                            it.valid == validity::valid;
                   });
        note_mutation(m_pop_back);
        return abstract_value::unknown_value();
      case m_clear:
        apply_invalidation(st, name, spec.on_clear, m_clear, e.line);
        c.size = interval::exact(0);
        c.sorted = sorted3::yes;
        note_mutation(m_clear);
        return abstract_value::unknown_value();
      case m_insert: {
        // set.insert(x) or sequence.insert(it, x).
        if (e.count >= 3) {
          const abstract_value pos = eval_arg(1);
          (void)eval_arg(2);
          const rank pos_var = var_rank(kid(e, 1));
          check_position(st, pos, pos_var, name, e,
                         "insert position is a singular iterator$r");
          apply_invalidation(st, name, spec.on_insert, m_insert, e.line,
                             pos.iter, pos_var);
        } else if (e.count == 2) {
          (void)eval_arg(1);
          apply_invalidation(st, name, spec.on_insert, m_insert, e.line);
        }
        grow();
        note_mutation(m_insert);
        return abstract_value::iterator(
            iterator_state::at(position::somewhere, name));
      }
      case m_erase: {
        abstract_value pos;
        rank arg_var = no_rank;
        if (e.count >= 2) {
          pos = eval_arg(1);
          arg_var = var_rank(kid(e, 1));
        }
        if (check_position(st, pos, arg_var, name, e,
                           "attempt to erase through a singular iterator$r") &&
            pos.iter.pos == position::from_end && pos.iter.offset == 0)
          report(severity::warning, e.line, e.column,
                 "attempt to erase the past-the-end iterator");
        if (c.size.hi == 0)
          report(severity::warning, e.line, e.column,
                 "erase from an empty container '$n'", {name});
        iterator_state result = pos.k == value_kind::iterator &&
                                        pos.iter.valid == validity::valid
                                    ? pos.iter
                                    : iterator_state::at(position::somewhere,
                                                         name);
        result.container = name;
        result.valid = validity::valid;
        apply_invalidation(st, name, spec.on_erase, m_erase, e.line, pos.iter,
                           arg_var);
        c.size = c.size.plus(-1).clamp_lo(0);
        note_mutation(m_erase);
        return abstract_value::iterator(result);
      }
      case m_front:
      case m_back:
        if (c.size.hi == 0)
          report(severity::warning, e.line, e.column,
                 "$n() on an empty container '$n'", {rank_of(e.sym), name});
        return abstract_value::unknown_value();
      case m_sort:  // list::sort
        c.sorted = sorted3::yes;
        return abstract_value::unknown_value();
      case m_reserve:
        // May reallocate: vector iterators die; size unchanged.
        if (e.count > 1) (void)eval_arg(1);
        if (spec.kind == "vector")
          invalidate_all(st, name, {m_reserve, name}, e.line);
        return abstract_value::unknown_value();
      case m_resize: {
        abstract_value arg;
        if (e.count > 1) arg = eval_arg(1);
        apply_invalidation(st, name, spec.on_push_back, m_resize, e.line);
        c.size = arg.k == value_kind::integer
                     ? arg.num.clamp_lo(0)
                     : interval{0, interval::pos_inf};
        if (!spec.keeps_sorted) c.sorted = sorted3::unknown;
        return abstract_value::unknown_value();
      }
      case m_swap:
        // Swap container states; iterators keep following their elements,
        // so they now belong to the *other* variable and stay valid.
        if (e.count > 1) {
          const rank other = var_rank(kid(e, 1));
          if (container_state* oc = container_of(st, other)) {
            std::swap(c, *oc);
            for (auto& [vn, v] : st.values) {
              if (v.k != value_kind::iterator) continue;
              if (v.iter.container == name)
                v.iter.container = other;
              else if (v.iter.container == other)
                v.iter.container = name;
            }
          }
        }
        return abstract_value::unknown_value();
      case m_find:  // set::find
        for (std::size_t i = 1; i < e.count; ++i) (void)eval_arg(i);
        return abstract_value::iterator(
            iterator_state::at(position::somewhere, name));
      default:
        report(severity::note, e.line, e.column,
               "unmodeled member function '$n' on '$n'; assuming no effect",
               {rank_of(e.sym), name});
        for (std::size_t i = 1; i < e.count; ++i) (void)eval_arg(i);
        return abstract_value::unknown_value();
    }
  }

  abstract_value eval_call(const ast_expr& e, abstract_state& st) {
    const algorithm_spec* spec = ranked_[rank_of(e.sym)].algorithm;
    if (spec == nullptr) {
      // Opaque user function: assumed pure; arguments still checked.
      for (const node_id c : p_.children(e)) (void)eval(p_.exprs[c], st);
      return abstract_value::unknown_value();
    }
    abstract_value first_arg, last_arg;
    for (std::size_t i = 0; i < e.count; ++i) {
      const abstract_value v = eval(kid(e, i), st);
      if (i == 0) first_arg = v;
      if (i == 1) last_arg = v;
    }
    if (e.count < spec->range_args) {
      report(severity::error, e.line, e.column,
             "'$s' expects an iterator range", {str(spec->name)});
      return abstract_value::unknown_value();
    }

    rank cont = no_rank;
    if (first_arg.k == value_kind::iterator &&
        last_arg.k == value_kind::iterator) {
      const iterator_state& first = first_arg.iter;
      const iterator_state& last = last_arg.iter;
      if (first.container != no_rank && last.container != no_rank &&
          first.container != last.container) {
        report(severity::warning, e.line, e.column,
               "iterator range [first, last) spans different containers ('$n' "
               "and '$n')",
               {first.container, last.container});
      }
      if (first.valid != validity::valid || last.valid != validity::valid) {
        report(severity::warning, e.line, e.column,
               "singular iterator used as a range boundary in '$s'",
               {str(spec->name)});
        heal(st, var_rank(kid(e, 0)));
        heal(st, var_rank(kid(e, 1)));
      }
      cont = first.container == no_rank ? last.container : first.container;
    }

    if (container_state* c = container_of(st, cont)) {
      const container_spec& cspec = *c->kind;
      // Iterator-concept requirement: checked against the concept
      // registry's refinement lattice (the core library at work).
      if (!spec->requires_iterator.empty() &&
          !a_.registry_->refines(cspec.iterator_concept,
                                 spec->requires_iterator)) {
        const bool multipass = spec->requires_iterator == "ForwardIterator" &&
                               cspec.iterator_concept == "InputIterator";
        report(severity::warning, e.line, e.column,
               "'$s' requires a model of $s, but $s::iterator models only $s$s",
               {str(spec->name), str(spec->requires_iterator), str(cspec.kind),
                str(cspec.iterator_concept),
                str(multipass ? " — the algorithm needs the multipass guarantee"
                              : "")});
      }
      // Entry handler: sortedness precondition.
      if (spec->requires_sorted && c->sorted == sorted3::no) {
        report(severity::warning, e.line, e.column,
               "'$s' requires the range [first, last) to be sorted, but it is "
               "not",
               {str(spec->name)});
      }
      // The Section 3.2 advisory, verbatim.
      if (a_.opt_.advisories && spec->linear_search &&
          c->sorted == sorted3::yes)
        report(severity::advice, e.line, e.column,
               "the incoming sequence [first, last) is sorted, but will be "
               "searched linearly with this algorithm. Consider replacing this "
               "algorithm with one specialized for sorted sequences (e.g., "
               "lower_bound)");
      // Exit handler: sortedness postcondition.
      if (spec->establishes_sorted) c->sorted = sorted3::yes;
    }

    switch (spec->returns) {
      case algorithm_spec::result::iterator_into_range: {
        iterator_state result = iterator_state::at(position::somewhere, cont);
        // Search results may be the end() sentinel until compared.
        if (spec->may_return_end) result.unverified_from = spec;
        return abstract_value::iterator(result);
      }
      case algorithm_spec::result::boolean:
        return abstract_value::boolean(std::nullopt);
      case algorithm_spec::result::value:
        return abstract_value::integer(interval::unknown());
      case algorithm_spec::result::none:
        return abstract_value::unknown_value();
    }
    return abstract_value::unknown_value();
  }

  // --- branch refinement ----------------------------------------------------
  void refine(abstract_state& st, const ast_expr& cond, bool branch) {
    if (cond.k == ast_expr::kind::unary && cond.op == op_of("!")) {
      refine(st, kid(cond, 0), !branch);
      return;
    }
    const op_id op = cond.op;
    if (cond.k == ast_expr::kind::binary &&
        (op == op_of("&&") || op == op_of("||"))) {
      if ((op == op_of("&&")) == branch) {
        refine(st, kid(cond, 0), branch);
        refine(st, kid(cond, 1), branch);
      }
      return;
    }
    if (cond.k == ast_expr::kind::member_call &&
        ranked_[rank_of(cond.sym)].member == m_empty) {
      if (container_state* c = container_of(st, var_rank(kid(cond, 0)))) {
        if (branch) {
          c->size = interval::exact(0);
          c->sorted = sorted3::yes;
        } else {
          c->size = interval{std::max(c->size.lo, 1L),
                             std::max(c->size.hi, 1L)};
        }
      }
      return;
    }
    if (cond.k != ast_expr::kind::binary || !is_comparison(op)) return;

    // Iterator vs c.end(): the loop idiom.
    const auto end_call_container = [&](const ast_expr& x) -> rank {
      if (x.k == ast_expr::kind::member_call &&
          ranked_[rank_of(x.sym)].member == m_end) {
        const rank c = var_rank(kid(x, 0));
        if (st.containers.find(c) != nullptr) return c;
      }
      return no_rank;
    };
    if (op == op_of("==") || op == op_of("!=")) {
      const ast_expr* var_side = nullptr;
      rank endc = end_call_container(kid(cond, 1));
      if (endc != no_rank) {
        var_side = &kid(cond, 0);
      } else if ((endc = end_call_container(kid(cond, 0))) != no_rank) {
        var_side = &kid(cond, 1);
      }
      if (var_side != nullptr && var_side->k == ast_expr::kind::var) {
        iterator_state* it = iterator_var(st, rank_of(var_side->sym));
        if (it != nullptr && it->valid == validity::valid &&
            it->container == endc) {
          const bool equals_end = (op == op_of("==")) == branch;
          if (equals_end) {
            it->pos = position::from_end;
            it->offset = 0;
          } else if (it->pos == position::from_end && it->offset == 0) {
            st.reachable = false;  // it != end contradicts it == end
          }
        }
        return;
      }
    }

    // Integer var vs literal refinement.
    const auto as_lit = [](const ast_expr& x) -> std::optional<long> {
      if (x.k != ast_expr::kind::int_lit) return std::nullopt;
      return x.value;
    };
    const bool var_on_left = kid(cond, 0).k == ast_expr::kind::var &&
                             as_lit(kid(cond, 1)).has_value();
    const ast_expr& var_side = kid(cond, var_on_left ? 0 : 1);
    const std::optional<long> lit = as_lit(kid(cond, var_on_left ? 1 : 0));
    if (var_side.k != ast_expr::kind::var || !lit) return;
    abstract_value* v = st.values.find(rank_of(var_side.sym));
    if (v == nullptr || v->k != value_kind::integer) return;
    interval& iv = v->num;
    // Normalize to var OP lit, then to the branch taken.
    op_id nop = var_on_left ? op : mirrored(op);
    if (!branch) nop = negated(nop);
    const long n = *lit;
    if (nop == op_of("<")) iv.hi = std::min(iv.hi, n - 1);
    else if (nop == op_of("<=")) iv.hi = std::min(iv.hi, n);
    else if (nop == op_of(">")) iv.lo = std::max(iv.lo, n + 1);
    else if (nop == op_of(">=")) iv.lo = std::max(iv.lo, n);
    else if (nop == op_of("==")) iv = interval::exact(n);
    if (iv.lo > iv.hi) st.reachable = false;
  }

  // --- statements ------------------------------------------------------------
  void exec(const ast_stmt& s, abstract_state& st) {
    if (!st.reachable) return;
    ++a_.stats_.statements;
    switch (s.k) {
      case ast_stmt::kind::block:
        for (const node_id inner : p_.body(s)) exec(p_.stmts[inner], st);
        return;
      case ast_stmt::kind::decl:
        exec_decl(s, st);
        return;
      case ast_stmt::kind::expr:
        if (s.e1 != no_node) (void)eval(p_.exprs[s.e1], st);
        return;
      case ast_stmt::kind::if_stmt: {
        // A condition that failed to parse is unknown: both arms run.
        const ast_expr* cond_expr = expr_at(s.e1);
        const abstract_value cond = cond_expr != nullptr
                                        ? eval(*cond_expr, st)
                                        : abstract_value::unknown_value();
        scratch then_state(*this, st);
        if (cond_expr != nullptr) refine(*then_state, *cond_expr, true);
        if (cond.truth == std::optional<bool>(false))
          then_state->reachable = false;
        if (s.s1 != no_node) exec(p_.stmts[s.s1], *then_state);
        scratch else_state(*this, st);
        if (cond_expr != nullptr) refine(*else_state, *cond_expr, false);
        if (cond.truth == std::optional<bool>(true))
          else_state->reachable = false;
        if (s.s2 != no_node) exec(p_.stmts[s.s2], *else_state);
        join(*then_state, *else_state, st);
        return;
      }
      case ast_stmt::kind::while_stmt:
        exec_loop(s, expr_at(s.e1), stmt_at(s.s1), nullptr, st);
        return;
      case ast_stmt::kind::for_stmt:
        if (s.s1 != no_node) exec(p_.stmts[s.s1], st);
        exec_loop(s, expr_at(s.e1), stmt_at(s.s2), expr_at(s.e2), st);
        return;
      case ast_stmt::kind::return_stmt:
        if (s.e1 != no_node) (void)eval(p_.exprs[s.e1], st);
        st.reachable = false;
        return;
      case ast_stmt::kind::break_stmt:
        if (loop_breaks_ != nullptr) loop_breaks_->push_back(st);
        st.reachable = false;
        return;
      case ast_stmt::kind::continue_stmt:
        st.reachable = false;  // sound for diagnostics; loop join is bounded
        return;
    }
  }

  void exec_decl(const ast_stmt& s, abstract_state& st) {
    const mini_type& t = p_.types[s.decl_type];
    const rank name = rank_of(s.sym);
    if (t.is_container()) {
      container_state c{.kind = &spec_for(op_table[t.container])};
      if (s.e1 != no_node) {
        const abstract_value init = eval(p_.exprs[s.e1], st);
        if (init.k == value_kind::container_ref) {
          if (container_state* src = container_of(st, init.container))
            c = *src;
          c.kind = &spec_for(op_table[t.container]);
        }
      }
      st.containers[name] = c;
      st.values.erase(name);
      note({.w = what::decl_container, .line = s.line, .subject = name,
            .c = c});
      return;
    }
    abstract_value v;
    if (s.e1 != no_node) {
      v = eval(p_.exprs[s.e1], st);
      if (t.is_iterator() && v.k != value_kind::iterator)
        v = abstract_value::iterator(
            iterator_state::at(position::somewhere, no_rank));
    } else if (t.is_iterator()) {
      v = abstract_value::iterator(
          iterator_state::singular_state({m_uninitialized}));
    } else if (t.k == mini_type::kind::int_t) {
      v = abstract_value::integer(interval::unknown());
    } else if (t.k == mini_type::kind::bool_t) {
      v = abstract_value::boolean(std::nullopt);
    }
    if (v.k == value_kind::iterator)
      note({.w = what::decl_iterator, .line = s.line, .subject = name,
            .it = v.iter});
    else if (v.k == value_kind::integer)
      note({.w = what::decl_int, .line = s.line, .subject = name,
            .num = v.num});
    st.values[name] = v;
    st.containers.erase(name);
  }

  void exec_loop(const ast_stmt& loop, const ast_expr* cond,
                 const ast_stmt* body, const ast_expr* step_expr,
                 abstract_state& st) {
    static telemetry::histogram& passes_histogram =
        telemetry::registry::global().get_histogram(
            "stllint.analyzer.loop_fixpoint_passes");
    scratch cur(*this, st), exit(*this, {.reachable = false}),
        exiting(*this), iter(*this), merged(*this);
    std::vector<abstract_state> breaks;
    std::vector<abstract_state>* saved = loop_breaks_;
    loop_breaks_ = &breaks;

    int passes = a_.opt_.max_loop_passes;
    if (body_runs_ > 1 && body_runs_ * passes > kMaxBodyRuns) {
      passes = 1;
      report(severity::note, loop.line, loop.column,
             "loop nested too deeply to analyze to a fixpoint; analyzed in "
             "one pass");
    }
    const long outer_runs = body_runs_;
    body_runs_ *= passes;
    int passes_used = 0;
    const int loop_line = cond != nullptr ? cond->line : 0;
    for (int pass = 0; pass < passes; ++pass) {
      static const telemetry::scope_site kPass(
          {.frame = "stllint.analyzer.pass"});
      const telemetry::scope pass_scope(kPass);
      ++a_.stats_.loop_passes;
      ++passes_used;
      note({.w = what::loop_pass, .line = loop_line,
            .num = interval::exact(pass + 1)});
      std::optional<bool> truth;
      if (cond != nullptr) truth = eval(*cond, *cur).truth;
      // Path that leaves the loop now.
      *exiting = *cur;
      if (cond != nullptr) refine(*exiting, *cond, false);
      if (truth == std::optional<bool>(true)) exiting->reachable = false;
      join(*exit, *exiting, *merged);
      std::swap(*exit, *merged);
      // Path that runs the body.
      *iter = *cur;
      if (cond != nullptr) refine(*iter, *cond, true);
      if (truth == std::optional<bool>(false)) iter->reachable = false;
      if (!iter->reachable) break;
      if (body != nullptr) exec(*body, *iter);
      if (step_expr != nullptr && iter->reachable)
        (void)eval(*step_expr, *iter);
      join(*cur, *iter, *merged);
      // Fixpoint: the exit state joined above covers all later behavior.
      if (*merged == *cur) break;
      std::swap(*cur, *merged);
    }
    loop_breaks_ = saved;
    body_runs_ = outer_runs;
    passes_histogram.record(static_cast<std::uint64_t>(passes_used));
    for (const abstract_state& b : breaks) {
      join(*exit, b, *merged);
      std::swap(*exit, *merged);
    }
    // No path leaves (e.g. while(true) without breaks): keep the last state.
    std::swap(st, exit->reachable ? *exit : *cur);
  }

  analyzer& a_;
  const ast_program& p_;
  std::vector<symbol_info> ranked_;  ///< by rank
  std::vector<rank> rank_of_;        ///< by symbol
  std::vector<abstract_state> pool_;  ///< recycled scratch states
  std::vector<abstract_state>* loop_breaks_ = nullptr;
  long body_runs_ = 1;  ///< passes of the enclosing loops, multiplied
  /// Ring of the most recent steps; copied into each diagnostic as its
  /// provenance (see diagnostics.hpp).
  std::vector<step> ring_;
  std::size_t ring_cap_ = 0, ring_next_ = 0, ring_size_ = 0;
  std::vector<rank> named_;  ///< ranks named by the trail being copied out
};

void analyzer::run(const ast_program& program, source_view source) {
  static const telemetry::scope_site kRun({.trace = "stllint.analyzer.run",
                                           .cat = "stllint",
                                           .frame = "stllint.analyzer.run"});
  const telemetry::scope run_scope(kRun);
  static telemetry::counter& runs = analyzer_counter("runs");
  static telemetry::counter& functions = analyzer_counter("functions");
  static telemetry::counter& statements = analyzer_counter("statements");
  static telemetry::counter& expressions = analyzer_counter("expressions");
  static telemetry::counter& loop_passes = analyzer_counter("loop_passes");
  static telemetry::gauge& last_run_diagnostics =
      telemetry::registry::global().get_gauge(
          "stllint.analyzer.last_run_diagnostics");
  source_ = std::move(source);
  reported_.clear();  // deduplicate within this program only
  const stats before = stats_;
  const std::size_t diags_before = diags_.size();
  {
    exec_impl impl(*this, program);
    for (const ast_function& fn : program.functions) impl.run_function(fn);
  }
  source_ = {};
  runs.add();
  functions.add(stats_.functions - before.functions);
  statements.add(stats_.statements - before.statements);
  expressions.add(stats_.expressions - before.expressions);
  loop_passes.add(stats_.loop_passes - before.loop_passes);
  // Level metric for the live sampler: diagnostics found by the most
  // recent run (diagnostics accumulate across runs), so a service loop's
  // per-input severity is visible as a series rather than only a
  // cumulative count.
  last_run_diagnostics.set(
      static_cast<std::int64_t>(diags_.size() - diags_before));
}

}  // namespace cgp::stllint
