// Interned symbols: identifiers mapped to dense integer ids, so a front end
// compares and keys by integers instead of strings.
//
// A table belongs to what it interns for (STLlint: one per parsed program),
// so concurrent workers take no lock and a long-lived service does not
// accumulate every name it has ever seen.  The two process-wide tables sit
// behind a mutex: the profiler's frame names (a fixed set of call sites)
// and the rewrite IR's names and types (rewrite/expr.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cgp::core {

/// Dense id of an interned identifier; `no_symbol` marks its absence.
using symbol = std::uint32_t;
inline constexpr symbol no_symbol = ~symbol{0};

/// Names are stored back to back in one string and found through an
/// open-addressing table of ids, so interning allocates only when one of
/// the three buffers doubles.  A name's view lasts until the next intern.
class symbol_table {
 public:
  /// The id of `s`, interning it on first sight.
  symbol intern(std::string_view s) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(s) & mask;;
         i = (i + 1) & mask) {
      if (slots_[i] == no_symbol) {
        text_ += s;
        ends_.push_back(static_cast<std::uint32_t>(text_.size()));
        return slots_[i] = static_cast<symbol>(ends_.size() - 1);
      }
      if (name(slots_[i]) == s) return slots_[i];
    }
  }
  [[nodiscard]] std::string_view name(symbol id) const {
    const std::uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(text_).substr(begin, ends_[id] - begin);
  }
  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }

 private:
  /// Doubles the id table (at least 64 slots) and rehashes into it.
  void grow() {
    std::vector<symbol> slots(std::max<std::size_t>(64, 2 * slots_.size()),
                              no_symbol);
    const std::size_t mask = slots.size() - 1;
    ends_.reserve(slots.size() / 2);
    text_.reserve(8 * slots.size());
    for (symbol id = 0; id < size(); ++id) {
      std::size_t i = std::hash<std::string_view>{}(name(id)) & mask;
      while (slots[i] != no_symbol) i = (i + 1) & mask;
      slots[i] = id;
    }
    slots_ = std::move(slots);
  }

  std::string text_;                ///< every name, back to back
  std::vector<std::uint32_t> ends_;  ///< by id: where its name ends in text_
  std::vector<symbol> slots_;       ///< ids by hash, no_symbol when empty
};

/// A map from symbol-like keys to values, kept as one vector sorted by key:
/// lookups are a binary search, iteration runs in key order, and copying a
/// map into one that has the capacity allocates nothing.
template <class V>
class symbol_map {
 public:
  [[nodiscard]] const V* find(symbol k) const {
    const auto it = lower(k);
    return it != e_.end() && it->first == k ? &it->second : nullptr;
  }
  [[nodiscard]] V* find(symbol k) {
    return const_cast<V*>(std::as_const(*this).find(k));
  }
  V& operator[](symbol k) {
    if (V* v = find(k)) return *v;
    return e_.insert(lower(k), {k, V{}})->second;
  }
  void erase(symbol k) {
    std::erase_if(e_, [k](const auto& e) { return e.first == k; });
  }
  void clear() noexcept { e_.clear(); }
  void reserve(std::size_t n) { e_.reserve(n); }
  /// Appends `k`, which must be greater than every key present.
  void push_back(symbol k, const V& v) { e_.emplace_back(k, v); }
  auto begin() noexcept { return e_.begin(); }
  auto end() noexcept { return e_.end(); }
  auto begin() const noexcept { return e_.begin(); }
  auto end() const noexcept { return e_.end(); }
  friend bool operator==(const symbol_map&, const symbol_map&) = default;

 private:
  auto lower(symbol k) const {
    return std::lower_bound(
        e_.begin(), e_.end(), k,
        [](const auto& e, symbol x) { return e.first < x; });
  }
  std::vector<std::pair<symbol, V>> e_;
};

}  // namespace cgp::core
