// Interned symbols: identifiers mapped to dense integer ids, so a front end
// compares and keys by integers instead of strings.
//
// A table belongs to what it interns for (STLlint: one per parsed program)
// and is never process-global, so concurrent workers take no lock and a
// long-lived service does not accumulate every name it has ever seen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cgp::core {

/// Dense id of an interned identifier; `no_symbol` marks its absence.
using symbol = std::uint32_t;
inline constexpr symbol no_symbol = ~symbol{0};

class symbol_table {
 public:
  /// The id of `s`, interning it on first sight.
  symbol intern(std::string_view s) {
    if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
    const auto id = static_cast<symbol>(names_.size());
    ids_.emplace(names_.emplace_back(s), id);
    return id;
  }
  [[nodiscard]] std::string_view name(symbol id) const { return names_[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

 private:
  struct hash : std::hash<std::string_view> {
    using is_transparent = void;
  };
  std::unordered_map<std::string, symbol, hash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
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
