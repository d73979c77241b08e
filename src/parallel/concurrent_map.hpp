// Insert-only striped concurrent hash map (mold-style): a fixed array of
// bucket shards, each guarded by its own mutex, with chained buckets that
// double per shard and nodes that never move.  The contract that buys the
// performance:
//
//   - try_emplace/find are thread-safe and contend only within one shard
//     (stripe count is a compile-time power of two, default 64);
//   - a shard doubles its bucket array, under its own lock, once its node
//     count passes its bucket count, so chains stay O(1) long on average
//     however far the map grows past its size estimate;
//   - there is NO erase: once inserted, a node's address — and therefore
//     every returned pointer — stays valid for the map's lifetime (nodes
//     live in per-shard deques);
//   - losers of a racing try_emplace get the winner's entry and `false`.
//
// There is no traversal: its two users, the simplifier's instantiation
// cache (parallel batch rewriting) and the STLlint service's summary
// cache, only look up and insert.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <tuple>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace cgp::parallel {

template <class Key, class T, class Hash = std::hash<Key>,
          std::size_t Stripes = 64>
class concurrent_map {
  static_assert((Stripes & (Stripes - 1)) == 0,
                "stripe count must be a power of two");

  struct node {
    std::pair<const Key, T> kv;
    node* next = nullptr;  ///< bucket chain
    template <class K, class... Args>
    explicit node(K&& k, Args&&... args)
        : kv(std::piecewise_construct,
             std::forward_as_tuple(std::forward<K>(k)),
             std::forward_as_tuple(std::forward<Args>(args)...)) {}
  };

  struct shard {
    mutable std::mutex m;
    std::vector<node*> buckets;
    std::deque<node> nodes;  ///< stable addresses
  };

 public:
  using value_type = std::pair<const Key, T>;

  /// `expected_size` sizes the initial bucket arrays (mold sizes these
  /// from a HyperLogLog estimate; callers here usually know the batch
  /// size).  A shard that outgrows the estimate doubles its buckets.
  explicit concurrent_map(std::size_t expected_size = 1024) {
    std::size_t per_shard = expected_size / Stripes + 1;
    std::size_t cap = 8;
    while (cap < per_shard * 2) cap <<= 1;
    for (shard& s : shards_) s.buckets.assign(cap, nullptr);
  }

  concurrent_map(const concurrent_map&) = delete;
  concurrent_map& operator=(const concurrent_map&) = delete;

  /// Inserts key -> T(args...) if absent.  Returns {entry, true} for the
  /// winner, {existing entry, false} for everyone else.  The entry's
  /// address is stable for the map's lifetime (insert-only contract).
  template <class K, class... Args>
  std::pair<value_type*, bool> try_emplace(K&& key, Args&&... args) {
    const std::size_t h = Hash{}(key);
    shard& s = shards_[h & (Stripes - 1)];
    const std::lock_guard lock(s.m);
    const std::size_t b = (h / Stripes) & (s.buckets.size() - 1);
    for (node* n = s.buckets[b]; n != nullptr; n = n->next)
      if (n->kv.first == key) return {&n->kv, false};
    node* n = &s.nodes.emplace_back(std::forward<K>(key),
                                    std::forward<Args>(args)...);
    n->next = s.buckets[b];
    s.buckets[b] = n;
    if (s.nodes.size() > s.buckets.size()) grow(s);
    return {&n->kv, true};
  }

  /// Pointer to the mapped value, or nullptr.  The pointer is stable for
  /// the map's lifetime.
  [[nodiscard]] T* find(const Key& key) {
    const std::size_t h = Hash{}(key);
    shard& s = shards_[h & (Stripes - 1)];
    const std::lock_guard lock(s.m);
    const std::size_t b = (h / Stripes) & (s.buckets.size() - 1);
    for (node* n = s.buckets[b]; n != nullptr; n = n->next)
      if (n->kv.first == key) return &n->kv.second;
    return nullptr;
  }
  [[nodiscard]] const T* find(const Key& key) const {
    return const_cast<concurrent_map*>(this)->find(key);
  }

  /// Entry count (exact when quiescent; a racing insert may or may not be
  /// counted).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const shard& s : shards_) {
      const std::lock_guard lock(s.m);
      total += s.nodes.size();
    }
    return total;
  }

  /// NOT thread-safe: drops every entry (callers must be quiescent).
  /// Insert-only refers to the concurrent phase; single-threaded
  /// invalidation (a simplifier gaining a rule) may reset wholesale.
  void clear() {
    for (shard& s : shards_) {
      const std::lock_guard lock(s.m);
      for (node*& b : s.buckets) b = nullptr;
      s.nodes.clear();
    }
  }

 private:
  /// Doubles `s`'s buckets and re-threads its chains from the node deque
  /// (caller holds `s.m`).  Nodes stay where they are, so every pointer
  /// handed out stays valid.
  static void grow(shard& s) {
    s.buckets.assign(s.buckets.size() * 2, nullptr);
    for (node& n : s.nodes) {
      node*& head =
          s.buckets[(Hash{}(n.kv.first) / Stripes) & (s.buckets.size() - 1)];
      n.next = head;
      head = &n;
    }
  }

  std::array<shard, Stripes> shards_{};
};

}  // namespace cgp::parallel
