// Deterministic open-addressing flat map / set (DESIGN.md §13).
//
// Drop-in replacement for the simulator's hot std::unordered_map /
// std::unordered_set uses. Two properties matter here:
//
//   * Layout: one dense std::vector<std::pair<K,V>> in insertion order plus
//     a power-of-two open-addressing index of 4-byte slots. find() is a
//     linear probe over the index then one dense access — no per-node
//     allocation, no pointer chasing through buckets.
//   * Determinism: iteration walks the dense vector, so the order is the
//     insertion order — a pure function of the event sequence, identical
//     across runs, platforms, and standard libraries. std::unordered_map
//     iteration order depends on bucket counts and hash seeds, which is why
//     masq_lint.py bans iterating it; FlatMap is exempt from that rule and
//     from sort-before-iterate gymnastics at call sites that only need *a*
//     stable order rather than key order.
//
// Erase marks the dense slot dead (tombstone) and compacts — preserving
// the relative order of survivors — once half the slots are dead, so mixed
// insert/erase workloads stay O(1) amortized and iteration stays O(live).
// Key-*ordered* containers (PSN retransmit queues, buddy free-lists) are
// not candidates for this type; they keep std::map with a lint allow-tag.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sim {

namespace flat_detail {

// Final avalanche of splitmix64. std::hash for integers is the identity on
// libstdc++; mixing keeps clustered keys (sequential QPNs, VM ids) from
// clustering in the probe sequence.
inline std::size_t mix_hash(std::size_t h) {
  std::uint64_t x = static_cast<std::uint64_t>(h);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

inline constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
inline constexpr std::uint32_t kTomb = 0xFFFFFFFEu;

}  // namespace flat_detail

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;

  // Iterator over live entries in insertion order.
  template <bool Const>
  class Iter {
   public:
    using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(Owner* m, std::size_t i) : m_(m), i_(i) { skip_dead(); }
    // const_iterator from iterator
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : m_(o.m_), i_(o.i_) {}  // NOLINT

    Ref operator*() const { return m_->entries_[i_]; }
    Ptr operator->() const { return &m_->entries_[i_]; }
    Iter& operator++() {
      ++i_;
      skip_dead();
      return *this;
    }
    Iter operator++(int) {
      Iter t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.i_ != b.i_;
    }

   private:
    friend class FlatMap;
    friend class Iter<true>;
    void skip_dead() {
      while (m_ != nullptr && i_ < m_->entries_.size() && !m_->alive_[i_]) {
        ++i_;
      }
    }
    Owner* m_ = nullptr;
    std::size_t i_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, entries_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, entries_.size()); }

  void clear() {
    entries_.clear();
    alive_.clear();
    index_.clear();
    mask_ = 0;
    size_ = 0;
    dead_ = 0;
  }

  // Makes room for `n` live entries, so that inserting up to that many
  // rebuilds nothing. Compacts dead slots (survivors keep their order);
  // iterators are invalidated as by an insert.
  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while ((cap * 7) / 8 < n) cap *= 2;
    if (cap > index_.size()) rebuild(cap);
    entries_.reserve(n);
    alive_.reserve(n);
  }

  iterator find(const K& k) {
    const std::size_t d = find_dense(k);
    return iterator(this, d == kNpos ? entries_.size() : d);
  }
  const_iterator find(const K& k) const {
    const std::size_t d = find_dense(k);
    return const_iterator(this, d == kNpos ? entries_.size() : d);
  }
  std::size_t count(const K& k) const { return find_dense(k) == kNpos ? 0 : 1; }
  bool contains(const K& k) const { return find_dense(k) != kNpos; }

  V& operator[](const K& k) {
    const std::size_t d = find_dense(k);
    if (d != kNpos) return entries_[d].second;
    return emplace_new(k, V{})->second;
  }

  V& at(const K& k) {
    const std::size_t d = find_dense(k);
    assert(d != kNpos && "FlatMap::at: missing key");
    return entries_[d].second;
  }
  const V& at(const K& k) const {
    const std::size_t d = find_dense(k);
    assert(d != kNpos && "FlatMap::at: missing key");
    return entries_[d].second;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& k, Args&&... args) {
    const std::size_t d = find_dense(k);
    if (d != kNpos) return {iterator(this, d), false};
    return {emplace_new(k, V(std::forward<Args>(args)...)), true};
  }
  std::pair<iterator, bool> insert(value_type kv) {
    const std::size_t d = find_dense(kv.first);
    if (d != kNpos) return {iterator(this, d), false};
    return {emplace_new(std::move(kv.first), std::move(kv.second)), true};
  }
  std::pair<iterator, bool> insert_or_assign(const K& k, V v) {
    const std::size_t d = find_dense(k);
    if (d != kNpos) {
      entries_[d].second = std::move(v);
      return {iterator(this, d), false};
    }
    return {emplace_new(k, std::move(v)), true};
  }

  std::size_t erase(const K& k) {
    const std::size_t slot = find_slot(k);
    if (slot == kNpos) return 0;
    erase_slot(slot, /*allow_compact=*/true);
    return 1;
  }
  // Iterator erase never compacts (that would invalidate positions), so
  // `it = m.erase(it)` loops are safe; deferred compaction happens on the
  // next insert or key-erase.
  iterator erase(iterator it) {
    assert(it.m_ == this && it.i_ < entries_.size() && alive_[it.i_]);
    const std::size_t slot = find_slot(entries_[it.i_].first);
    assert(slot != kNpos);
    erase_slot(slot, /*allow_compact=*/false);
    return iterator(this, it.i_ + 1);
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t hash_of(const K& k) const {
    return flat_detail::mix_hash(Hash{}(k));
  }

  // Dense position of k, or kNpos.
  std::size_t find_dense(const K& k) const {
    if (index_.empty()) return kNpos;
    std::size_t pos = hash_of(k) & mask_;
    while (true) {
      const std::uint32_t d = index_[pos];
      if (d == flat_detail::kEmpty) return kNpos;
      if (d != flat_detail::kTomb && entries_[d].first == k) return d;
      pos = (pos + 1) & mask_;
    }
  }

  // Index-table slot holding k, or kNpos.
  std::size_t find_slot(const K& k) const {
    if (index_.empty()) return kNpos;
    std::size_t pos = hash_of(k) & mask_;
    while (true) {
      const std::uint32_t d = index_[pos];
      if (d == flat_detail::kEmpty) return kNpos;
      if (d != flat_detail::kTomb && entries_[d].first == k) return pos;
      pos = (pos + 1) & mask_;
    }
  }

  iterator emplace_new(K k, V v) {
    if (entries_.size() + 1 > (index_.size() * 7) / 8 || index_.empty()) {
      grow();
    }
    const std::size_t d = entries_.size();
    entries_.emplace_back(std::move(k), std::move(v));
    alive_.push_back(1);
    place(hash_of(entries_.back().first), static_cast<std::uint32_t>(d));
    ++size_;
    return iterator(this, d);
  }

  void place(std::size_t h, std::uint32_t dense) {
    std::size_t pos = h & mask_;
    while (index_[pos] != flat_detail::kEmpty &&
           index_[pos] != flat_detail::kTomb) {
      pos = (pos + 1) & mask_;
    }
    index_[pos] = dense;
  }

  void erase_slot(std::size_t slot, bool allow_compact) {
    const std::uint32_t d = index_[slot];
    index_[slot] = flat_detail::kTomb;
    alive_[d] = 0;
    entries_[d] = value_type{};  // release key/value resources now
    --size_;
    ++dead_;
    if (allow_compact && dead_ > entries_.size() / 2) compact();
  }

  // Squeeze out dead slots (preserving survivor order) and rebuild the
  // index. Also used for growth.
  void compact() { rebuild(index_.empty() ? 16 : index_.size()); }

  void grow() { rebuild(index_.empty() ? 16 : index_.size() * 2); }

  void rebuild(std::size_t new_cap) {
    while (new_cap < (entries_.size() - dead_ + 1) * 2) new_cap *= 2;
    if (dead_ > 0) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < entries_.size(); ++r) {
        if (!alive_[r]) continue;
        if (w != r) entries_[w] = std::move(entries_[r]);
        ++w;
      }
      entries_.resize(w);
      alive_.assign(w, 1);
      dead_ = 0;
    }
    index_.assign(new_cap, flat_detail::kEmpty);
    mask_ = new_cap - 1;
    for (std::size_t d = 0; d < entries_.size(); ++d) {
      place(hash_of(entries_[d].first), static_cast<std::uint32_t>(d));
    }
  }

  std::vector<value_type> entries_;   // insertion order; may hold dead slots
  std::vector<std::uint8_t> alive_;   // parallel to entries_
  std::vector<std::uint32_t> index_;  // open addressing: dense idx / sentinel
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t dead_ = 0;
};

// Set counterpart: same index machinery over a dense key vector.
template <typename K, typename Hash = std::hash<K>>
class FlatSet {
 public:
  using value_type = K;

  template <bool Const>
  class Iter {
   public:
    using Owner = const FlatSet;  // set elements are immutable either way

    Iter() = default;
    Iter(Owner* s, std::size_t i) : s_(s), i_(i) { skip_dead(); }
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : s_(o.s_), i_(o.i_) {}  // NOLINT

    const K& operator*() const { return s_->keys_[i_]; }
    const K* operator->() const { return &s_->keys_[i_]; }
    Iter& operator++() {
      ++i_;
      skip_dead();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.i_ != b.i_;
    }

   private:
    friend class FlatSet;
    friend class Iter<true>;
    void skip_dead() {
      while (s_ != nullptr && i_ < s_->keys_.size() && !s_->alive_[i_]) ++i_;
    }
    Owner* s_ = nullptr;
    std::size_t i_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatSet() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, keys_.size()); }

  void clear() {
    keys_.clear();
    alive_.clear();
    index_.clear();
    mask_ = 0;
    size_ = 0;
    dead_ = 0;
  }

  std::size_t count(const K& k) const { return find_dense(k) == kNpos ? 0 : 1; }
  bool contains(const K& k) const { return find_dense(k) != kNpos; }
  const_iterator find(const K& k) const {
    const std::size_t d = find_dense(k);
    return const_iterator(this, d == kNpos ? keys_.size() : d);
  }

  std::pair<const_iterator, bool> insert(K k) {
    const std::size_t d = find_dense(k);
    if (d != kNpos) return {const_iterator(this, d), false};
    if (keys_.size() + 1 > (index_.size() * 7) / 8 || index_.empty()) grow();
    const std::size_t nd = keys_.size();
    keys_.push_back(std::move(k));
    alive_.push_back(1);
    place(hash_of(keys_.back()), static_cast<std::uint32_t>(nd));
    ++size_;
    return {const_iterator(this, nd), true};
  }

  std::size_t erase(const K& k) {
    const std::size_t slot = find_slot(k);
    if (slot == kNpos) return 0;
    const std::uint32_t d = index_[slot];
    index_[slot] = flat_detail::kTomb;
    alive_[d] = 0;
    keys_[d] = K{};
    --size_;
    ++dead_;
    if (dead_ > keys_.size() / 2) rebuild(index_.size());
    return 1;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t hash_of(const K& k) const {
    return flat_detail::mix_hash(Hash{}(k));
  }

  std::size_t find_dense(const K& k) const {
    if (index_.empty()) return kNpos;
    std::size_t pos = hash_of(k) & mask_;
    while (true) {
      const std::uint32_t d = index_[pos];
      if (d == flat_detail::kEmpty) return kNpos;
      if (d != flat_detail::kTomb && keys_[d] == k) return d;
      pos = (pos + 1) & mask_;
    }
  }
  std::size_t find_slot(const K& k) const {
    if (index_.empty()) return kNpos;
    std::size_t pos = hash_of(k) & mask_;
    while (true) {
      const std::uint32_t d = index_[pos];
      if (d == flat_detail::kEmpty) return kNpos;
      if (d != flat_detail::kTomb && keys_[d] == k) return pos;
      pos = (pos + 1) & mask_;
    }
  }

  void place(std::size_t h, std::uint32_t dense) {
    std::size_t pos = h & mask_;
    while (index_[pos] != flat_detail::kEmpty &&
           index_[pos] != flat_detail::kTomb) {
      pos = (pos + 1) & mask_;
    }
    index_[pos] = dense;
  }

  void grow() { rebuild(index_.empty() ? 16 : index_.size() * 2); }

  void rebuild(std::size_t new_cap) {
    while (new_cap < (keys_.size() - dead_ + 1) * 2) new_cap *= 2;
    if (dead_ > 0) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < keys_.size(); ++r) {
        if (!alive_[r]) continue;
        if (w != r) keys_[w] = std::move(keys_[r]);
        ++w;
      }
      keys_.resize(w);
      alive_.assign(w, 1);
      dead_ = 0;
    }
    index_.assign(new_cap, flat_detail::kEmpty);
    mask_ = new_cap - 1;
    for (std::size_t d = 0; d < keys_.size(); ++d) {
      place(hash_of(keys_[d]), static_cast<std::uint32_t>(d));
    }
  }

  std::vector<K> keys_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> index_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t dead_ = 0;
};

}  // namespace sim
