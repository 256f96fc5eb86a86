// sim::FlatMap / sim::FlatSet equivalence tests (DESIGN.md §13): the
// open-addressing containers that replaced std::map/std::unordered_map on
// the hot paths must behave exactly like a reference map under every
// operation mix, and must iterate in insertion order (that property is
// what keeps event traces deterministic where the std::unordered_map they
// replaced would have leaked hash-table order into the event stream).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/flat_map.h"
#include "sim/rng.h"

namespace {

TEST(FlatMapTest, BasicInsertFindErase) {
  sim::FlatMap<std::uint32_t, std::string> m;
  EXPECT_TRUE(m.empty());
  m.emplace(1u, "one");
  m.emplace(2u, "two");
  m[3u] = "three";
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(1u));
  EXPECT_EQ(m.at(2u), "two");
  EXPECT_EQ(m.find(4u), m.end());
  EXPECT_EQ(m.erase(2u), 1u);
  EXPECT_EQ(m.erase(2u), 0u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.contains(2u));
}

TEST(FlatMapTest, IterationIsInsertionOrdered) {
  sim::FlatMap<std::uint32_t, std::uint32_t> m;
  // Insert keys in an order no comparator or hash would produce.
  const std::uint32_t keys[] = {7, 3, 99, 1, 42, 5};
  for (std::uint32_t k : keys) m.emplace(k, k * 10);
  std::vector<std::uint32_t> seen;
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, std::vector<std::uint32_t>(std::begin(keys),
                                             std::end(keys)));
  // Erase in the middle; survivors keep their relative order.
  m.erase(99u);
  m.erase(7u);
  seen.clear();
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 1, 42, 5}));
  // Re-insertion goes to the back, like a fresh key.
  m.emplace(7u, 70u);
  seen.clear();
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 1, 42, 5, 7}));
}

TEST(FlatMapTest, EraseByIteratorDuringIteration) {
  sim::FlatMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t k = 0; k < 100; ++k) m.emplace(k, k);
  // The `it = m.erase(it)` idiom every expiry sweep in the codebase uses.
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 3 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 66u);
  for (const auto& [k, v] : m) EXPECT_NE(k % 3, 0u);
}

// The 100-seed randomized sweep: every operation mix must agree with a
// std::unordered_map reference on lookups, sizes, and membership, and the
// flat map's iteration order must match the reference insertion log.
TEST(FlatMapTest, HundredSeedEquivalenceSweep) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    sim::Rng rng(seed);
    sim::FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::vector<std::uint64_t> order;  // reference insertion order
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t key = rng.next_below(256);  // force collisions
      switch (rng.next_below(4)) {
        case 0: {  // insert/overwrite
          const std::uint64_t val = rng.next_u64();
          if (!ref.contains(key)) order.push_back(key);
          m.insert_or_assign(key, val);
          ref[key] = val;
          break;
        }
        case 1: {  // emplace (no overwrite)
          const std::uint64_t val = rng.next_u64();
          const bool inserted = m.emplace(key, val).second;
          const bool ref_inserted = ref.emplace(key, val).second;
          ASSERT_EQ(inserted, ref_inserted) << "seed " << seed;
          if (ref_inserted) order.push_back(key);
          break;
        }
        case 2: {  // erase
          const std::size_t a = m.erase(key);
          const std::size_t b = ref.erase(key);
          ASSERT_EQ(a, b) << "seed " << seed;
          if (b) std::erase(order, key);
          break;
        }
        case 3: {  // find
          const auto it = m.find(key);
          const auto rit = ref.find(key);
          ASSERT_EQ(it != m.end(), rit != ref.end()) << "seed " << seed;
          if (it != m.end()) {
            ASSERT_EQ(it->second, rit->second);
          }
          break;
        }
      }
      ASSERT_EQ(m.size(), ref.size()) << "seed " << seed;
    }
    // Final sweep: identical contents, insertion-ordered iteration.
    std::vector<std::uint64_t> seen;
    for (const auto& [k, v] : m) {
      seen.push_back(k);
      ASSERT_EQ(v, ref.at(k)) << "seed " << seed;
    }
    ASSERT_EQ(seen, order) << "seed " << seed;
  }
}

TEST(FlatSetTest, MirrorsReferenceSet) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    sim::FlatSet<std::uint64_t> s;
    std::unordered_set<std::uint64_t> ref;
    for (int op = 0; op < 1000; ++op) {
      const std::uint64_t key = rng.next_below(128);
      if (rng.next_below(3) == 0) {
        ASSERT_EQ(s.erase(key), ref.erase(key)) << "seed " << seed;
      } else {
        ASSERT_EQ(s.insert(key).second, ref.insert(key).second)
            << "seed " << seed;
      }
      ASSERT_EQ(s.contains(key), ref.contains(key)) << "seed " << seed;
      ASSERT_EQ(s.size(), ref.size()) << "seed " << seed;
    }
  }
}

TEST(FlatMapTest, GrowthPreservesContentsAndOrder) {
  sim::FlatMap<std::uint64_t, std::uint64_t> m;
  // Push through several rehash/growth cycles (load factor 7/8 from 16).
  for (std::uint64_t k = 0; k < 10000; ++k) m.emplace(k * 7919, k);
  EXPECT_EQ(m.size(), 10000u);
  std::uint64_t expect = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, expect * 7919);
    EXPECT_EQ(v, expect);
    ++expect;
  }
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(m.contains(k * 7919));
  }
}

// reserve() rebuilds the index ahead of the inserts it makes room for. It
// must leave contents and insertion order as they were, whether or not
// erased entries sit in the dense vector, and keep both right through the
// inserts that follow.
TEST(FlatMapTest, ReservePreservesContentsAndOrder) {
  for (const bool with_erases : {false, true}) {
    sim::FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::vector<std::uint64_t> order;
    auto insert = [&](std::uint64_t k) {
      m.emplace(k, k * 3);
      ref.emplace(k, k * 3);
      order.push_back(k);
    };
    auto check = [&] {
      ASSERT_EQ(m.size(), ref.size()) << "erases " << with_erases;
      std::vector<std::uint64_t> seen;
      for (const auto& [k, v] : m) {
        seen.push_back(k);
        ASSERT_EQ(v, ref.at(k)) << "erases " << with_erases;
      }
      ASSERT_EQ(seen, order) << "erases " << with_erases;
      for (const auto& [k, v] : ref) ASSERT_TRUE(m.contains(k));
    };
    for (std::uint64_t k = 0; k < 40; ++k) insert(k * 7919);
    if (with_erases) {
      // Erase by iterator: it never compacts, so the dead slots stay in
      // the dense vector until reserve() rebuilds.
      for (auto it = m.begin(); it != m.end();) {
        if (it->first % 3 == 0) {
          ref.erase(it->first);
          std::erase(order, it->first);
          it = m.erase(it);
        } else {
          ++it;
        }
      }
    }
    m.reserve(m.size() + 1000);
    check();
    for (std::uint64_t k = 40; k < 1040; ++k) insert(k * 7919);
    check();
  }
}

}  // namespace
