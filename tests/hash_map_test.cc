// Tests for OpenHashMap, including randomized differential testing against
// std::unordered_map.

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "containers/hash.h"
#include "containers/open_hash_map.h"

namespace hpa::containers {
namespace {

TEST(HashBytesTest, DeterministicAndSpread) {
  EXPECT_EQ(HashBytes("abc", 3), HashBytes("abc", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abc", 2));
}

// The flat-table API (FindOrInsert/Find/Erase plus rehash accounting),
// as a typed test so another flat table can join the list.
template <typename Map>
class FlatApiTest : public ::testing::Test {};

using MapTypes = ::testing::Types<OpenHashMap<std::string, int>>;

TYPED_TEST_SUITE(FlatApiTest, MapTypes);

TYPED_TEST(FlatApiTest, EmptyMap) {
  TypeParam map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find("x"), nullptr);
  EXPECT_FALSE(map.Erase("x"));
}

TYPED_TEST(FlatApiTest, InsertFindErase) {
  TypeParam map;
  map.FindOrInsert("alpha") = 1;
  map.FindOrInsert("beta") = 2;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find("alpha"), nullptr);
  EXPECT_EQ(*map.Find("alpha"), 1);
  EXPECT_TRUE(map.Contains("beta"));
  EXPECT_TRUE(map.Erase("alpha"));
  EXPECT_FALSE(map.Contains("alpha"));
  EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(FlatApiTest, FindOrInsertIsIdempotent) {
  TypeParam map;
  map.FindOrInsert("k") = 5;
  map.FindOrInsert("k") += 1;
  EXPECT_EQ(*map.Find("k"), 6);
  EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(FlatApiTest, HeterogeneousLookup) {
  TypeParam map;
  map.FindOrInsert(std::string_view("word")) = 3;
  std::string s = "word";
  EXPECT_NE(map.Find(std::string_view(s)), nullptr);
}

TYPED_TEST(FlatApiTest, GrowsThroughManyInserts) {
  TypeParam map;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    map.FindOrInsert("key_" + std::to_string(i)) = i;
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; i += 37) {
    const int* v = map.Find("key_" + std::to_string(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
}

TYPED_TEST(FlatApiTest, ClearKeepsArraySized) {
  TypeParam map;
  for (int i = 0; i < 1000; ++i) {
    map.FindOrInsert("k" + std::to_string(i)) = i;
  }
  uint64_t rehashes_before = map.rehash_count();
  map.Clear();
  EXPECT_TRUE(map.empty());
  // Re-inserting the same keys must not rehash again: recycled tables stay
  // pre-sized (paper §3.1 "recycling data structures").
  for (int i = 0; i < 1000; ++i) {
    map.FindOrInsert("k" + std::to_string(i)) = i;
  }
  EXPECT_EQ(map.rehash_count(), rehashes_before);
}

TYPED_TEST(FlatApiTest, ReserveAvoidsRehashDuringInserts) {
  TypeParam map;
  map.Reserve(5000);
  uint64_t rehashes_after_reserve = map.rehash_count();
  for (int i = 0; i < 5000; ++i) {
    map.FindOrInsert("k" + std::to_string(i)) = i;
  }
  EXPECT_EQ(map.rehash_count(), rehashes_after_reserve);
}

TYPED_TEST(FlatApiTest, ForEachVisitsEveryEntryOnce) {
  TypeParam map;
  for (int i = 0; i < 500; ++i) map.FindOrInsert("k" + std::to_string(i)) = i;
  std::unordered_map<std::string, int> seen;
  map.ForEach([&](const std::string& k, int v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_EQ(seen["k42"], 42);
}

TYPED_TEST(FlatApiTest, MemoryAccountingGrowsWithSize) {
  TypeParam map;
  uint64_t empty_bytes = map.ApproxMemoryBytes();
  for (int i = 0; i < 100; ++i) {
    map.FindOrInsert("quite_a_long_key_number_" + std::to_string(i)) = i;
  }
  EXPECT_GT(map.ApproxMemoryBytes(), empty_bytes);
}

TYPED_TEST(FlatApiTest, RandomizedDifferentialAgainstStdUnorderedMap) {
  TypeParam map;
  std::unordered_map<std::string, int> oracle;
  Rng rng(99);
  for (int step = 0; step < 30000; ++step) {
    std::string key = "k" + std::to_string(rng.NextBounded(700));
    uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      int value = static_cast<int>(rng.NextBounded(100000));
      map.FindOrInsert(key) = value;
      oracle[key] = value;
    } else if (op < 8) {
      EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0) << key;
    } else {
      const int* found = map.Find(key);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr) << key;
      } else {
        ASSERT_NE(found, nullptr) << key;
        EXPECT_EQ(*found, it->second) << key;
      }
    }
    if (step % 5000 == 4999) EXPECT_EQ(map.size(), oracle.size());
  }
  // Final content comparison.
  size_t visited = 0;
  map.ForEach([&](const std::string& k, int v) {
    ++visited;
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << k;
    EXPECT_EQ(v, it->second) << k;
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(OpenHashMapTest, BackwardShiftPreservesProbeChains) {
  // Force collisions into a tiny table, then delete from the middle of a
  // probe chain and verify everything is still findable.
  OpenHashMap<std::string, int> map(4);
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("collide_" + std::to_string(i));
  for (int i = 0; i < 12; ++i) map.FindOrInsert(keys[i]) = i;
  EXPECT_TRUE(map.Erase(keys[5]));
  EXPECT_TRUE(map.Erase(keys[2]));
  EXPECT_TRUE(map.Erase(keys[9]));
  for (int i = 0; i < 12; ++i) {
    if (i == 5 || i == 2 || i == 9) {
      EXPECT_EQ(map.Find(keys[i]), nullptr) << i;
    } else {
      ASSERT_NE(map.Find(keys[i]), nullptr) << i;
      EXPECT_EQ(*map.Find(keys[i]), i);
    }
  }
}

TEST(OpenHashMapTest, EraseInsertChurnStaysConsistent) {
  OpenHashMap<int, int> map;
  std::unordered_map<int, int> oracle;
  Rng rng(31337);
  for (int step = 0; step < 50000; ++step) {
    int key = static_cast<int>(rng.NextBounded(300));
    if (rng.NextBounded(2) == 0) {
      map.FindOrInsert(key) = key;
      oracle[key] = key;
    } else {
      EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0);
    }
  }
  EXPECT_EQ(map.size(), oracle.size());
}

}  // namespace
}  // namespace hpa::containers
