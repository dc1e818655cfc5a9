// Tests for the dictionary abstraction: every backend behaves identically
// through the uniform API (the property §3.4's phase-wise swapping relies
// on).

#include "containers/dictionary.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace hpa::containers {
namespace {

TEST(DictBackendTest, NamesRoundTrip) {
  for (DictBackend b : kAllDictBackends) {
    auto parsed = ParseDictBackend(DictBackendName(b));
    ASSERT_TRUE(parsed.ok()) << DictBackendName(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(DictBackendName(DictBackend::kInterned), "interned");
  EXPECT_EQ(*ParseDictBackend("interned"), DictBackend::kInterned);
}

TEST(DictBackendTest, ParseAliases) {
  EXPECT_EQ(*ParseDictBackend("unordered_map"), DictBackend::kStdUnorderedMap);
  EXPECT_EQ(*ParseDictBackend("std::map"), DictBackend::kStdMap);
  EXPECT_EQ(*ParseDictBackend("umap"), DictBackend::kStdUnorderedMap);
}

TEST(DictBackendTest, ParseRejectsUnknown) {
  EXPECT_FALSE(ParseDictBackend("btree").ok());
  EXPECT_FALSE(ParseDictBackend("").ok());
  // Names of no backend, not aliases of map/u-map.
  for (const char* gone : {"rb-tree", "rbtree", "chained", "chained-hash"}) {
    EXPECT_FALSE(ParseDictBackend(gone).ok()) << gone;
  }
}

TEST(DispatchTest, ReachesEveryBackend) {
  for (DictBackend b : kAllDictBackends) {
    DictBackend seen = DispatchDictBackend(b, [](auto tag) { return tag(); });
    EXPECT_EQ(seen, b);
  }
}

TEST(DispatchDeathTest, RejectsTheInternedCount) {
  EXPECT_DEATH(DispatchDictBackend(DictBackend::kInterned,
                                   [](auto tag) { return tag(); }),
               "CHECK failed");
}

TEST(DispatchTest, InstantiatesMatchingDictType) {
  size_t size = DispatchDictBackend(DictBackend::kOpenHash, [](auto tag) {
    typename DictFor<tag(), uint32_t>::type dict;
    dict.FindOrInsert("x") = 1;
    return dict.size();
  });
  EXPECT_EQ(size, 1u);
}

// The uniform-API contract, exercised for each backend via dispatch.
class DictContractTest : public ::testing::TestWithParam<DictBackend> {};

TEST_P(DictContractTest, CountsWordsLikeAReferenceMap) {
  const std::vector<std::string> words = {"the", "cat", "sat", "on",  "the",
                                          "mat", "the", "cat", "ran", "off"};
  std::map<std::string, uint32_t> expected;
  for (const auto& w : words) expected[w]++;

  DispatchDictBackend(GetParam(), [&](auto tag) {
    typename DictFor<tag(), uint32_t>::type dict;
    for (const auto& w : words) dict.FindOrInsert(std::string_view(w)) += 1;

    EXPECT_EQ(dict.size(), expected.size());
    for (const auto& [word, count] : expected) {
      const uint32_t* v = dict.Find(std::string_view(word));
      ASSERT_NE(v, nullptr) << word;
      EXPECT_EQ(*v, count) << word;
    }

    // Collected iteration matches, after sorting where unordered.
    std::vector<std::pair<std::string, uint32_t>> items;
    dict.ForEach([&](const std::string& k, uint32_t v) {
      items.emplace_back(k, v);
    });
    using Dict = typename DictFor<tag(), uint32_t>::type;
    if constexpr (!Dict::kSortedIteration) {
      std::sort(items.begin(), items.end());
    }
    std::vector<std::pair<std::string, uint32_t>> want(expected.begin(),
                                                       expected.end());
    EXPECT_EQ(items, want);
  });
}

TEST_P(DictContractTest, SortedBackendsIterateInOrderUnsortedDont) {
  DispatchDictBackend(GetParam(), [&](auto tag) {
    using Dict = typename DictFor<tag(), int>::type;
    Dict dict;
    for (const char* w : {"zebra", "apple", "mango", "kiwi"}) {
      dict.FindOrInsert(std::string_view(w)) = 1;
    }
    std::vector<std::string> order;
    dict.ForEach([&](const std::string& k, int) { order.push_back(k); });
    if constexpr (Dict::kSortedIteration) {
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
    EXPECT_EQ(order.size(), 4u);
  });
}

TEST_P(DictContractTest, ClearThenReuse) {
  DispatchDictBackend(GetParam(), [&](auto tag) {
    typename DictFor<tag(), int>::type dict;
    for (int i = 0; i < 100; ++i) {
      dict.FindOrInsert(std::string_view("w" + std::to_string(i))) = i;
    }
    dict.Clear();
    EXPECT_EQ(dict.size(), 0u);
    dict.FindOrInsert(std::string_view("fresh")) = 1;
    EXPECT_EQ(dict.size(), 1u);
  });
}

TEST_P(DictContractTest, MemoryAccountingIsPositiveOnceFilled) {
  DispatchDictBackend(GetParam(), [&](auto tag) {
    typename DictFor<tag(), int>::type dict;
    for (int i = 0; i < 64; ++i) {
      dict.FindOrInsert(std::string_view("token_number_" +
                                         std::to_string(i))) = i;
    }
    EXPECT_GT(dict.ApproxMemoryBytes(), 64u);
  });
}

TEST_P(DictContractTest, RandomizedDifferentialAcrossBackends) {
  Rng rng(555);
  std::vector<std::pair<std::string, int>> ops;
  for (int i = 0; i < 5000; ++i) {
    ops.emplace_back("t" + std::to_string(rng.NextBounded(400)),
                     static_cast<int>(rng.NextBounded(3)));
  }
  std::map<std::string, int> oracle;
  for (const auto& [k, op] : ops) {
    if (op < 2) {
      oracle[k] += 1;
    } else {
      oracle.erase(k);
    }
  }
  DispatchDictBackend(GetParam(), [&](auto tag) {
    typename DictFor<tag(), int>::type dict;
    for (const auto& [k, op] : ops) {
      if (op < 2) {
        dict.FindOrInsert(std::string_view(k)) += 1;
      } else {
        dict.Erase(std::string_view(k));
      }
    }
    EXPECT_EQ(dict.size(), oracle.size());
    for (const auto& [k, v] : oracle) {
      const int* got = dict.Find(std::string_view(k));
      ASSERT_NE(got, nullptr) << k;
      EXPECT_EQ(*got, v) << k;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DictContractTest, ::testing::ValuesIn(kAllDictBackends),
    [](const ::testing::TestParamInfo<DictBackend>& info) {
      std::string name(DictBackendName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The table-level surface (insert / erase / drain / move / ordered walk)
// on every per-document table and on its sharded composite, the shape the
// parallel merges hand to the operators.
template <typename Dict>
class DictSurfaceTest : public ::testing::Test {};

using SurfaceTypes = ::testing::Types<
    DictFor<DictBackend::kStdMap, int>::type,
    DictFor<DictBackend::kStdUnorderedMap, int>::type,
    DictFor<DictBackend::kOpenHash, int>::type,
    ShardedDictFor<DictBackend::kStdMap, int>,
    ShardedDictFor<DictBackend::kStdUnorderedMap, int>,
    ShardedDictFor<DictBackend::kOpenHash, int>>;

struct SurfaceTypeNames {
  template <typename T>
  static std::string GetName(int i) {
    static const char* const kNames[] = {
        "map",         "u_map",         "open_hash",
        "sharded_map", "sharded_u_map", "sharded_open_hash"};
    return kNames[i];
  }
};

TYPED_TEST_SUITE(DictSurfaceTest, SurfaceTypes, SurfaceTypeNames);

// Zero-padded so that key order is numeric order.
std::string Key(int i) {
  std::string digits = std::to_string(i);
  return "k" + std::string(5 - digits.size(), '0') + digits;
}

// Every (key, value) the dictionary holds, in ForEach order.
template <typename Dict>
std::vector<std::pair<std::string, int>> Items(const Dict& dict) {
  std::vector<std::pair<std::string, int>> items;
  dict.ForEach([&](const std::string& k, int v) { items.emplace_back(k, v); });
  return items;
}

TYPED_TEST(DictSurfaceTest, EmptyDict) {
  TypeParam dict;
  EXPECT_TRUE(dict.empty());
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.Find(std::string_view("x")), nullptr);
  EXPECT_FALSE(dict.Contains(std::string_view("x")));
  EXPECT_FALSE(dict.Erase(std::string_view("x")));
  EXPECT_TRUE(Items(dict).empty());
}

TYPED_TEST(DictSurfaceTest, FindOrInsertReturnsExisting) {
  TypeParam dict;
  dict.FindOrInsert(std::string_view("five")) = 50;
  int& v = dict.FindOrInsert(std::string_view("five"));
  EXPECT_EQ(v, 50);
  v = 51;
  EXPECT_EQ(*dict.Find(std::string_view("five")), 51);
  EXPECT_EQ(dict.size(), 1u);
}

TYPED_TEST(DictSurfaceTest, HeterogeneousStringLookup) {
  TypeParam dict;
  dict.FindOrInsert(std::string_view("hello")) = 7;
  const std::string owned = "hello";
  ASSERT_NE(dict.Find(std::string_view(owned)), nullptr);
  EXPECT_EQ(*dict.Find(std::string_view(owned)), 7);
  EXPECT_TRUE(dict.Contains(std::string_view("hello")));
  EXPECT_FALSE(dict.Contains(std::string_view("hell")));
  EXPECT_FALSE(dict.Contains(std::string_view("hello!")));
}

TYPED_TEST(DictSurfaceTest, EraseFirstLastAndInteriorKeys) {
  TypeParam dict;
  for (int i = 0; i < 20; ++i) dict.FindOrInsert(Key(i)) = i;
  EXPECT_TRUE(dict.Erase(Key(0)));
  EXPECT_TRUE(dict.Erase(Key(19)));
  EXPECT_TRUE(dict.Erase(Key(10)));
  EXPECT_FALSE(dict.Erase(Key(10)));
  EXPECT_EQ(dict.size(), 17u);
  EXPECT_EQ(dict.Find(Key(10)), nullptr);
  for (int i : {1, 9, 11, 18}) {
    ASSERT_NE(dict.Find(Key(i)), nullptr) << i;
    EXPECT_EQ(*dict.Find(Key(i)), i);
  }
}

TYPED_TEST(DictSurfaceTest, ForEachVisitsEveryEntryOnceInDeclaredOrder) {
  TypeParam dict;
  for (int i : {5, 1, 9, 3, 7, 2, 8, 4, 6, 0}) {
    dict.FindOrInsert(Key(i)) = i * 10;
  }
  auto items = Items(dict);
  if constexpr (!TypeParam::kSortedIteration) {
    std::sort(items.begin(), items.end());
  }
  ASSERT_EQ(items.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(items[i], std::make_pair(Key(i), i * 10));
  }
}

TYPED_TEST(DictSurfaceTest, MoveTransfersContents) {
  TypeParam a;
  for (int i = 0; i < 100; ++i) a.FindOrInsert(Key(i)) = i;
  const auto before = Items(a);
  TypeParam b(std::move(a));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(Items(b), before);
  TypeParam c;
  c.FindOrInsert(std::string_view("replaced")) = 1;
  c = std::move(b);
  EXPECT_EQ(c.Find(std::string_view("replaced")), nullptr);
  EXPECT_EQ(Items(c), before);
}

TYPED_TEST(DictSurfaceTest, AscendingInsertionStaysFindable) {
  TypeParam dict;
  const int n = 10000;
  for (int i = 0; i < n; ++i) dict.FindOrInsert(Key(i)) = i;
  EXPECT_EQ(dict.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int* v = dict.Find(Key(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(dict.Find(Key(n)), nullptr);
}

TYPED_TEST(DictSurfaceTest, DrainInRandomOrderThenReuse) {
  TypeParam dict;
  std::vector<int> keys;
  for (int i = 0; i < 2000; ++i) {
    dict.FindOrInsert(Key(i)) = i;
    keys.push_back(i);
  }
  Rng rng(7);
  Shuffle(keys, rng);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(dict.Erase(Key(keys[i]))) << keys[i];
    EXPECT_EQ(dict.size(), keys.size() - i - 1);
  }
  EXPECT_TRUE(dict.empty());
  EXPECT_TRUE(Items(dict).empty());
  dict.FindOrInsert(Key(42)) = 1;
  using Entries = std::vector<std::pair<std::string, int>>;
  EXPECT_EQ(Items(dict), (Entries{{Key(42), 1}}));
}

TYPED_TEST(DictSurfaceTest, ReserveKeepsContentsAndMemoryGrowsWithSize) {
  TypeParam dict;
  dict.FindOrInsert(std::string_view("a")) = 1;
  dict.Reserve(5000);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(*dict.Find(std::string_view("a")), 1);
  const uint64_t reserved_bytes = dict.ApproxMemoryBytes();
  for (int i = 0; i < 6000; ++i) {
    dict.FindOrInsert("a_rather_long_key_beyond_sso_limit_" + Key(i)) = i;
  }
  EXPECT_GT(dict.ApproxMemoryBytes(), reserved_bytes);
}

// Interleaved insert / erase / lookup against std::map, ending with an
// exact content comparison.
TYPED_TEST(DictSurfaceTest, RandomizedDifferentialAgainstStdMap) {
  TypeParam dict;
  std::map<std::string, int> oracle;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const std::string key = Key(static_cast<int>(rng.NextBounded(500)));
    const uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      const int value = static_cast<int>(rng.NextBounded(1000));
      dict.FindOrInsert(key) = value;
      oracle[key] = value;
    } else if (op < 8) {
      EXPECT_EQ(dict.Erase(key), oracle.erase(key) > 0) << key;
    } else {
      const int* found = dict.Find(key);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr) << key;
      } else {
        ASSERT_NE(found, nullptr) << key;
        EXPECT_EQ(*found, it->second) << key;
      }
    }
    if (step % 1000 == 999) {
      ASSERT_EQ(dict.size(), oracle.size());
    }
  }
  auto items = Items(dict);
  if constexpr (!TypeParam::kSortedIteration) {
    std::sort(items.begin(), items.end());
  }
  EXPECT_EQ(items, (std::vector<std::pair<std::string, int>>(oracle.begin(),
                                                             oracle.end())));
}

TEST(DictMemoryTest, UnorderedPreSizeDominatesMapFootprintPerDoc) {
  // The Figure-4 memory story in miniature: a pre-sized u-map per document
  // vs a right-sized tree per document, ~50 distinct words per doc.
  StdUnorderedDict<uint32_t> umap(4096);
  StdMapDict<uint32_t> tree;
  for (int i = 0; i < 50; ++i) {
    std::string w = "word" + std::to_string(i);
    umap.FindOrInsert(w) = 1;
    tree.FindOrInsert(w) = 1;
  }
  EXPECT_GT(umap.ApproxMemoryBytes(), tree.ApproxMemoryBytes() * 5);
}

}  // namespace
}  // namespace hpa::containers
