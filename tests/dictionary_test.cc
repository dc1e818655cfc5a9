// Tests for the dictionary abstraction: every backend behaves identically
// through the uniform API (the property §3.4's phase-wise swapping relies
// on).

#include "containers/dictionary.h"

#include <algorithm>
#include <map>
#include <string>
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

TEST(DictMemoryTest, UnorderedPreSizeDominatesMapFootprintPerDoc) {
  // The Figure-4 memory story in miniature: a pre-sized u-map per document
  // vs a right-sized tree per document, ~50 distinct words per doc.
  StdUnorderedDict<uint32_t> umap(4096);
  RbTreeMap<std::string, uint32_t> tree;
  for (int i = 0; i < 50; ++i) {
    std::string w = "word" + std::to_string(i);
    umap.FindOrInsert(w) = 1;
    tree.FindOrInsert(std::string_view(w)) = 1;
  }
  EXPECT_GT(umap.ApproxMemoryBytes(), tree.ApproxMemoryBytes() * 5);
}

}  // namespace
}  // namespace hpa::containers
