// Tests for the parallel reduction layer: the ShardedDict container, the
// hash-partitioned ParallelShardedMerge, the pairwise ParallelTreeReduce,
// and the end-to-end determinism guarantee — word-count results identical
// across worker counts and across the serial/sharded merge schedules, for
// every dictionary backend.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "containers/dictionary.h"
#include "ops/word_count.h"
#include "parallel/parallel_ops.h"
#include "parallel/thread_pool.h"
#include "text/synth_corpus.h"

namespace hpa {
namespace {

using containers::DictBackend;
using containers::ShardedDictFor;

// ---------------------------------------------------------------------------
// ShardedDict container surface
// ---------------------------------------------------------------------------

TEST(ShardedDictTest, RoundsShardCountUpToPowerOfTwo) {
  ShardedDictFor<DictBackend::kOpenHash, int> d5(0, 5);
  EXPECT_EQ(d5.num_shards(), 8u);
  ShardedDictFor<DictBackend::kOpenHash, int> d1(0, 1);
  EXPECT_EQ(d1.num_shards(), 1u);
  ShardedDictFor<DictBackend::kOpenHash, int> d64(0, 64);
  EXPECT_EQ(d64.num_shards(), 64u);
}

TEST(ShardedDictTest, BasicMapSurface) {
  ShardedDictFor<DictBackend::kStdUnorderedMap, int> dict;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    dict.FindOrInsert("key" + std::to_string(i)) = i;
  }
  EXPECT_EQ(dict.size(), static_cast<size_t>(n));
  EXPECT_FALSE(dict.empty());
  for (int i = 0; i < n; i += 37) {
    const int* v = dict.Find("key" + std::to_string(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(dict.Find("absent"), nullptr);
  EXPECT_TRUE(dict.Contains("key7"));
  EXPECT_TRUE(dict.Erase("key7"));
  EXPECT_FALSE(dict.Contains("key7"));
  EXPECT_FALSE(dict.Erase("key7"));
  EXPECT_EQ(dict.size(), static_cast<size_t>(n - 1));
  EXPECT_GT(dict.ApproxMemoryBytes(), 0u);
  dict.Clear();
  EXPECT_TRUE(dict.empty());
}

TEST(ShardedDictTest, ShardRoutingIsStableAndInRange) {
  ShardedDictFor<DictBackend::kOpenHash, int> dict;
  for (int i = 0; i < 500; ++i) {
    std::string key = "word" + std::to_string(i);
    size_t s = dict.ShardOf(key);
    EXPECT_LT(s, dict.num_shards());
    EXPECT_EQ(s, dict.ShardOf(key));  // pure function of the key
    dict.FindOrInsert(key) = i;
    // The entry lives in exactly the shard ShardOf names.
    EXPECT_NE(dict.shard(s).Find(key), nullptr);
  }
  // Keys spread across many shards (top-bit routing, 500 keys, 64 shards).
  size_t populated = 0;
  for (size_t s = 0; s < dict.num_shards(); ++s) {
    if (dict.shard(s).size() > 0) ++populated;
  }
  EXPECT_GT(populated, dict.num_shards() / 2);
}

TEST(ShardedDictTest, ForEachVisitsEveryEntryOnce) {
  ShardedDictFor<DictBackend::kStdMap, uint32_t> dict;
  for (int i = 0; i < 300; ++i) {
    dict.FindOrInsert("item" + std::to_string(i)) = static_cast<uint32_t>(i);
  }
  std::vector<std::pair<std::string, uint32_t>> seen;
  dict.ForEach([&](const std::string& k, uint32_t v) {
    seen.emplace_back(k, v);
  });
  EXPECT_EQ(seen.size(), 300u);
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(ShardedDictTest, ReserveSplitsHintWithoutChangingContents) {
  ShardedDictFor<DictBackend::kStdUnorderedMap, int> dict;
  dict.FindOrInsert("a") = 1;
  dict.Reserve(10000);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(*dict.Find("a"), 1);
}

// ---------------------------------------------------------------------------
// ParallelShardedMerge: fixed partials => byte-identical results across
// merge schedules and across the executor driving the merge.
// ---------------------------------------------------------------------------

using TestDict = ShardedDictFor<DictBackend::kOpenHash, uint32_t>;

/// Deterministically fills `partials` so that key "k<i>" accrues a known
/// total across slots.
void FillPartials(parallel::WorkerLocal<TestDict>& partials, int keys) {
  for (size_t w = 0; w < partials.size(); ++w) {
    auto& dict = partials.Get(static_cast<int>(w));
    for (int i = 0; i < keys; ++i) {
      if ((i + static_cast<int>(w)) % 3 == 0) continue;  // uneven partials
      dict.FindOrInsert("k" + std::to_string(i)) +=
          static_cast<uint32_t>(w + 1);
    }
  }
}

std::vector<std::pair<std::string, uint32_t>> Entries(const TestDict& dict) {
  std::vector<std::pair<std::string, uint32_t>> out;
  dict.ForEach([&](const std::string& k, uint32_t v) {
    out.emplace_back(k, v);
  });
  return out;
}

TEST(ParallelShardedMergeTest, MatchesSerialFoldByteForByte) {
  parallel::ThreadPoolExecutor exec(4);
  parallel::WorkerLocal<TestDict> partials(exec);
  FillPartials(partials, 4000);

  auto merge = [](auto& dst, const std::string& key, uint32_t value) {
    dst.FindOrInsert(key) += value;
  };

  TestDict serial_out;
  parallel::MergeShardRange(partials, serial_out, 0, serial_out.num_shards(),
                            merge);

  TestDict parallel_out;
  parallel::ParallelShardedMerge(exec, partials, parallel_out,
                                 parallel::WorkHint{}, merge);

  // Same partials, same merge order per shard: not just equal contents but
  // the identical iteration sequence (identical internal structure).
  EXPECT_EQ(Entries(serial_out), Entries(parallel_out));

  // A different executor driving the merge must not change the result
  // either — the schedule only decides who merges a shard, never the order
  // within it.
  parallel::ThreadPoolExecutor exec2(2);
  TestDict other_out;
  parallel::ParallelShardedMerge(exec2, partials, other_out,
                                 parallel::WorkHint{}, merge);
  EXPECT_EQ(Entries(serial_out), Entries(other_out));
}

TEST(ParallelShardedMergeTest, SumsValuesAcrossPartials) {
  parallel::ThreadPoolExecutor exec(3);
  parallel::WorkerLocal<TestDict> partials(exec);
  const int keys = 1000;
  FillPartials(partials, keys);

  TestDict out;
  parallel::ParallelShardedMerge(
      exec, partials, out, parallel::WorkHint{},
      [](auto& dst, const std::string& key, uint32_t value) {
        dst.FindOrInsert(key) += value;
      });

  for (int i = 0; i < keys; ++i) {
    uint32_t expected = 0;
    for (uint32_t w = 0; w < 3; ++w) {
      if ((i + static_cast<int>(w)) % 3 != 0) expected += w + 1;
    }
    const uint32_t* got = out.Find("k" + std::to_string(i));
    ASSERT_NE(got, nullptr) << i;
    EXPECT_EQ(*got, expected) << i;
  }
}

// ---------------------------------------------------------------------------
// ParallelTreeReduce
// ---------------------------------------------------------------------------

TEST(ParallelTreeReduceTest, SlotZeroHoldsElementwiseSum) {
  // 5 slots: a non-power-of-two worker count exercises the ragged tree.
  parallel::ThreadPoolExecutor exec(5);
  const size_t dim = 257;
  parallel::WorkerLocal<std::vector<uint64_t>> slots(exec, [&] {
    return std::vector<uint64_t>(dim);
  });
  std::vector<uint64_t> expected(dim);
  for (size_t w = 0; w < slots.size(); ++w) {
    auto& v = slots.Get(static_cast<int>(w));
    for (size_t i = 0; i < dim; ++i) {
      v[i] = (w + 1) * 1000 + i;
      expected[i] += v[i];
    }
  }

  parallel::ParallelTreeReduce(
      exec, slots, /*parts=*/7, parallel::WorkHint{},
      [&](std::vector<uint64_t>& into, std::vector<uint64_t>& from,
          size_t part, size_t parts) {
        size_t lo = dim * part / parts;
        size_t hi = dim * (part + 1) / parts;
        for (size_t i = lo; i < hi; ++i) into[i] += from[i];
      });

  EXPECT_EQ(slots.Get(0), expected);
}

TEST(ParallelTreeReduceTest, SingleSlotIsIdentity) {
  parallel::ThreadPoolExecutor exec(1);
  parallel::WorkerLocal<uint64_t> slots(exec);
  slots.Get(0) = 42;
  int combines = 0;
  parallel::ParallelTreeReduce(
      exec, slots, 1, parallel::WorkHint{},
      [&](uint64_t& into, uint64_t& from, size_t, size_t) {
        into += from;
        ++combines;
      });
  EXPECT_EQ(slots.Get(0), 42u);
  EXPECT_EQ(combines, 0);
}

TEST(ParallelTreeReduceTest, MapStyleOverloadMatchesSerial) {
  parallel::ThreadPoolExecutor exec(4);
  const size_t n = 10000;
  uint64_t got = parallel::ParallelTreeReduce<uint64_t>(
      exec, 0, n, 0, parallel::WorkHint{},
      [](uint64_t& acc, size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) acc += i * i;
      },
      [](uint64_t& into, const uint64_t& from) { into += from; });
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) expected += i * i;
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: word count across worker counts x merge
// schedules x dictionary backends.
// ---------------------------------------------------------------------------

struct WordCountSnapshot {
  std::vector<std::pair<std::string, uint32_t>> sorted_dfs;
  uint64_t total_tokens = 0;

  bool operator==(const WordCountSnapshot& o) const {
    return total_tokens == o.total_tokens && sorted_dfs == o.sorted_dfs;
  }
};

class WordCountDeterminismTest
    : public ::testing::TestWithParam<DictBackend> {
 protected:
  static text::Corpus MakeCorpus() {
    text::CorpusProfile profile;
    profile.name = "determinism";
    profile.num_documents = 120;
    profile.target_bytes = 200 * 1024;
    profile.target_distinct_words = 2500;
    return text::SynthCorpusGenerator(profile).Generate();
  }

  WordCountSnapshot Run(const text::Corpus& corpus, int workers,
                        bool serial_merge) {
    WordCountSnapshot snap;
    containers::DispatchDictBackend(GetParam(), [&](auto tag) {
      parallel::ThreadPoolExecutor exec(workers);
      ops::ExecContext ctx;
      ctx.executor = &exec;
      ctx.serial_merge = serial_merge;
      auto result = ops::RunWordCountInMemory<tag()>(ctx, corpus);
      snap.total_tokens = result.total_tokens;
      result.doc_freq.ForEach([&](const std::string& word,
                                  const ops::TermStat& stat) {
        snap.sorted_dfs.emplace_back(word, stat.df);
      });
      std::sort(snap.sorted_dfs.begin(), snap.sorted_dfs.end());
    });
    return snap;
  }
};

TEST_P(WordCountDeterminismTest, IdenticalAcrossWorkersAndMergeSchedules) {
  text::Corpus corpus = MakeCorpus();
  WordCountSnapshot reference = Run(corpus, 1, /*serial_merge=*/true);
  ASSERT_GT(reference.sorted_dfs.size(), 1000u);
  ASSERT_GT(reference.total_tokens, 0u);
  for (int workers : {1, 2, 4, 8}) {
    for (bool serial_merge : {true, false}) {
      WordCountSnapshot snap = Run(corpus, workers, serial_merge);
      EXPECT_EQ(snap, reference)
          << "workers=" << workers << " serial_merge=" << serial_merge;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WordCountDeterminismTest,
    ::testing::ValuesIn(containers::kAllDictBackends),
    [](const ::testing::TestParamInfo<DictBackend>& info) {
      std::string name(containers::DictBackendName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace hpa
