// Differential tests of the interned word count (DictBackend::kInterned)
// against the per-document backends the paper studies (open-hash, map).
//
// The bar is byte identity: the same vocabulary, dfs, document names,
// token totals and quarantine, and a TF/IDF matrix whose every value has
// the same bits, at every worker count on the thread-pool and simulated
// executors, under pruning/sublinear and stemming options, under seeded
// read faults, through both ARFF writers and through the streaming fit.
// The row builder's radix id order is checked against std::sort here too.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "io/fault_injection.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/streaming.h"
#include "ops/tfidf.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa::ops {
namespace {

using containers::DictBackend;

void ExpectSameQuarantine(const QuarantineList& got,
                          const QuarantineList& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.retries, want.retries);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.entries[i].id, want.entries[i].id);
    EXPECT_EQ(got.entries[i].cause.ToString(),
              want.entries[i].cause.ToString());
    EXPECT_EQ(got.entries[i].attempts, want.entries[i].attempts);
  }
}

void ExpectSameTfidf(const TfidfResult& got, const TfidfResult& want) {
  EXPECT_EQ(got.terms, want.terms);
  EXPECT_EQ(got.term_dfs, want.term_dfs);
  EXPECT_EQ(got.doc_names, want.doc_names);
  EXPECT_EQ(got.total_tokens, want.total_tokens);
  ExpectSameQuarantine(got.quarantine, want.quarantine);
  ASSERT_EQ(got.matrix.num_cols, want.matrix.num_cols);
  ASSERT_EQ(got.matrix.num_rows(), want.matrix.num_rows());
  for (size_t r = 0; r < want.matrix.num_rows(); ++r) {
    const containers::SparseVector& g = got.matrix.rows[r];
    const containers::SparseVector& w = want.matrix.rows[r];
    ASSERT_EQ(g.nnz(), w.nnz()) << "row " << r;
    for (size_t k = 0; k < w.nnz(); ++k) {
      ASSERT_EQ(g.id_at(k), w.id_at(k)) << "row " << r;
      const float gv = g.value_at(k);
      const float wv = w.value_at(k);
      ASSERT_EQ(std::memcmp(&gv, &wv, sizeof(float)), 0)
          << "row " << r << " entry " << k;
    }
  }
}

class InternedWordCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_interned_wc_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    corpus_disk_ = std::make_unique<io::SimDisk>(
        io::DiskOptions::CorpusStore(), dir_, nullptr);
    text::CorpusProfile profile;
    profile.name = "intern";
    profile.num_documents = 150;
    profile.target_bytes = 110000;
    profile.target_distinct_words = 800;
    ASSERT_TRUE(text::WriteCorpusPacked(
                    text::SynthCorpusGenerator(profile).Generate(),
                    corpus_disk_.get(), "intern.pack")
                    .ok());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  io::PackedCorpusReader Open(const std::string& rel = "intern.pack") {
    auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), rel);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return std::move(*reader);
  }

  /// Packs `bodies` as a corpus named `rel`.
  void Pack(const std::string& rel, const std::vector<std::string>& bodies) {
    text::Corpus corpus;
    for (size_t i = 0; i < bodies.size(); ++i) {
      text::Document doc;
      doc.name = "d" + std::to_string(i);
      doc.body = bodies[i];
      corpus.docs.push_back(std::move(doc));
    }
    ASSERT_TRUE(text::WriteCorpusPacked(corpus, corpus_disk_.get(), rel).ok());
  }

  ExecContext Ctx(parallel::Executor* exec, DictBackend backend,
                  bool stem = false) {
    ExecContext ctx;
    ctx.executor = exec;
    ctx.corpus_disk = corpus_disk_.get();
    ctx.dict_backend = backend;
    ctx.stem_tokens = stem;
    return ctx;
  }

  TfidfResult Fit(parallel::Executor* exec, DictBackend backend,
                  const TfidfOptions& options, bool stem = false,
                  const std::string& rel = "intern.pack") {
    io::PackedCorpusReader reader = Open(rel);
    ExecContext ctx = Ctx(exec, backend, stem);
    auto result = TfidfInMemory(ctx, reader, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  }

  /// Every file of an ARFF intermediate at `base` (single file, or the
  /// manifest plus its shards), concatenated.
  static std::string ArffBytes(io::SimDisk* disk, const std::string& base) {
    std::string bytes;
    for (const std::string& path :
         {base, base + ".manifest"}) {
      if (disk->Exists(path)) bytes += *disk->ReadFile(path);
    }
    for (int s = 0; disk->Exists(base + "." + std::to_string(s)); ++s) {
      bytes += *disk->ReadFile(base + "." + std::to_string(s));
    }
    return bytes;
  }

  std::string dir_;
  std::unique_ptr<io::SimDisk> corpus_disk_;
};

TfidfOptions PrunedSublinear() {
  TfidfOptions o;
  o.min_df = 2;
  o.max_df_ratio = 0.5;
  o.sublinear_tf = true;
  return o;
}

TEST_F(InternedWordCountTest, MatchesPerDocumentBackendsOnEveryExecutor) {
  struct Case {
    const char* name;
    TfidfOptions options;
    bool stem;
  };
  for (const Case& c : {Case{"default", TfidfOptions{}, false},
                        Case{"pruned+sublinear", PrunedSublinear(), false},
                        Case{"stemmed", TfidfOptions{}, true}}) {
    SCOPED_TRACE(c.name);
    parallel::SerialExecutor serial;
    const TfidfResult open =
        Fit(&serial, DictBackend::kOpenHash, c.options, c.stem);
    const TfidfResult map = Fit(&serial, DictBackend::kStdMap, c.options,
                                c.stem);
    ASSERT_GT(open.matrix.num_rows(), 0u);
    ASSERT_GT(open.terms.size(), 0u);
    for (int workers : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      parallel::ThreadPoolExecutor threads(workers);
      parallel::SimulatedExecutor simulated(workers,
                                            parallel::MachineModel::Default());
      for (parallel::Executor* exec :
           {static_cast<parallel::Executor*>(&threads),
            static_cast<parallel::Executor*>(&simulated)}) {
        SCOPED_TRACE(exec->name());
        const TfidfResult interned =
            Fit(exec, DictBackend::kInterned, c.options, c.stem);
        ExpectSameTfidf(interned, open);
        ExpectSameTfidf(interned, map);
      }
    }
  }
}

/// The interned count holds exactly the per-document count's vocabulary,
/// dfs, names, token total and per-document tables.
template <typename PerDoc>
void ExpectSameCounts(const InternedWordCount& interned, const PerDoc& open,
                      size_t num_docs) {
  ASSERT_EQ(interned.terms.size(), open.doc_freq.size());
  for (size_t v = 0; v < interned.terms.size(); ++v) {
    if (v > 0) {
      ASSERT_LT(interned.terms[v - 1], interned.terms[v]);
    }
    const TermStat* stat =
        open.doc_freq.Find(std::string_view(interned.terms[v]));
    ASSERT_NE(stat, nullptr) << interned.terms[v];
    EXPECT_EQ(interned.dfs[v], stat->df) << interned.terms[v];
  }
  EXPECT_EQ(interned.doc_names, open.doc_names);
  EXPECT_EQ(interned.total_tokens, open.total_tokens);
  // Every document's run holds exactly its per-document table.
  for (size_t d = 0; d < num_docs; ++d) {
    const DocRun& run = interned.docs[d];
    ASSERT_EQ(run.size, open.doc_tfs[d].size()) << "doc " << d;
    for (uint32_t k = 0; k < run.size; ++k) {
      const TermCount& t = interned.runs[run.worker][run.offset + k];
      const std::string& word =
          interned.terms[interned.remap[run.worker][t.id]];
      const uint32_t* tf = open.doc_tfs[d].Find(std::string_view(word));
      ASSERT_NE(tf, nullptr) << word;
      EXPECT_EQ(t.tf, *tf) << word;
    }
  }
}

TEST_F(InternedWordCountTest, WordCountAgreesWithPerDocumentTables) {
  parallel::ThreadPoolExecutor exec(4);
  io::PackedCorpusReader reader = Open();
  ExecContext ctx = Ctx(&exec, DictBackend::kInterned);
  auto interned = RunInternedWordCount(ctx, reader);
  ASSERT_TRUE(interned.ok()) << interned.status();
  auto open = RunWordCount<DictBackend::kOpenHash>(ctx, reader);
  ASSERT_TRUE(open.ok()) << open.status();
  ExpectSameCounts(*interned, *open, reader.size());
}

// Stemming rewrites a token after the scanner hashed it, so the interned
// count must key the stem by its own hash: keyed by the surface form's,
// "connected" and "connect" would intern "connect" twice.
TEST_F(InternedWordCountTest, StemmedCountMatchesStdMapCount) {
  Pack("stems.pack", {"connect connected connecting connection",
                      "Connections running runs RUN runner",
                      "",
                      "generalization generalizations general relational",
                      "runs connected hopeful hopefulness"});
  io::PackedCorpusReader reader = Open("stems.pack");
  parallel::SerialExecutor serial;
  ExecContext map_ctx = Ctx(&serial, DictBackend::kStdMap, /*stem=*/true);
  auto map = RunWordCount<DictBackend::kStdMap>(map_ctx, reader);
  ASSERT_TRUE(map.ok()) << map.status();
  ASSERT_NE(map->doc_freq.Find(std::string_view("connect")), nullptr);
  EXPECT_EQ(map->doc_freq.Find(std::string_view("connect"))->df, 3u);
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    parallel::ThreadPoolExecutor exec(workers);
    ExecContext ctx = Ctx(&exec, DictBackend::kInterned, /*stem=*/true);
    auto interned = RunInternedWordCount(ctx, reader);
    ASSERT_TRUE(interned.ok()) << interned.status();
    ExpectSameCounts(*interned, *map, reader.size());
  }
}

TEST_F(InternedWordCountTest, QuarantineMatchesUnderSeededReadFaults) {
  io::FaultProfile profile;
  profile.corruption_rate = 0.5;
  profile.permanent_rate = 0.05;
  profile.seed = 11;
  auto fit = [&](DictBackend backend) {
    parallel::ThreadPoolExecutor exec(4);
    io::PackedCorpusReader reader = Open();
    // Attach after Open so injection hits the CRC-protected reads.
    io::FaultInjector injector(profile);
    corpus_disk_->set_fault_injector(&injector);
    corpus_disk_->set_retry_policy(RetryPolicy{});
    ExecContext ctx = Ctx(&exec, backend);
    ctx.fault_policy = FaultPolicy::kRetryThenSkip;
    auto result = TfidfInMemory(ctx, reader, PrunedSublinear());
    corpus_disk_->set_fault_injector(nullptr);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  };
  const TfidfResult interned = fit(DictBackend::kInterned);
  EXPECT_FALSE(interned.quarantine.empty()) << "the fault rate must bite";
  ExpectSameTfidf(interned, fit(DictBackend::kOpenHash));
  ExpectSameTfidf(interned, fit(DictBackend::kStdMap));
}

TEST_F(InternedWordCountTest, FailFastReportsTheReadError) {
  io::FaultProfile profile;
  profile.permanent_rate = 0.2;
  profile.seed = 3;
  parallel::ThreadPoolExecutor exec(4);
  io::PackedCorpusReader reader = Open();
  io::FaultInjector injector(profile);
  corpus_disk_->set_fault_injector(&injector);
  ExecContext ctx = Ctx(&exec, DictBackend::kInterned);
  auto result = TfidfInMemory(ctx, reader);
  corpus_disk_->set_fault_injector(nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("word count"), std::string::npos)
      << result.status();
}

TEST_F(InternedWordCountTest, ArffBytesMatchSingleChannelAndSharded) {
  for (int channels : {1, 4}) {
    SCOPED_TRACE("channels " + std::to_string(channels));
    io::DiskOptions scratch_options;
    scratch_options.channels = channels;
    io::SimDisk scratch(scratch_options, dir_, nullptr);
    std::string bytes[2];
    int slot = 0;
    for (DictBackend backend :
         {DictBackend::kInterned, DictBackend::kOpenHash}) {
      parallel::ThreadPoolExecutor exec(3);
      io::PackedCorpusReader reader = Open();
      ExecContext ctx = Ctx(&exec, backend);
      ctx.scratch_disk = &scratch;
      const std::string base =
          "out_" + std::to_string(channels) + "_" + std::to_string(slot);
      ASSERT_TRUE(TfidfToArff(ctx, reader, base, PrunedSublinear()).ok());
      EXPECT_EQ(scratch.Exists(base + ".manifest"), channels > 1);
      bytes[slot++] = ArffBytes(&scratch, base);
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_TRUE(bytes[0] == bytes[1]) << "ARFF bytes differ";
  }
}

TEST_F(InternedWordCountTest, StreamedModelMatchesPerDocumentFit) {
  StreamingOptions sopts;
  sopts.window_bytes = 8192;
  auto fit = [&](DictBackend backend, int workers) {
    parallel::ThreadPoolExecutor exec(workers);
    io::PackedCorpusReader reader = Open();
    ExecContext ctx = Ctx(&exec, backend);
    auto model = StreamingTfidfFit(ctx, reader, PrunedSublinear(), sopts);
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(*model);
  };
  const StreamingTfidfModel open = fit(DictBackend::kOpenHash, 2);
  parallel::SerialExecutor serial;
  const TfidfResult in_memory =
      Fit(&serial, DictBackend::kInterned, PrunedSublinear());
  for (int workers : {1, 4}) {
    const StreamingTfidfModel interned = fit(DictBackend::kInterned, workers);
    EXPECT_EQ(interned.scorer.terms(), open.scorer.terms());
    EXPECT_EQ(interned.scorer.dfs(), open.scorer.dfs());
    EXPECT_EQ(interned.scorer.terms(), in_memory.terms);
    EXPECT_EQ(interned.doc_names, open.doc_names);
    EXPECT_EQ(interned.doc_failed, open.doc_failed);
    EXPECT_EQ(interned.total_tokens, open.total_tokens);
    ExpectSameQuarantine(interned.quarantine, open.quarantine);
  }
}

// A streaming fit keeps no per-document state: its footprint follows the
// vocabulary, so repeating the corpus leaves it unchanged.
TEST_F(InternedWordCountTest, StreamedFootprintFollowsTheVocabulary) {
  std::vector<std::string> bodies = {"alpha beta", "beta gamma delta",
                                     "alpha epsilon beta"};
  Pack("once.pack", bodies);
  for (int copy = 0; copy < 5; ++copy) {
    bodies.insert(bodies.end(), bodies.begin(), bodies.begin() + 3);
  }
  Pack("repeated.pack", bodies);
  parallel::SerialExecutor exec;
  StreamingOptions sopts;
  auto footprint = [&](const std::string& rel) {
    io::PackedCorpusReader reader = Open(rel);
    ExecContext ctx = Ctx(&exec, DictBackend::kInterned);
    auto model = StreamingTfidfFit(ctx, reader, {}, sopts);
    EXPECT_TRUE(model.ok()) << model.status();
    return model->dict_bytes;
  };
  EXPECT_GT(footprint("once.pack"), 0u);
  EXPECT_EQ(footprint("repeated.pack"), footprint("once.pack"));
}

TEST_F(InternedWordCountTest, EdgeCorpora) {
  Pack("empty_doc.pack", {"alpha beta", "", "beta gamma beta"});
  Pack("single.pack", {"solo word solo"});
  // Four blocks of documents with pairwise disjoint vocabularies, so
  // workers that own different blocks intern disjoint word sets.
  std::vector<std::string> blocks;
  for (int b = 0; b < 4; ++b) {
    for (int d = 0; d < 12; ++d) {
      std::string body;
      for (int w = 0; w <= d % 5; ++w) {
        body += "blk" + std::to_string(b) + "w" + std::to_string(w) + " ";
      }
      blocks.push_back(body);
    }
  }
  Pack("disjoint.pack", blocks);

  TfidfOptions all_pruned;
  all_pruned.min_df = 1000;
  struct Case {
    const char* rel;
    TfidfOptions options;
  };
  for (const Case& c : {Case{"empty_doc.pack", TfidfOptions{}},
                        Case{"single.pack", TfidfOptions{}},
                        Case{"disjoint.pack", TfidfOptions{}},
                        Case{"intern.pack", all_pruned}}) {
    SCOPED_TRACE(c.rel);
    parallel::SerialExecutor serial;
    const TfidfResult open =
        Fit(&serial, DictBackend::kOpenHash, c.options, false, c.rel);
    for (int workers : {1, 4}) {
      parallel::ThreadPoolExecutor exec(workers);
      ExpectSameTfidf(
          Fit(&exec, DictBackend::kInterned, c.options, false, c.rel), open);
    }
  }
  parallel::SerialExecutor serial;
  EXPECT_TRUE(
      Fit(&serial, DictBackend::kInterned, all_pruned).terms.empty());
  EXPECT_EQ(Fit(&serial, DictBackend::kInterned, {}, false, "empty_doc.pack")
                .matrix.rows[1]
                .nnz(),
            0u);
}

TEST(InternedVocabularyMergeTest, DisjointAndOverlappingWorkers) {
  // Hand-built worker vocabularies: worker 2 saw nothing, "b" is shared.
  std::vector<wc_internal::InternedWorker> workers(4);
  auto intern = [&](int w, const char* word, uint32_t df) {
    wc_internal::InternedWorker& worker = workers[static_cast<size_t>(w)];
    const uint32_t id = worker.vocab.Intern(word, text::TokenHash(word));
    worker.df.resize(worker.vocab.size());
    worker.df[id] += df;
  };
  intern(0, "d", 1);
  intern(0, "b", 2);
  intern(1, "c", 3);
  intern(1, "a", 1);
  intern(3, "e", 5);
  intern(3, "b", 4);
  parallel::ThreadPoolExecutor exec(4);
  ExecContext ctx;
  ctx.executor = &exec;
  InternedWordCount wc;
  wc_internal::MergeInternedVocabularies(ctx, workers, wc);
  EXPECT_EQ(wc.terms, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(wc.dfs, (std::vector<uint32_t>{1, 6, 3, 1, 5}));
  ASSERT_EQ(wc.remap.size(), 4u);
  EXPECT_EQ(wc.remap[0], (std::vector<uint32_t>{3, 1}));
  EXPECT_EQ(wc.remap[1], (std::vector<uint32_t>{2, 0}));
  EXPECT_TRUE(wc.remap[2].empty());
  EXPECT_EQ(wc.remap[3], (std::vector<uint32_t>{4, 1}));
}

// The merge sorts on an 8-byte prefix key before comparing whole words;
// the order must still be std::sort's, which compares bytes unsigned.
// Words share 8-byte prefixes, are shorter than 8 bytes (zero padding
// must not tie "ab" with "ab\0" in the wrong order), and carry bytes
// >= 0x80, spread over three workers with overlaps.
TEST(InternedVocabularyMergeTest, PrefixKeyedOrderMatchesStdSort) {
  std::vector<std::string> words = {
      "abcdefgh", "abcdefghi", "abcdefgha", "abcdefgh\x80", "abcdefgh\x01",
      "abcdefgg\xff", "a", "ab", std::string("ab\0", 3), "ab\x01",
      "\xc3\xa9t\xc3\xa9", "\xff", "\x80" "abcdefgh", "z",
      "zzzzzzzzzzzzzzzz", ""};
  Rng rng(5);
  const char alphabet[] = {'\x01', 'a', 'b', '\x7f', '\x80', '\xff'};
  for (int i = 0; i < 3000; ++i) {
    std::string word = rng.NextBounded(2) == 0 ? "prefix12" : "";
    const size_t extra = rng.NextBounded(12);
    for (size_t c = 0; c < extra; ++c) {
      word += alphabet[rng.NextBounded(sizeof(alphabet))];
    }
    words.push_back(std::move(word));
  }
  std::vector<wc_internal::InternedWorker> workers(3);
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t w = 0; w < workers.size(); ++w) {
      if ((i + w) % 2 == 0) continue;  // each word in one or two workers
      wc_internal::InternedWorker& worker = workers[w];
      const uint32_t id =
          worker.vocab.Intern(words[i], text::TokenHash(words[i]));
      worker.df.resize(worker.vocab.size());
      ++worker.df[id];
    }
  }
  parallel::SerialExecutor exec;
  ExecContext ctx;
  ctx.executor = &exec;
  InternedWordCount wc;
  wc_internal::MergeInternedVocabularies(ctx, workers, wc);

  std::vector<std::string> want = words;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(wc.terms, want);
  for (size_t w = 0; w < workers.size(); ++w) {
    workers[w].vocab.ForEach(
        [&](std::string_view word, uint64_t, uint32_t local) {
          ASSERT_EQ(wc.terms[wc.remap[w][local]], word);
        });
  }
}

// The footprint gate: on the NSF x0.05 profile the interned
// count's reported dictionary bytes are below the open-hash tables'.
TEST(InternedFootprintTest, DictBytesBelowOpenHashOnNsfProfile) {
  const text::Corpus corpus =
      text::SynthCorpusGenerator(
          text::CorpusProfile::NsfAbstracts().Scaled(0.05))
          .Generate();
  parallel::SerialExecutor exec;  // one core: ctest runs suites side by side
  ExecContext ctx;
  ctx.executor = &exec;
  const uint64_t interned =
      RunInternedWordCountInMemory(ctx, corpus).ApproxDictBytes();
  const uint64_t open =
      RunWordCountInMemory<DictBackend::kOpenHash>(ctx, corpus)
          .ApproxDictBytes();
  EXPECT_GT(interned, 0u);
  EXPECT_LT(interned, open);
}

// A run of `n` distinct ids below `limit` (plus `limit - 1` itself when
// n > 1, so the largest id's byte count sets the pass count), in random
// order, with random tfs.
std::vector<TermCount> RandomRun(size_t n, uint64_t limit, Rng& rng) {
  std::vector<uint32_t> ids;
  if (n > 1) ids.push_back(static_cast<uint32_t>(limit - 1));
  while (ids.size() < n) {
    ids.push_back(static_cast<uint32_t>(rng.NextBounded(limit)));
    if (ids.size() == n) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  Shuffle(ids, rng);
  std::vector<TermCount> run;
  for (uint32_t id : ids) {
    run.push_back(TermCount{id, 1 + static_cast<uint32_t>(rng.NextBounded(9))});
  }
  return run;
}

std::vector<TermCount> StdSorted(std::vector<TermCount> run) {
  std::sort(run.begin(), run.end(),
            [](const TermCount& a, const TermCount& b) { return a.id < b.id; });
  return run;
}

void ExpectSameRun(const std::vector<TermCount>& got,
                   const std::vector<TermCount>& want, size_t n) {
  ASSERT_EQ(got.size(), want.size()) << "length " << n;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "length " << n << " entry " << i;
    ASSERT_EQ(got[i].tf, want[i].tf) << "length " << n << " entry " << i;
  }
}

constexpr size_t kRunLengths[] = {0, 1, 2, 33, 300, 5000};

// The radix order over the whole id range: ids up to 2^32 - 2 make all
// four 8-bit passes run, smaller limits one, two and three.
TEST(RowOrderTest, RadixSortMatchesStdSortOverTheIdRange) {
  Rng rng(17);
  for (uint64_t limit : {200ull, 60000ull, 5000000ull, 0xFFFFFFFFull}) {
    for (size_t n : kRunLengths) {
      if (n > limit) continue;
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<TermCount> run = RandomRun(n, limit, rng);
        const std::vector<TermCount> want = StdSorted(run);
        tfidf_internal::SortRunById(run);
        ExpectSameRun(run, want, n);
      }
    }
  }
}

// BuildTfidfRow against a std::sort reference of the row formula: same
// run order, same ids, same value bits, with and without normalization and
// sublinear tf. Ids span three radix passes (the idf table bounds them).
TEST(RowOrderTest, BuildTfidfRowMatchesStdSortReference) {
  constexpr uint32_t kVocab = 1u << 17;
  Rng rng(23);
  std::vector<double> idf(kVocab);
  for (double& x : idf) x = 0.05 + 5.0 * rng.NextDouble();
  for (bool sublinear : {false, true}) {
    for (bool normalize : {true, false}) {
      TfidfOptions options;
      options.sublinear_tf = sublinear;
      options.normalize = normalize;
      for (size_t n : kRunLengths) {
        std::vector<TermCount> run = RandomRun(n, kVocab, rng);
        const std::vector<TermCount> sorted = StdSorted(run);
        containers::SparseVector want;
        for (const TermCount& t : sorted) {
          const double tf = static_cast<double>(t.tf);
          const double weight = sublinear ? 1.0 + std::log(tf) : tf;
          want.PushBack(t.id, static_cast<float>(weight * idf[t.id]));
        }
        if (normalize) want.NormalizeL2();

        containers::SparseVector got;
        tfidf_internal::BuildTfidfRow(run, idf, options, got);
        ExpectSameRun(run, sorted, n);
        ASSERT_EQ(got.ids(), want.ids()) << "length " << n;
        for (size_t i = 0; i < want.nnz(); ++i) {
          const float gv = got.value_at(i);
          const float wv = want.value_at(i);
          ASSERT_EQ(std::memcmp(&gv, &wv, sizeof(float)), 0)
              << "length " << n << " entry " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hpa::ops
