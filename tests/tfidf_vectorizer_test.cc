#include "ops/tfidf_vectorizer.h"

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "parallel/executor.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa::ops {
namespace {

class TfidfVectorizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_vectorizer_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    disk_ = std::make_unique<io::SimDisk>(io::DiskOptions::CorpusStore(),
                                          dir_, nullptr);

    text::Corpus corpus;
    corpus.name = "train";
    corpus.docs = {
        {"d0", "apple banana apple"},
        {"d1", "banana cherry"},
        {"d2", "apple"},
    };
    ASSERT_TRUE(text::WriteCorpusPacked(corpus, disk_.get(), "t.pack").ok());
    auto reader = io::PackedCorpusReader::Open(disk_.get(), "t.pack");
    ASSERT_TRUE(reader.ok());
    ExecContext ctx;
    ctx.executor = &exec_;
    ctx.corpus_disk = disk_.get();
    auto fitted = TfidfInMemory(ctx, *reader);
    ASSERT_TRUE(fitted.ok());
    fitted_ = std::make_unique<TfidfResult>(std::move(fitted).value());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  std::string dir_;
  std::unique_ptr<io::SimDisk> disk_;
  parallel::SerialExecutor exec_;
  std::unique_ptr<TfidfResult> fitted_;
};

TEST_F(TfidfVectorizerTest, FittedResultCarriesDfs) {
  // apple df=2, banana df=2, cherry df=1 (sorted term order).
  ASSERT_EQ(fitted_->term_dfs.size(), 3u);
  EXPECT_EQ(fitted_->term_dfs[0], 2u);
  EXPECT_EQ(fitted_->term_dfs[1], 2u);
  EXPECT_EQ(fitted_->term_dfs[2], 1u);
  EXPECT_EQ(fitted_->num_documents(), 3u);
}

TEST_F(TfidfVectorizerTest, ScoringTrainingDocReproducesItsRow) {
  TfidfVectorizer vectorizer(*fitted_);
  containers::SparseVector scored = vectorizer.Score("apple banana apple");
  const containers::SparseVector& row = fitted_->matrix.rows[0];
  ASSERT_EQ(scored.nnz(), row.nnz());
  for (size_t i = 0; i < row.nnz(); ++i) {
    EXPECT_EQ(scored.id_at(i), row.id_at(i));
    EXPECT_NEAR(scored.value_at(i), row.value_at(i), 1e-6);
  }
}

TEST_F(TfidfVectorizerTest, UnknownWordsAreIgnored) {
  TfidfVectorizer vectorizer(*fitted_);
  containers::SparseVector scored =
      vectorizer.Score("apple zebra quokka banana");
  EXPECT_EQ(scored.nnz(), 2u);  // apple + banana only
  containers::SparseVector nothing = vectorizer.Score("zebra quokka");
  EXPECT_TRUE(nothing.empty());
}

TEST_F(TfidfVectorizerTest, SaveLoadRoundTrip) {
  TfidfVectorizer original(*fitted_);
  ASSERT_TRUE(original.Save(disk_.get(), "model.txt").ok());

  auto loaded = TfidfVectorizer::Load(disk_.get(), "model.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->vocabulary_size(), original.vocabulary_size());
  EXPECT_EQ(loaded->num_training_documents(),
            original.num_training_documents());

  containers::SparseVector a = original.Score("banana cherry cherry");
  containers::SparseVector b = loaded->Score("banana cherry cherry");
  EXPECT_TRUE(a == b);
}

TEST_F(TfidfVectorizerTest, LoadRejectsCorruptModels) {
  ASSERT_TRUE(disk_->WriteFile("bad1.txt", "not a model\n").ok());
  EXPECT_EQ(TfidfVectorizer::Load(disk_.get(), "bad1.txt").status().code(),
            StatusCode::kCorruption);

  ASSERT_TRUE(disk_->WriteFile("bad2.txt",
                               "hpa-tfidf-model v1\ndocuments 3\nterms 2\n"
                               "apple 2\n")  // one term missing
                  .ok());
  EXPECT_FALSE(TfidfVectorizer::Load(disk_.get(), "bad2.txt").ok());

  ASSERT_TRUE(disk_->WriteFile("bad3.txt",
                               "hpa-tfidf-model v1\ndocuments 3\nterms 1\n"
                               "apple 99\n")  // df > documents
                  .ok());
  EXPECT_FALSE(TfidfVectorizer::Load(disk_.get(), "bad3.txt").ok());
}

TEST_F(TfidfVectorizerTest, NearestCentroidClassifiesNewDocuments) {
  // Cluster the training matrix, then classify fresh text.
  ExecContext ctx;
  ctx.executor = &exec_;
  KMeansOptions kopts;
  kopts.k = 2;
  kopts.max_iterations = 20;
  auto clusters = SparseKMeans(ctx, fitted_->matrix, kopts);
  ASSERT_TRUE(clusters.ok());

  TfidfVectorizer vectorizer(*fitted_);
  // A new apple-heavy document should land with the apple training docs.
  containers::SparseVector fresh = vectorizer.Score("apple apple apple");
  double distance = 0.0;
  int cluster = NearestCentroid(fresh, fresh.SquaredL2Norm(),
                                clusters->centroids,
                                CentroidSquaredNorms(clusters->centroids),
                                &distance);
  EXPECT_EQ(static_cast<uint32_t>(cluster),
            clusters->assignment[2]);  // d2 = "apple"
}

TEST_F(TfidfVectorizerTest, SublinearOptionAppliesAtScoringTime) {
  TfidfOptions opts;
  opts.sublinear_tf = true;
  opts.normalize = false;
  TfidfVectorizer vectorizer(*fitted_, opts);
  containers::SparseVector one = vectorizer.Score("cherry");
  containers::SparseVector many = vectorizer.Score("cherry cherry cherry");
  // Sublinear: tripling tf multiplies the score by (1+ln3), not 3.
  EXPECT_NEAR(many.value_at(0) / one.value_at(0), 1.0 + std::log(3.0),
              1e-5);
}

// The shared scorer against the materialized transform's rows, bit for
// bit, for every document of a synthetic corpus, over both the interned
// and the per-document (open-hash) counts: pruned terms (min_df / max_df)
// must vanish from both, sublinear weights and the L2 normalize must round
// identically, and stemming must map tokens onto the same vocabulary.
TEST(TfidfVectorizerRowTest, ScoreEqualsBuildScoreRowForEveryDocument) {
  auto dir = io::MakeTempDir("hpa_vectorizer_rows_");
  ASSERT_TRUE(dir.ok());
  io::SimDisk disk(io::DiskOptions::CorpusStore(), *dir, nullptr);
  text::CorpusProfile profile;
  profile.name = "rows";
  profile.num_documents = 120;
  profile.target_bytes = 90000;
  profile.target_distinct_words = 700;
  text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
  ASSERT_TRUE(text::WriteCorpusPacked(corpus, &disk, "rows.pack").ok());
  auto reader = io::PackedCorpusReader::Open(&disk, "rows.pack");
  ASSERT_TRUE(reader.ok());

  TfidfOptions pruned;
  pruned.min_df = 2;
  pruned.max_df_ratio = 0.5;
  pruned.sublinear_tf = true;
  struct Case {
    const char* name;
    TfidfOptions options;
    bool stem;
  };
  for (containers::DictBackend backend :
       {containers::DictBackend::kInterned,
        containers::DictBackend::kOpenHash}) {
    for (const Case& c : {Case{"default", TfidfOptions{}, false},
                          Case{"pruned+sublinear", pruned, false},
                          Case{"stemmed", TfidfOptions{}, true}}) {
      SCOPED_TRACE(std::string(containers::DictBackendName(backend)) + " " +
                   c.name);
      parallel::SerialExecutor exec;
      ExecContext ctx;
      ctx.executor = &exec;
      ctx.corpus_disk = &disk;
      ctx.dict_backend = backend;
      ctx.stem_tokens = c.stem;
      auto tfidf = TfidfInMemory(ctx, *reader, c.options);
      ASSERT_TRUE(tfidf.ok()) << tfidf.status();
      if (c.options.min_df > 1) {
        auto wc = RunInternedWordCount(ctx, *reader);
        ASSERT_TRUE(wc.ok()) << wc.status();
        EXPECT_LT(tfidf->terms.size(), wc->terms.size());  // really prunes
      }
      TfidfVectorizer scorer(tfidf->terms, tfidf->term_dfs,
                             tfidf->num_documents(), c.options);

      containers::SparseVector got;
      TfidfVectorizer::Scratch scratch;
      for (size_t i = 0; i < reader->size(); ++i) {
        auto body = reader->ReadBody(i);
        ASSERT_TRUE(body.ok());
        const containers::SparseVector& want = tfidf->matrix.rows[i];
        scorer.Score(*body, ctx.tokenizer, ctx.stem_tokens, scratch, got);
        ASSERT_EQ(got.nnz(), want.nnz()) << "doc " << i;
        for (size_t t = 0; t < want.nnz(); ++t) {
          ASSERT_EQ(got.id_at(t), want.id_at(t)) << "doc " << i;
          uint32_t got_bits = 0;
          uint32_t want_bits = 0;
          const float got_value = got.value_at(t);
          const float want_value = want.value_at(t);
          std::memcpy(&got_bits, &got_value, sizeof(float));
          std::memcpy(&want_bits, &want_value, sizeof(float));
          ASSERT_EQ(got_bits, want_bits) << "doc " << i << " term " << t;
        }
      }
      // The recycled scratch leaves no counts behind.
      for (uint32_t pos : scratch.counts.pos) ASSERT_EQ(pos, 0u);
    }
  }
  io::RemoveDirRecursive(*dir);
}

}  // namespace
}  // namespace hpa::ops
