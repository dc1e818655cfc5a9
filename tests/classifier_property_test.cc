// Differential / property tests for the classifier family: Naive Bayes
// and k-NN are checked against deliberately-naive single-threaded
// reference implementations written in this file. The production models
// must be *bit-identical* — model parameters and predictions — to those
// references and to themselves across worker counts {1, 2, 4, 8}, merge
// schedules (serial fold / nested tree), and real threads, because NB
// sums its sufficient statistics in fixed-point int64 and k-NN keeps a
// totally-ordered neighbor set. Tie-breaking (document-id order,
// lowest class id) and the degenerate shapes (k >= n, single-label
// corpus, all-zero query) get dedicated cases.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "containers/sparse_matrix.h"
#include "containers/sparse_vector.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "ops/knn.h"
#include "ops/naive_bayes.h"
#include "ops/tfidf.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa {
namespace {

// ---------------------------------------------------------------------------
// Naive references. Single-threaded, index-by-index, no shared kernels
// beyond the two pure functions the determinism contract names: the
// fixed-point quantizer (NB statistics) and the double-accumulating dot
// products (score evaluation). Everything else — class vocabulary, the
// usable-row rule, smoothing, neighbor selection, voting — is re-derived
// from the definitions so a structural bug in the production code cannot
// hide in a shared helper.
// ---------------------------------------------------------------------------

bool UsableRow(const containers::SparseMatrix& matrix,
               const std::vector<std::string>& labels, size_t i) {
  return !labels[i].empty() && !matrix.rows[i].empty();
}

std::vector<std::string> SortedUniqueLabels(
    const containers::SparseMatrix& matrix,
    const std::vector<std::string>& labels) {
  std::vector<std::string> out;
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    if (UsableRow(matrix, labels, i)) out.push_back(labels[i]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint32_t ClassOf(const std::vector<std::string>& classes,
                 const std::string& label) {
  auto it = std::lower_bound(classes.begin(), classes.end(), label);
  return static_cast<uint32_t>(it - classes.begin());
}

/// Reference NB trainer: one pass, plain int64 counters, then the exact
/// finalize formulas from the model definition:
///   prior(c)  = log(docs_c / docs_total)
///   loglik(c,t) = log(mass[c][t] + alpha·2^24)
///               − log(Σ_t mass[c][t] + alpha·2^24·V)
/// where mass is the quantized feature mass NbQuantize defines.
ops::NaiveBayesModel NaiveNbTrain(const containers::SparseMatrix& matrix,
                                  const std::vector<std::string>& labels,
                                  double alpha) {
  ops::NaiveBayesModel model;
  model.labels = SortedUniqueLabels(matrix, labels);
  model.num_features = matrix.num_cols;
  const size_t num_classes = model.labels.size();
  const uint32_t dim = matrix.num_cols;

  std::vector<std::vector<int64_t>> mass(num_classes,
                                         std::vector<int64_t>(dim, 0));
  std::vector<uint64_t> doc_counts(num_classes, 0);
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    if (!UsableRow(matrix, labels, i)) {
      ++model.documents_skipped;
      continue;
    }
    uint32_t c = ClassOf(model.labels, labels[i]);
    ++doc_counts[c];
    const containers::SparseVector& row = matrix.rows[i];
    for (size_t e = 0; e < row.nnz(); ++e) {
      mass[c][row.id_at(e)] += ops::NbQuantize(row.value_at(e));
    }
  }
  uint64_t trained = 0;
  for (uint64_t dc : doc_counts) trained += dc;
  model.documents_trained = trained;

  const double alpha_q = alpha * ops::kNbFixedPointScale;
  model.class_log_prior.resize(num_classes);
  model.feature_log_prob.assign(num_classes, std::vector<float>(dim, 0.0f));
  for (size_t c = 0; c < num_classes; ++c) {
    model.class_log_prior[c] =
        std::log(static_cast<double>(doc_counts[c]) /
                 static_cast<double>(trained));
    int64_t class_total = 0;
    for (uint32_t d = 0; d < dim; ++d) class_total += mass[c][d];
    const double denom = std::log(static_cast<double>(class_total) +
                                  alpha_q * static_cast<double>(dim));
    for (uint32_t d = 0; d < dim; ++d) {
      model.feature_log_prob[c][d] = static_cast<float>(
          std::log(static_cast<double>(mass[c][d]) + alpha_q) - denom);
    }
  }
  return model;
}

/// Reference NB prediction: evaluate every class score with the shared
/// sparse-dense dot, strict argmax (first class wins exact ties).
uint32_t NaiveNbPredict(const ops::NaiveBayesModel& model,
                        const containers::SparseVector& row) {
  uint32_t best = 0;
  double best_score = 0.0;
  for (size_t c = 0; c < model.num_classes(); ++c) {
    double s = model.class_log_prior[c] + Dot(row, model.feature_log_prob[c]);
    if (c == 0 || s > best_score) {
      best = static_cast<uint32_t>(c);
      best_score = s;
    }
  }
  return best;
}

/// Reference k-NN "model": the compacted usable rows, naive edition.
struct NaiveKnn {
  std::vector<std::string> labels;
  std::vector<containers::SparseVector> rows;
  std::vector<uint32_t> row_class;
  uint64_t skipped = 0;
};

NaiveKnn NaiveKnnTrain(const containers::SparseMatrix& matrix,
                       const std::vector<std::string>& labels) {
  NaiveKnn model;
  model.labels = SortedUniqueLabels(matrix, labels);
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    if (!UsableRow(matrix, labels, i)) {
      ++model.skipped;
      continue;
    }
    model.rows.push_back(matrix.rows[i]);
    model.row_class.push_back(ClassOf(model.labels, labels[i]));
  }
  return model;
}

/// Reference k-NN prediction: score EVERY training row, fully sort by
/// (distance, row) — the total order the production heap is claimed to
/// realize — take the first min(k, n), majority vote, ties to the lowest
/// class id.
uint32_t NaiveKnnPredict(const NaiveKnn& model,
                         const containers::SparseVector& q, int k) {
  const double q_sq = q.SquaredL2Norm();
  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(model.rows.size());
  for (size_t t = 0; t < model.rows.size(); ++t) {
    double d = q_sq - 2.0 * Dot(q, model.rows[t]) +
               model.rows[t].SquaredL2Norm();
    scored.emplace_back(d, static_cast<uint32_t>(t));
  }
  std::sort(scored.begin(), scored.end());
  const size_t kept = std::min<size_t>(static_cast<size_t>(k), scored.size());
  std::vector<uint32_t> votes(model.labels.size(), 0);
  for (size_t i = 0; i < kept; ++i) ++votes[model.row_class[scored[i].second]];
  uint32_t best = 0;
  for (uint32_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Fixture: one labeled synthetic corpus per seed, featurized once (TF/IDF
// is already proven worker-invariant by its own property tests), so every
// classifier case below starts from the same matrix + row labels.
// ---------------------------------------------------------------------------

struct LabeledData {
  containers::SparseMatrix matrix;
  std::vector<std::string> labels;  // labels[i] labels row i
};

class ClassifierPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_classifier_prop_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  LabeledData MakeLabeledData(uint64_t seed, int num_classes) {
    io::SimDisk disk(io::DiskOptions::CorpusStore(), dir_, nullptr);
    text::CorpusProfile profile;
    profile.name = "clsprop";
    profile.seed = seed;
    profile.num_documents = 70 + seed % 30;
    profile.target_bytes = 40000;
    profile.target_distinct_words = 350 + seed % 200;
    text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
    text::AssignSyntheticLabels(&corpus, num_classes, seed);
    std::string pack = "s" + std::to_string(seed) + ".pack";
    EXPECT_TRUE(text::WriteCorpusPacked(corpus, &disk, pack).ok());
    auto reader = io::PackedCorpusReader::Open(&disk, pack);
    EXPECT_TRUE(reader.ok());
    EXPECT_TRUE(reader->has_labels());

    parallel::SimulatedExecutor exec(1, parallel::MachineModel::Default());
    ops::ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = &disk;
    auto tfidf = ops::TfidfInMemory(ctx, *reader);
    EXPECT_TRUE(tfidf.ok());

    LabeledData data;
    data.matrix = std::move(tfidf->matrix);
    data.labels.reserve(reader->size());
    for (size_t i = 0; i < reader->size(); ++i) {
      data.labels.push_back(reader->label(i));
    }
    return data;
  }

  std::string dir_;
};

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

/// The two merge schedules TrainNaiveBayes can run under.
struct MergeSchedule {
  bool serial_merge;
  const char* name;
};
constexpr MergeSchedule kSchedules[] = {
    {true, "serial"},
    {false, "nested-tree"},
};

// ---------------------------------------------------------------------------
// Naive Bayes: the trained model — every prior bit, every likelihood bit,
// every counter — equals the naive single-threaded reference at all
// worker counts and merge schedules, and predictions follow.
// ---------------------------------------------------------------------------

TEST_P(ClassifierPropertyTest, NbModelBitIdenticalToNaiveReference) {
  LabeledData data = MakeLabeledData(GetParam(), /*num_classes=*/3);
  ops::NaiveBayesOptions opts;
  opts.alpha = 1.0;
  ops::NaiveBayesModel reference =
      NaiveNbTrain(data.matrix, data.labels, opts.alpha);
  ASSERT_EQ(reference.num_classes(), 3u);
  std::vector<uint32_t> reference_pred(data.matrix.num_rows());
  for (size_t i = 0; i < data.matrix.num_rows(); ++i) {
    reference_pred[i] = NaiveNbPredict(reference, data.matrix.rows[i]);
  }

  for (int w : kWorkerCounts) {
    for (const MergeSchedule& sched : kSchedules) {
      SCOPED_TRACE(std::string("workers ") + std::to_string(w) + " merge " +
                   sched.name);
      parallel::SimulatedExecutor exec(w, parallel::MachineModel::Default());
      ops::ExecContext ctx;
      ctx.executor = &exec;
      ctx.serial_merge = sched.serial_merge;
      auto model = ops::TrainNaiveBayes(ctx, data.matrix, data.labels, opts);
      ASSERT_TRUE(model.ok()) << model.status();
      EXPECT_TRUE(*model == reference);
      EXPECT_EQ(ops::PredictNaiveBayes(ctx, *model, data.matrix),
                reference_pred);
    }
  }

  // Same bits under real threads (the TSan twin hammers this path).
  parallel::ThreadPoolExecutor threads(3);
  ops::ExecContext tctx;
  tctx.executor = &threads;
  auto threaded = ops::TrainNaiveBayes(tctx, data.matrix, data.labels, opts);
  ASSERT_TRUE(threaded.ok());
  EXPECT_TRUE(*threaded == reference);
  EXPECT_EQ(ops::PredictNaiveBayes(tctx, *threaded, data.matrix),
            reference_pred);
}

// ---------------------------------------------------------------------------
// k-NN: predictions equal the full-sort naive reference at every k —
// including k far beyond the training-row count — and are invariant to
// the worker count.
// ---------------------------------------------------------------------------

TEST_P(ClassifierPropertyTest, KnnMatchesNaiveReferenceAtEveryK) {
  LabeledData data = MakeLabeledData(GetParam(), /*num_classes=*/4);
  NaiveKnn naive = NaiveKnnTrain(data.matrix, data.labels);
  const int n = static_cast<int>(naive.rows.size());
  ASSERT_GT(n, 0);

  for (int k : {1, 3, 5, n + 10}) {
    SCOPED_TRACE("k " + std::to_string(k));
    std::vector<uint32_t> reference_pred(data.matrix.num_rows());
    for (size_t i = 0; i < data.matrix.num_rows(); ++i) {
      reference_pred[i] = NaiveKnnPredict(naive, data.matrix.rows[i], k);
    }
    ops::KnnOptions opts;
    opts.k = k;
    for (int w : kWorkerCounts) {
      SCOPED_TRACE("workers " + std::to_string(w));
      parallel::SimulatedExecutor exec(w, parallel::MachineModel::Default());
      ops::ExecContext ctx;
      ctx.executor = &exec;
      auto model = ops::TrainKnn(ctx, data.matrix, data.labels, opts);
      ASSERT_TRUE(model.ok()) << model.status();
      EXPECT_EQ(model->labels, naive.labels);
      EXPECT_EQ(model->row_class, naive.row_class);
      EXPECT_EQ(model->documents_skipped, naive.skipped);
      EXPECT_EQ(ops::PredictKnn(ctx, *model, data.matrix), reference_pred);
    }
    // Real threads, same bits.
    parallel::ThreadPoolExecutor threads(3);
    ops::ExecContext tctx;
    tctx.executor = &threads;
    auto model = ops::TrainKnn(tctx, data.matrix, data.labels, opts);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(ops::PredictKnn(tctx, *model, data.matrix), reference_pred);
  }
}

// ---------------------------------------------------------------------------
// The usable-row rule: rows that lose their label or their features
// (exactly what upstream quarantine leaves behind — an empty row at the
// original index) drop out of training identically everywhere, and the
// skip counters agree with the reference.
// ---------------------------------------------------------------------------

TEST_P(ClassifierPropertyTest, SkippedRowsDropOutConsistently) {
  LabeledData data = MakeLabeledData(GetParam(), /*num_classes=*/3);
  // Deterministically blank ~10% of labels and empty ~10% of rows — the
  // post-quarantine shape (empty row, original index preserved).
  Rng rng(GetParam() ^ 0xC1A55);
  for (size_t i = 0; i < data.matrix.num_rows(); ++i) {
    if (rng.NextBounded(10) == 0) data.labels[i].clear();
    if (rng.NextBounded(10) == 0) {
      data.matrix.rows[i] = containers::SparseVector();
    }
  }
  ops::NaiveBayesModel nb_ref = NaiveNbTrain(data.matrix, data.labels, 1.0);
  NaiveKnn knn_ref = NaiveKnnTrain(data.matrix, data.labels);
  ASSERT_GT(nb_ref.documents_skipped, 0u);
  EXPECT_EQ(nb_ref.documents_skipped, knn_ref.skipped);

  for (int w : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(w));
    parallel::SimulatedExecutor exec(w, parallel::MachineModel::Default());
    ops::ExecContext ctx;
    ctx.executor = &exec;
    auto nb = ops::TrainNaiveBayes(ctx, data.matrix, data.labels, {});
    ASSERT_TRUE(nb.ok());
    EXPECT_TRUE(*nb == nb_ref);
    auto knn = ops::TrainKnn(ctx, data.matrix, data.labels, {});
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(knn->documents_skipped, knn_ref.skipped);
    EXPECT_EQ(knn->num_training_rows(), knn_ref.rows.size());
  }
}

// ---------------------------------------------------------------------------
// Serialization: the text artifacts round-trip to bit-equal models (the
// guarantee the registry and checkpoint layers lean on).
// ---------------------------------------------------------------------------

TEST_P(ClassifierPropertyTest, SerializationRoundTripsBitExactly) {
  LabeledData data = MakeLabeledData(GetParam(), /*num_classes=*/3);
  parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
  ops::ExecContext ctx;
  ctx.executor = &exec;

  auto nb = ops::TrainNaiveBayes(ctx, data.matrix, data.labels, {});
  ASSERT_TRUE(nb.ok());
  auto nb2 = ops::ParseNaiveBayesModel(ops::SerializeNaiveBayesModel(*nb),
                                       "rt.nb");
  ASSERT_TRUE(nb2.ok()) << nb2.status();
  EXPECT_TRUE(*nb2 == *nb);

  auto knn = ops::TrainKnn(ctx, data.matrix, data.labels, {});
  ASSERT_TRUE(knn.ok());
  auto knn2 = ops::ParseKnnModel(ops::SerializeKnnModel(*knn), "rt.knn");
  ASSERT_TRUE(knn2.ok()) << knn2.status();
  EXPECT_TRUE(*knn2 == *knn);
  EXPECT_EQ(knn2->row_sq, knn->row_sq);
  EXPECT_EQ(ops::PredictKnn(ctx, *knn2, data.matrix),
            ops::PredictKnn(ctx, *knn, data.matrix));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierPropertyTest,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull));

// ---------------------------------------------------------------------------
// Hand-built tie-breaking and degenerate-shape cases (no corpus needed).
// ---------------------------------------------------------------------------

containers::SparseVector Vec(
    std::vector<std::pair<uint32_t, float>> entries) {
  return containers::SparseVector::FromPairs(std::move(entries));
}

ops::ExecContext SerialCtx(parallel::SerialExecutor& exec) {
  ops::ExecContext ctx;
  ctx.executor = &exec;
  return ctx;
}

TEST(ClassifierEdgeTest, KnnNeighborTiesBreakToLowerDocumentId) {
  // Four IDENTICAL training rows: every distance to the query ties, so
  // the kept set is decided purely by the (distance, row) order — the
  // lowest row ids. Labels: rows 0,3 = "a" (class 0), rows 1,2 = "b"
  // (class 1).
  containers::SparseMatrix m;
  m.num_cols = 4;
  for (int i = 0; i < 4; ++i) m.rows.push_back(Vec({{0, 0.5f}, {2, 0.5f}}));
  std::vector<std::string> labels = {"a", "b", "b", "a"};
  parallel::SerialExecutor exec;
  ops::ExecContext ctx = SerialCtx(exec);

  // k=2 keeps rows {0, 1}: one vote each, vote tie -> lowest class id
  // ("a" = 0).
  ops::KnnOptions k2;
  k2.k = 2;
  auto model2 = ops::TrainKnn(ctx, m, labels, k2);
  ASSERT_TRUE(model2.ok());
  std::vector<ops::KnnNeighbor> scratch;
  EXPECT_EQ(ops::PredictKnnRow(*model2, m.rows[0], scratch), 0u);
  EXPECT_EQ(scratch.size(), 2u);
  std::vector<uint32_t> kept;
  for (const ops::KnnNeighbor& nb : scratch) kept.push_back(nb.row);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<uint32_t>{0u, 1u}));

  // k=3 keeps rows {0, 1, 2}: "b" outvotes "a" 2-1.
  ops::KnnOptions k3;
  k3.k = 3;
  auto model3 = ops::TrainKnn(ctx, m, labels, k3);
  ASSERT_TRUE(model3.ok());
  EXPECT_EQ(ops::PredictKnnRow(*model3, m.rows[0], scratch), 1u);

  // The naive reference agrees on both.
  NaiveKnn naive = NaiveKnnTrain(m, labels);
  EXPECT_EQ(NaiveKnnPredict(naive, m.rows[0], 2), 0u);
  EXPECT_EQ(NaiveKnnPredict(naive, m.rows[0], 3), 1u);
}

TEST(ClassifierEdgeTest, KnnKBeyondRowCountKeepsEveryRow) {
  containers::SparseMatrix m;
  m.num_cols = 3;
  m.rows.push_back(Vec({{0, 1.0f}}));
  m.rows.push_back(Vec({{1, 1.0f}}));
  m.rows.push_back(Vec({{1, 0.9f}, {2, 0.1f}}));
  std::vector<std::string> labels = {"x", "y", "y"};
  parallel::SerialExecutor exec;
  ops::ExecContext ctx = SerialCtx(exec);
  ops::KnnOptions opts;
  opts.k = 50;  // k >> n: the vote is over ALL rows -> majority "y".
  auto model = ops::TrainKnn(ctx, m, labels, opts);
  ASSERT_TRUE(model.ok());
  std::vector<ops::KnnNeighbor> scratch;
  EXPECT_EQ(ops::PredictKnnRow(*model, m.rows[0], scratch), 1u);
  EXPECT_EQ(scratch.size(), 3u);
  NaiveKnn naive = NaiveKnnTrain(m, labels);
  EXPECT_EQ(NaiveKnnPredict(naive, m.rows[0], 50), 1u);
}

TEST(ClassifierEdgeTest, AllZeroQueryDegeneratesGracefully) {
  containers::SparseMatrix m;
  m.num_cols = 2;
  m.rows.push_back(Vec({{0, 0.6f}}));   // ||t||² = 0.36, class "a"
  m.rows.push_back(Vec({{1, 1.0f}}));   // ||t||² = 1.0,  class "b"
  m.rows.push_back(Vec({{1, 0.8f}}));   // ||t||² = 0.64, class "b"
  std::vector<std::string> labels = {"a", "b", "b"};
  parallel::SerialExecutor exec;
  ops::ExecContext ctx = SerialCtx(exec);
  containers::SparseVector zero;

  // k-NN: a zero query ranks rows by ||t||² alone -> rows {0, 2} for k=2
  // -> vote tie -> class 0 ("a").
  ops::KnnOptions opts;
  opts.k = 2;
  auto knn = ops::TrainKnn(ctx, m, labels, opts);
  ASSERT_TRUE(knn.ok());
  std::vector<ops::KnnNeighbor> scratch;
  EXPECT_EQ(ops::PredictKnnRow(*knn, zero, scratch), 0u);
  NaiveKnn naive = NaiveKnnTrain(m, labels);
  EXPECT_EQ(NaiveKnnPredict(naive, zero, 2), 0u);

  // NB: a zero row scores prior-only -> the majority class ("b" = 1).
  auto nb = ops::TrainNaiveBayes(ctx, m, labels, {});
  ASSERT_TRUE(nb.ok());
  EXPECT_EQ(nb->Predict(zero), 1u);
  EXPECT_EQ(NaiveNbPredict(*nb, zero), 1u);
}

TEST(ClassifierEdgeTest, SingleLabelCorpusHasOneClass) {
  containers::SparseMatrix m;
  m.num_cols = 2;
  m.rows.push_back(Vec({{0, 1.0f}}));
  m.rows.push_back(Vec({{1, 1.0f}}));
  std::vector<std::string> labels = {"only", "only"};
  parallel::SerialExecutor exec;
  ops::ExecContext ctx = SerialCtx(exec);

  auto nb = ops::TrainNaiveBayes(ctx, m, labels, {});
  ASSERT_TRUE(nb.ok());
  ASSERT_EQ(nb->num_classes(), 1u);
  EXPECT_EQ(nb->class_log_prior[0], 0.0);  // log(2/2)
  EXPECT_EQ(nb->Predict(m.rows[0]), 0u);
  EXPECT_EQ(nb->Predict(m.rows[1]), 0u);

  auto knn = ops::TrainKnn(ctx, m, labels, {});
  ASSERT_TRUE(knn.ok());
  std::vector<ops::KnnNeighbor> scratch;
  EXPECT_EQ(ops::PredictKnnRow(*knn, m.rows[0], scratch), 0u);
  EXPECT_EQ(ops::PredictKnnRow(*knn, m.rows[1], scratch), 0u);
}

TEST(ClassifierEdgeTest, InvalidInputsAreRejected) {
  containers::SparseMatrix m;
  m.num_cols = 2;
  m.rows.push_back(Vec({{0, 1.0f}}));
  parallel::SerialExecutor exec;
  ops::ExecContext ctx = SerialCtx(exec);

  // Label count mismatch.
  std::vector<std::string> two = {"a", "b"};
  EXPECT_EQ(ops::TrainNaiveBayes(ctx, m, two, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ops::TrainKnn(ctx, m, two, {}).status().code(),
            StatusCode::kInvalidArgument);

  // No usable labeled row.
  std::vector<std::string> unlabeled = {""};
  EXPECT_EQ(ops::TrainNaiveBayes(ctx, m, unlabeled, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ops::TrainKnn(ctx, m, unlabeled, {}).status().code(),
            StatusCode::kInvalidArgument);

  // Bad hyperparameters.
  std::vector<std::string> one = {"a"};
  ops::NaiveBayesOptions bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_EQ(ops::TrainNaiveBayes(ctx, m, one, bad_alpha).status().code(),
            StatusCode::kInvalidArgument);
  ops::KnnOptions bad_k;
  bad_k.k = 0;
  EXPECT_EQ(ops::TrainKnn(ctx, m, one, bad_k).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hpa
