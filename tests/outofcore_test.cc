// Out-of-core pipeline tests: the semi-external TF/IDF → K-means pass
// over bounded corpus windows (ops/streaming.h, io/corpus_window.h).
//
// The headline bar is *bit-identity*: streaming assignments, centroids,
// and inertia_history must equal the in-memory SparseKMeans-over-
// TfidfInMemory results exactly, at every worker count and window size —
// including degenerate windows (smaller than one document, larger than
// the corpus) — both when K-means spills its pass-0 rows to the scratch
// disk and when it re-scores every window. The rest of the suite covers the
// failure surface: a deterministic mid-stream crash hook, corrupted-window
// quarantine under retry-skip, corrupt or truncated spill segments (re-
// scored, never trusted), spill-file cleanup, workflow-level crash/resume
// with a streamed plan, plan-file round-trips of the stream/window keys,
// and the optimizer's materialize→stream flip under a memory ceiling.

#include "ops/streaming.h"

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "core/plan_io.h"
#include "core/standard_ops.h"
#include "core/workflow_executor.h"
#include "io/fault_injection.h"
#include "io/file_io.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa {
namespace {

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_outofcore_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    corpus_disk_ = std::make_unique<io::SimDisk>(
        io::DiskOptions::CorpusStore(), dir_, nullptr);
    ASSERT_TRUE(io::MakeDirs(dir_ + "/scratch").ok());
    scratch_disk_ = std::make_unique<io::SimDisk>(io::DiskOptions::LocalHdd(),
                                                  dir_ + "/scratch", nullptr);

    // Big enough that an 8 KiB window spans several documents and the
    // corpus spans many windows; small enough to keep the suite quick.
    text::CorpusProfile profile;
    profile.name = "ooc";
    profile.num_documents = 160;
    profile.target_bytes = 120000;
    profile.target_distinct_words = 900;
    text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
    num_docs_ = corpus.size();
    ASSERT_TRUE(
        text::WriteCorpusPacked(corpus, corpus_disk_.get(), "ooc.pack").ok());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  ops::ExecContext Ctx(parallel::Executor* exec) {
    ops::ExecContext ctx;
    ctx.executor = exec;
    ctx.corpus_disk = corpus_disk_.get();
    ctx.scratch_disk = spill_ ? scratch_disk_.get() : nullptr;
    ctx.stem_tokens = stem_;
    ctx.serial_merge = serial_merge_;
    ctx.no_prune = no_prune_;
    return ctx;
  }

  ops::KMeansOptions Kopts() const {
    ops::KMeansOptions kopts;
    kopts.k = 5;
    kopts.max_iterations = 8;
    kopts.stop_on_convergence = false;  // fixed-length inertia_history
    kopts.recycle_buffers = recycle_buffers_;
    return kopts;
  }

  /// In-memory reference at the same parallelism: TfidfInMemory +
  /// SparseKMeans on `executor`. The inertia reduction grid is a pure
  /// function of (n, workers), so streaming results are compared against
  /// the in-memory run at the *same* worker count.
  ops::KMeansResult Baseline(parallel::Executor* executor,
                             std::vector<std::string>* terms = nullptr) {
    ops::ExecContext ctx = Ctx(executor);
    auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
    EXPECT_TRUE(reader.ok());
    auto tfidf = ops::TfidfInMemory(ctx, *reader, topts_);
    EXPECT_TRUE(tfidf.ok()) << tfidf.status();
    auto result = ops::SparseKMeans(ctx, tfidf->matrix, Kopts());
    EXPECT_TRUE(result.ok()) << result.status();
    if (terms != nullptr) *terms = tfidf->terms;
    return *result;
  }

  ops::KMeansResult Baseline(int workers,
                             std::vector<std::string>* terms = nullptr) {
    parallel::ThreadPoolExecutor exec(workers);
    return Baseline(&exec, terms);
  }

  std::string dir_;
  size_t num_docs_ = 0;
  // Scoring configuration shared by Ctx() and Baseline(); defaults unless
  // a test opts into pruning, sublinear weights, or stemming.
  ops::TfidfOptions topts_;
  bool stem_ = false;
  // Merge schedule and ablation settings, likewise shared by both sides.
  // spill_ gives the context a scratch disk, so streamed K-means spills its
  // pass-0 rows there instead of re-scoring every window each pass.
  bool spill_ = false;
  bool serial_merge_ = false;
  bool no_prune_ = false;
  bool recycle_buffers_ = true;
  std::unique_ptr<io::SimDisk> corpus_disk_;
  std::unique_ptr<io::SimDisk> scratch_disk_;

  /// Files left in the scratch disk's directory.
  std::vector<std::string> ScratchFiles() const {
    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch_disk_->root())) {
      files.push_back(entry.path().filename().string());
    }
    return files;
  }
};

TEST_F(OutOfCoreTest, StreamingModelMatchesInMemoryVocabulary) {
  std::vector<std::string> inmem_terms;
  Baseline(4, &inmem_terms);

  parallel::ThreadPoolExecutor exec(4);
  ops::ExecContext ctx = Ctx(&exec);
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
  ASSERT_TRUE(model.ok()) << model.status();

  EXPECT_EQ(model->scorer.terms(), inmem_terms);
  EXPECT_EQ(model->scorer.dfs().size(), model->scorer.terms().size());
  for (uint32_t df : model->scorer.dfs()) EXPECT_GE(df, 1u);
  EXPECT_EQ(model->num_docs, num_docs_);
  EXPECT_EQ(model->doc_names.size(), num_docs_);
  EXPECT_EQ(model->corpus_path, "ooc.pack");
  EXPECT_TRUE(model->quarantine.empty());
  EXPECT_GT(model->dict_bytes, 0u);
}

// The tentpole identity bar: every worker count x every window shape —
// one document per window (window smaller than any document), multi-doc
// windows, a window larger than the corpus, and the 0 = corpus-wide
// degenerate — reproduces the in-memory clustering bit for bit.
TEST_F(OutOfCoreTest, BitIdenticalAcrossWorkersAndWindowSizes) {
  for (int workers : {1, 2, 4, 8}) {
    ops::KMeansResult golden = Baseline(workers);
    ASSERT_EQ(golden.assignment.size(), num_docs_);
    for (uint64_t window_bytes : {uint64_t{1}, uint64_t{8192},
                                  uint64_t{1} << 26, uint64_t{0}}) {
      for (bool spill : {false, true}) {
        spill_ = spill;
        SCOPED_TRACE(testing::Message() << "workers=" << workers << " window="
                                        << window_bytes << " spill=" << spill);
        parallel::ThreadPoolExecutor exec(workers);
        ops::ExecContext ctx = Ctx(&exec);
        auto reader =
            io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
        ASSERT_TRUE(reader.ok());
        ops::StreamingOptions sopts;
        sopts.window_bytes = window_bytes;
        auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
        ASSERT_TRUE(model.ok()) << model.status();
        io::PrefetchStats stats;
        auto result = ops::StreamingSparseKMeans(ctx, *model, *reader,
                                                 Kopts(), sopts, &stats);
        ASSERT_TRUE(result.ok()) << result.status();
        // The spill served the later passes exactly when there was one.
        EXPECT_EQ(stats.spill_bytes_read > 0, spill);
        EXPECT_EQ(stats.spill_rescored_windows, 0u);

        EXPECT_EQ(result->assignment, golden.assignment);
        EXPECT_EQ(result->centroids, golden.centroids);
        EXPECT_EQ(result->inertia_history, golden.inertia_history);
        EXPECT_EQ(result->iterations, golden.iterations);
        EXPECT_EQ(result->converged, golden.converged);
        // Same engine, same bound tests: the pruning telemetry matches too.
        EXPECT_EQ(result->distance_kernels_evaluated,
                  golden.distance_kernels_evaluated);
        EXPECT_EQ(result->distance_kernels_skipped,
                  golden.distance_kernels_skipped);
        EXPECT_EQ(result->skip_rate_history, golden.skip_rate_history);
      }
    }
  }
}

// Non-default scoring changes which terms exist and how they weigh:
// min_df/max_df pruning drops terms from the vocabulary, sublinear tf
// reshapes every weight, and stemming folds tokens onto stems. The streamed
// rows must still reproduce the materialized clustering bit for bit.
TEST_F(OutOfCoreTest, BitIdenticalUnderNonDefaultScoring) {
  std::vector<std::string> default_terms;
  Baseline(1, &default_terms);

  ops::TfidfOptions pruned;
  pruned.min_df = 2;
  pruned.max_df_ratio = 0.5;
  pruned.sublinear_tf = true;
  struct Case {
    const char* name;
    ops::TfidfOptions options;
    bool stem;
  };
  for (const Case& c : {Case{"pruned+sublinear", pruned, false},
                        Case{"stemmed", ops::TfidfOptions{}, true}}) {
    topts_ = c.options;
    stem_ = c.stem;
    for (int workers : {1, 3, 4}) {
      std::vector<std::string> terms;
      ops::KMeansResult golden = Baseline(workers, &terms);
      EXPECT_NE(terms, default_terms) << c.name;  // the case bites
      for (uint64_t window_bytes : {uint64_t{1}, uint64_t{8192}}) {
        for (bool spill : {false, true}) {
          spill_ = spill;
          SCOPED_TRACE(testing::Message()
                       << c.name << " workers=" << workers
                       << " window=" << window_bytes << " spill=" << spill);
          parallel::ThreadPoolExecutor exec(workers);
          ops::ExecContext ctx = Ctx(&exec);
          auto reader =
              io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
          ASSERT_TRUE(reader.ok());
          ops::StreamingOptions sopts;
          sopts.window_bytes = window_bytes;
          auto model = ops::StreamingTfidfFit(ctx, *reader, topts_, sopts);
          ASSERT_TRUE(model.ok()) << model.status();
          EXPECT_EQ(model->scorer.terms(), terms);
          auto result =
              ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts);
          ASSERT_TRUE(result.ok()) << result.status();

          EXPECT_EQ(result->assignment, golden.assignment);
          EXPECT_EQ(result->centroids, golden.centroids);
          EXPECT_EQ(result->inertia_history, golden.inertia_history);
          EXPECT_EQ(result->iterations, golden.iterations);
        }
      }
    }
  }
}

// Disabling the async lane changes timing only, never bytes. Neither do
// the serial merge fold, the unpruned scan or the naive-allocation
// ablation: each run through both row sources under the same setting stays
// bit-identical.
TEST_F(OutOfCoreTest, PrefetchOffIsBitIdenticalToo) {
  enum Setting { kPrefetchOff, kSerialMerge, kNoPrune, kNoRecycle };
  for (Setting setting : {kPrefetchOff, kSerialMerge, kNoPrune, kNoRecycle}) {
    serial_merge_ = setting == kSerialMerge;
    no_prune_ = setting == kNoPrune;
    recycle_buffers_ = setting != kNoRecycle;
    for (int workers : {1, 4}) {
      ops::KMeansResult golden = Baseline(workers);
      for (bool spill : {false, true}) {
        spill_ = spill;
        SCOPED_TRACE(testing::Message() << "setting=" << setting
                                        << " workers=" << workers
                                        << " spill=" << spill);
        parallel::ThreadPoolExecutor exec(workers);
        ops::ExecContext ctx = Ctx(&exec);
        auto reader =
            io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
        ASSERT_TRUE(reader.ok());
        ops::StreamingOptions sopts;
        sopts.window_bytes = 8192;
        sopts.prefetch = setting != kPrefetchOff;
        auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
        ASSERT_TRUE(model.ok()) << model.status();
        auto result =
            ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->assignment, golden.assignment);
        EXPECT_EQ(result->centroids, golden.centroids);
        EXPECT_EQ(result->inertia_history, golden.inertia_history);
        EXPECT_EQ(result->distance_kernels_skipped,
                  golden.distance_kernels_skipped);
      }
    }
  }
}

// validate_bounds audits the streamed run too: it costs extra regions (the
// audit re-reads every window's rows — from the spill when there is one),
// finds no violation, and changes no result.
TEST_F(OutOfCoreTest, StreamedBoundValidationFindsNoViolations) {
  for (bool spill : {false, true}) {
    spill_ = spill;
    SCOPED_TRACE(testing::Message() << "spill=" << spill);
    auto reader =
        io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
    ASSERT_TRUE(reader.ok());
    ops::StreamingOptions sopts;
    sopts.window_bytes = 8192;
    parallel::ThreadPoolExecutor fit_exec(4);
    ops::ExecContext fit_ctx = Ctx(&fit_exec);
    auto model = ops::StreamingTfidfFit(fit_ctx, *reader, {}, sopts);
    ASSERT_TRUE(model.ok()) << model.status();

    auto run = [&](bool validate, uint64_t* regions) {
      parallel::ThreadPoolExecutor exec(4);
      ops::ExecContext ctx = Ctx(&exec);
      ops::KMeansOptions kopts = Kopts();
      kopts.validate_bounds = validate;
      auto result =
          ops::StreamingSparseKMeans(ctx, *model, *reader, kopts, sopts);
      *regions = exec.scheduler_stats().regions;
      return result;
    };
    uint64_t plain_regions = 0, validated_regions = 0;
    auto plain = run(false, &plain_regions);
    auto validated = run(true, &validated_regions);
    ASSERT_TRUE(plain.ok()) << plain.status();
    ASSERT_TRUE(validated.ok()) << validated.status();

    EXPECT_GT(validated_regions, plain_regions) << "the audit never ran";
    EXPECT_EQ(validated->bound_violations, 0u);
    EXPECT_GT(validated->distance_kernels_skipped, 0u);  // bounds were used
    EXPECT_EQ(validated->assignment, plain->assignment);
    EXPECT_EQ(validated->centroids, plain->centroids);
    EXPECT_EQ(validated->inertia_history, plain->inertia_history);
    EXPECT_EQ(validated->distance_kernels_evaluated,
              plain->distance_kernels_evaluated);
  }
}

// Under the virtual-time executor the prefetcher's lane model runs for
// real: windows are issued ahead, the high-water mark stays bounded by
// two window payloads (current + prefetched) plus one document of slack,
// and the results are still bit-identical. With a spill, its segments
// ride the same lane and count toward the same high-water mark.
TEST_F(OutOfCoreTest, SimulatedExecutorPrefetchesAndStaysBounded) {
  ops::KMeansResult golden;
  {
    parallel::SimulatedExecutor base_exec(8, parallel::MachineModel::Default());
    golden = Baseline(&base_exec);
  }

  for (bool spill : {false, true}) {
    spill_ = spill;
    SCOPED_TRACE(testing::Message() << "spill=" << spill);
    parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
    corpus_disk_->set_executor(&exec);
    scratch_disk_->set_executor(&exec);
    ops::ExecContext ctx = Ctx(&exec);
    auto reader =
        io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
    ASSERT_TRUE(reader.ok());
    ops::StreamingOptions sopts;
    sopts.window_bytes = 8192;

    io::PrefetchStats fit_stats;
    auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts, &fit_stats);
    ASSERT_TRUE(model.ok()) << model.status();
    io::PrefetchStats km_stats;
    auto result = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                             sopts, &km_stats);
    ASSERT_TRUE(result.ok()) << result.status();
    corpus_disk_->set_executor(nullptr);
    scratch_disk_->set_executor(nullptr);

    EXPECT_EQ(result->assignment, golden.assignment);
    EXPECT_EQ(result->centroids, golden.centroids);
    EXPECT_EQ(result->inertia_history, golden.inertia_history);

    // Multiple windows, all but the first issued ahead of their Acquire.
    EXPECT_GE(fit_stats.windows_fetched, 4u);
    EXPECT_GE(fit_stats.windows_prefetched, fit_stats.windows_fetched - 1);
    EXPECT_GT(fit_stats.bytes_read_ahead, 0u);
    // Bounded residency: current window + one prefetched + one oversized-
    // doc admission of slack.
    const uint64_t ceiling = 3 * sopts.window_bytes;
    EXPECT_LE(fit_stats.high_water_bytes, ceiling);
    EXPECT_LE(km_stats.high_water_bytes, ceiling);
    // K-means re-streams the corpus once per iteration (spilled windows
    // count as fetched).
    EXPECT_GE(km_stats.windows_fetched,
              fit_stats.windows_fetched * uint64_t(Kopts().max_iterations));
    if (spill) {
      // Pass 0 reads the corpus once and writes every window's segment;
      // the other passes read segments, prefetched like corpus windows.
      EXPECT_EQ(km_stats.bytes_read, fit_stats.bytes_read);
      EXPECT_GT(km_stats.spill_bytes_written, 0u);
      EXPECT_EQ(km_stats.spill_bytes_read,
                km_stats.spill_bytes_written *
                    uint64_t(Kopts().max_iterations - 1));
      const uint64_t passes = uint64_t(Kopts().max_iterations);
      EXPECT_GE(km_stats.windows_prefetched + passes,
                km_stats.windows_fetched);
    } else {
      EXPECT_EQ(km_stats.spill_bytes_written, 0u);
      EXPECT_EQ(km_stats.bytes_read,
                fit_stats.bytes_read * uint64_t(Kopts().max_iterations));
    }
  }
}

// The deterministic crash hook: the stream dies with kInternal after the
// configured window count, in both passes, and a clean re-run from the
// same inputs reproduces the golden results exactly (crash recovery =
// re-execution; there is no partial state to resume from).
TEST_F(OutOfCoreTest, MidStreamCrashIsDeterministicAndRerunIsIdentical) {
  ops::KMeansResult golden = Baseline(4);
  parallel::ThreadPoolExecutor exec(4);
  ops::ExecContext ctx = Ctx(&exec);
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());

  ops::StreamingOptions crash;
  crash.window_bytes = 8192;
  crash.fail_after_windows = 1;
  auto dead_fit = ops::StreamingTfidfFit(ctx, *reader, {}, crash);
  EXPECT_EQ(dead_fit.status().code(), StatusCode::kInternal);

  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
  ASSERT_TRUE(model.ok()) << model.status();

  // Pass 2 counts windows cumulatively across iterations; 3 is mid-first-
  // iteration for this corpus/window shape.
  crash.fail_after_windows = 3;
  auto dead_km =
      ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), crash);
  EXPECT_EQ(dead_km.status().code(), StatusCode::kInternal);

  auto result =
      ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->assignment, golden.assignment);
  EXPECT_EQ(result->centroids, golden.centroids);
  EXPECT_EQ(result->inertia_history, golden.inertia_history);
}

// Corrupted windows under retry-skip: documents whose reads keep failing
// CRC validation after the retry budget are quarantined (empty rows), the
// pass completes, and the whole pipeline stays deterministic — the fault
// schedule is a pure function of (op, path, offset, attempt).
TEST_F(OutOfCoreTest, CorruptedWindowsQuarantineUnderRetrySkip) {
  io::FaultProfile profile;
  profile.corruption_rate = 0.5;
  profile.seed = 7;

  auto run = [&]() -> StatusOr<std::pair<ops::StreamingTfidfModel,
                                         ops::KMeansResult>> {
    parallel::ThreadPoolExecutor exec(4);
    ops::ExecContext ctx = Ctx(&exec);
    ctx.fault_policy = FaultPolicy::kRetryThenSkip;
    auto reader =
        io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
    HPA_RETURN_IF_ERROR(reader.status());
    // Attach after Open so injection hits the CRC-protected window reads.
    io::FaultInjector injector(profile);
    corpus_disk_->set_fault_injector(&injector);
    corpus_disk_->set_retry_policy(RetryPolicy{});
    ops::StreamingOptions sopts;
    sopts.window_bytes = 8192;
    auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
    if (!model.ok()) {
      corpus_disk_->set_fault_injector(nullptr);
      return model.status();
    }
    auto result =
        ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts);
    corpus_disk_->set_fault_injector(nullptr);
    HPA_RETURN_IF_ERROR(result.status());
    return std::make_pair(std::move(*model), std::move(*result));
  };

  auto first = run();
  ASSERT_TRUE(first.ok()) << first.status();
  const ops::StreamingTfidfModel& model = first->first;
  const ops::KMeansResult& result = first->second;

  EXPECT_GT(model.quarantine.size(), 0u);
  size_t failed = 0;
  for (uint8_t f : model.doc_failed) failed += f;
  EXPECT_EQ(failed, model.quarantine.size());
  EXPECT_EQ(model.num_docs, num_docs_);
  ASSERT_EQ(result.assignment.size(), num_docs_);
  for (uint32_t a : result.assignment) EXPECT_LT(a, uint32_t(Kopts().k));

  // Same seed, same schedule, same survivors, same clusters.
  auto second = run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->first.quarantine.size(), model.quarantine.size());
  EXPECT_EQ(second->second.assignment, result.assignment);
  EXPECT_EQ(second->second.centroids, result.centroids);

  // Fail-fast refuses to paper over the same corruption.
  {
    parallel::ThreadPoolExecutor exec(4);
    ops::ExecContext ctx = Ctx(&exec);
    ctx.fault_policy = FaultPolicy::kFailFast;
    auto reader =
        io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
    ASSERT_TRUE(reader.ok());
    io::FaultInjector injector(profile);
    corpus_disk_->set_fault_injector(&injector);
    corpus_disk_->set_retry_policy(RetryPolicy{});
    ops::StreamingOptions sopts;
    sopts.window_bytes = 8192;
    auto model2 = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
    corpus_disk_->set_fault_injector(nullptr);
    EXPECT_FALSE(model2.ok());
  }
}

// The point of the spill: after pass 0, K-means reads no corpus byte. A
// spilled 8-pass run reads exactly what a 1-pass run reads from the corpus
// (the k seed documents plus one pass of windows).
TEST_F(OutOfCoreTest, SpilledPassesReadNoCorpusBytes) {
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  parallel::ThreadPoolExecutor exec(4);
  ops::ExecContext fit_ctx = Ctx(&exec);
  auto model = ops::StreamingTfidfFit(fit_ctx, *reader, {}, sopts);
  ASSERT_TRUE(model.ok()) << model.status();

  auto corpus_bytes = [&](bool spill, int iterations) -> uint64_t {
    spill_ = spill;
    ops::ExecContext ctx = Ctx(&exec);
    ops::KMeansOptions kopts = Kopts();
    kopts.max_iterations = iterations;
    const uint64_t before = corpus_disk_->total_bytes_read();
    auto result =
        ops::StreamingSparseKMeans(ctx, *model, *reader, kopts, sopts);
    EXPECT_TRUE(result.ok()) << result.status();
    return corpus_disk_->total_bytes_read() - before;
  };
  const uint64_t one_pass = corpus_bytes(/*spill=*/false, 1);
  EXPECT_GT(one_pass, 0u);
  EXPECT_EQ(corpus_bytes(/*spill=*/true, Kopts().max_iterations), one_pass);
  // Without a scratch disk every pass re-reads the corpus, as before.
  EXPECT_GT(corpus_bytes(/*spill=*/false, Kopts().max_iterations),
            one_pass * uint64_t(Kopts().max_iterations - 1));
}

// The spill is transient: its file is gone after a successful run, after
// the crash hook fires in a spilled pass, and after a fail-fast read error.
TEST_F(OutOfCoreTest, SpillFileIsRemoved) {
  spill_ = true;
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  parallel::ThreadPoolExecutor exec(4);
  ops::ExecContext ctx = Ctx(&exec);
  io::PrefetchStats fit_stats;
  auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts, &fit_stats);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_TRUE(ScratchFiles().empty());

  io::PrefetchStats stats;
  auto ok = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts,
                                       &stats);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_GT(stats.spill_bytes_read, 0u);
  EXPECT_TRUE(ScratchFiles().empty());

  // Mid-way through pass 1, which reads the spill.
  ops::StreamingOptions crash = sopts;
  crash.fail_after_windows = static_cast<int>(fit_stats.windows_fetched + 2);
  io::PrefetchStats crash_stats;
  auto crashed = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                            crash, &crash_stats);
  EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);
  EXPECT_GT(crash_stats.spill_bytes_read, 0u);
  EXPECT_TRUE(ScratchFiles().empty());

  // Documents that stay unreadable fail the fail-fast run.
  io::FaultProfile profile;
  profile.permanent_rate = 0.3;
  profile.seed = 11;
  io::FaultInjector injector(profile);
  corpus_disk_->set_fault_injector(&injector);
  auto failed = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                           sopts);
  corpus_disk_->set_fault_injector(nullptr);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(ScratchFiles().empty());
}

// Half the spill reads come back with a flipped byte: every such segment
// fails its CRC, is dropped, and its window is re-scored from the corpus.
// The clustering cannot tell.
TEST_F(OutOfCoreTest, CorruptSpillSegmentsAreRescored) {
  ops::KMeansResult golden = Baseline(4);
  spill_ = true;
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  parallel::ThreadPoolExecutor exec(4);
  ops::ExecContext ctx = Ctx(&exec);
  auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
  ASSERT_TRUE(model.ok()) << model.status();

  io::PrefetchStats clean_stats;
  auto clean = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                          sopts, &clean_stats);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean_stats.spill_rescored_windows, 0u);

  io::FaultProfile profile;
  profile.corruption_rate = 0.5;
  profile.seed = 5;
  io::FaultInjector injector(profile);
  scratch_disk_->set_fault_injector(&injector);
  io::PrefetchStats stats;
  auto result = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                           sopts, &stats);
  scratch_disk_->set_fault_injector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(injector.injected_corruption(), 0u);
  EXPECT_GT(stats.spill_rescored_windows, 0u);
  EXPECT_GT(stats.bytes_read, clean_stats.bytes_read);  // re-read windows

  for (const ops::KMeansResult* r : {&*clean, &*result}) {
    EXPECT_EQ(r->assignment, golden.assignment);
    EXPECT_EQ(r->centroids, golden.centroids);
    EXPECT_EQ(r->inertia_history, golden.inertia_history);
    EXPECT_EQ(r->distance_kernels_evaluated,
              golden.distance_kernels_evaluated);
    EXPECT_EQ(r->distance_kernels_skipped, golden.distance_kernels_skipped);
  }
}

/// A thread pool that, when the `trigger`-th K-means assignment region
/// (0-based) starts, truncates every file in `dir` to half its length: a
/// spill file torn between passes.
class TruncatingExecutor : public parallel::Executor {
 public:
  TruncatingExecutor(int workers, std::string dir, int trigger)
      : inner_(workers), dir_(std::move(dir)), trigger_(trigger) {}

  int num_workers() const override { return inner_.num_workers(); }
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const parallel::WorkHint& hint,
                   const RangeBody& body) override {
    if (std::string_view(hint.label) == "kmeans-assign" &&
        assign_regions_++ == trigger_) {
      for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        std::filesystem::resize_file(entry.path(),
                                     std::filesystem::file_size(entry) / 2);
        ++truncated_;
      }
    }
    inner_.ParallelFor(begin, end, grain, hint, body);
  }
  void RunSerial(const parallel::WorkHint& hint,
                 const std::function<void()>& fn) override {
    inner_.RunSerial(hint, fn);
  }
  void ChargeIoTime(double seconds, int channels) override {
    inner_.ChargeIoTime(seconds, channels);
  }
  double Now() const override { return inner_.Now(); }
  const char* name() const override { return inner_.name(); }
  parallel::SchedulerStats scheduler_stats() const override {
    return inner_.scheduler_stats();
  }
  void RequestStop() override { inner_.RequestStop(); }
  bool stop_requested() const override { return inner_.stop_requested(); }

  int truncated() const { return truncated_; }

 private:
  parallel::ThreadPoolExecutor inner_;
  std::string dir_;
  int trigger_;
  int assign_regions_ = 0;
  int truncated_ = 0;
};

// The spill file loses its second half after pass 0: the segments past the
// cut come back short, fail validation, and their windows are re-scored
// from the corpus. The clustering equals the clean run's.
TEST_F(OutOfCoreTest, TruncatedSpillFileIsRescored) {
  ops::KMeansResult golden = Baseline(4);
  spill_ = true;
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  parallel::ThreadPoolExecutor fit_exec(4);
  ops::ExecContext fit_ctx = Ctx(&fit_exec);
  io::PrefetchStats fit_stats;
  auto model =
      ops::StreamingTfidfFit(fit_ctx, *reader, {}, sopts, &fit_stats);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_GE(fit_stats.windows_fetched, 4u);

  // The first assignment region of pass 1 comes after every segment of
  // pass 0 was written.
  TruncatingExecutor exec(4, scratch_disk_->root(),
                          static_cast<int>(fit_stats.windows_fetched));
  ops::ExecContext ctx = Ctx(&exec);
  io::PrefetchStats stats;
  auto result = ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(),
                                           sopts, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(exec.truncated(), 1);
  EXPECT_GT(stats.spill_rescored_windows, 0u);
  EXPECT_GT(stats.spill_bytes_read, 0u);  // the segments before the cut
  EXPECT_EQ(result->assignment, golden.assignment);
  EXPECT_EQ(result->centroids, golden.centroids);
  EXPECT_EQ(result->inertia_history, golden.inertia_history);
  EXPECT_EQ(result->distance_kernels_skipped,
            golden.distance_kernels_skipped);
  EXPECT_TRUE(ScratchFiles().empty());
}

// The one byte parser the spill adds meets systematic corruption with a
// Status: every truncation, every byte flip, a segment of another window,
// a vocabulary too small for its ids, and ids out of order under valid
// CRCs are all rejected, and an intact segment round-trips every row.
TEST(RowSegmentTest, DecoderRejectsEveryCorruption) {
  using containers::SparseVector;
  parallel::SerialExecutor exec;
  std::vector<SparseVector> rows(3);
  rows[0] = SparseVector::FromPairs({{1, 0.5f}, {7, 0.25f}});
  rows[2] = SparseVector::FromPairs({{0, 1.0f}, {3, -2.0f}, {9, 0.125f}});
  std::string segment;
  ops::streaming_internal::EncodeRowSegment(exec, 40, rows.data(),
                                            rows.size(), &segment);
  std::vector<size_t> offsets;
  auto decode = [&](std::string_view bytes, size_t begin_doc, size_t docs,
                    uint32_t dim) {
    return ops::streaming_internal::DecodeRowSegment(exec, bytes, begin_doc,
                                                     docs, dim, &offsets);
  };
  ASSERT_TRUE(decode(segment, 40, 3, 10).ok());
  ASSERT_EQ(offsets.size(), rows.size());
  for (size_t d = 0; d < rows.size(); ++d) {
    SparseVector row = SparseVector::FromPairs({{4, 4.0f}});  // stale
    ops::streaming_internal::ReadSegmentRow(segment, offsets[d], &row);
    EXPECT_EQ(row, rows[d]) << d;
  }

  for (size_t len = 0; len < segment.size(); ++len) {
    Status s = decode(std::string_view(segment).substr(0, len), 40, 3, 10);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
  }
  EXPECT_FALSE(decode(segment + '\0', 40, 3, 10).ok());
  for (size_t i = 0; i < segment.size(); ++i) {
    std::string bad = segment;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_EQ(decode(bad, 40, 3, 10).code(), StatusCode::kCorruption)
        << "byte " << i;
  }
  EXPECT_FALSE(decode(segment, 41, 3, 10).ok());
  EXPECT_FALSE(decode(segment, 40, 2, 10).ok());
  EXPECT_FALSE(decode(segment, 40, 3, 9).ok());  // id 9 needs dim > 9

  for (std::vector<uint32_t> ids : {std::vector<uint32_t>{5, 2},
                                    std::vector<uint32_t>{4, 4}}) {
    const float values[2] = {1.0f, 2.0f};
    SparseVector row;
    row.AssignRaw(ids.data(), values, 2);
    std::string unordered;
    ops::streaming_internal::EncodeRowSegment(exec, 0, &row, 1, &unordered);
    EXPECT_EQ(decode(unordered, 0, 1, 10).code(), StatusCode::kCorruption);
  }
}

// A segment spanning several CRC blocks, encoded and checked on a thread
// pool, round-trips; a flipped byte in any block is caught.
TEST(RowSegmentTest, MultiBlockSegmentsRoundTripOnThreads) {
  using containers::SparseVector;
  parallel::ThreadPoolExecutor exec(4);
  std::vector<SparseVector> rows(120);
  for (size_t d = 0; d < rows.size(); ++d) {
    for (uint32_t t = 0; t < 800; t += 1 + d % 3) {
      rows[d].PushBack(t, static_cast<float>(d) + 0.5f * t);
    }
  }
  std::string segment;
  ops::streaming_internal::EncodeRowSegment(exec, 7, rows.data(), rows.size(),
                                            &segment);
  ASSERT_GT(segment.size(), 3u * 64 * 1024);
  std::vector<size_t> offsets;
  ASSERT_TRUE(ops::streaming_internal::DecodeRowSegment(
                  exec, segment, 7, rows.size(), 800, &offsets)
                  .ok());
  for (size_t d = 0; d < rows.size(); ++d) {
    SparseVector row;
    ops::streaming_internal::ReadSegmentRow(segment, offsets[d], &row);
    EXPECT_EQ(row, rows[d]) << d;
  }
  for (size_t i = 100; i < segment.size(); i += 64 * 1024) {
    std::string bad = segment;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(ops::streaming_internal::DecodeRowSegment(
                     exec, bad, 7, rows.size(), 800, &offsets)
                     .ok())
        << "byte " << i;
  }
}

TEST_F(OutOfCoreTest, PlusPlusSeedingIsRejected) {
  parallel::ThreadPoolExecutor exec(2);
  ops::ExecContext ctx = Ctx(&exec);
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
  ASSERT_TRUE(reader.ok());
  ops::StreamingOptions sopts;
  sopts.window_bytes = 8192;
  auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
  ASSERT_TRUE(model.ok()) << model.status();

  ops::KMeansOptions kopts = Kopts();
  kopts.init = ops::KMeansInit::kPlusPlus;
  auto result =
      ops::StreamingSparseKMeans(ctx, *model, *reader, kopts, sopts);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  kopts = Kopts();
  kopts.k = static_cast<int>(num_docs_) + 1;
  auto too_many =
      ops::StreamingSparseKMeans(ctx, *model, *reader, kopts, sopts);
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Workflow level: a streamed plan through RunWorkflow.

class OutOfCoreWorkflowTest : public OutOfCoreTest {
 protected:
  core::Workflow MakeChain() {
    core::Workflow wf;
    int src = wf.AddSource(core::Dataset(core::CorpusRef{"ooc.pack"}),
                           "corpus");
    auto tfidf = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
    EXPECT_TRUE(tfidf.ok());
    ops::KMeansOptions kopts;
    kopts.k = 4;
    kopts.max_iterations = 6;
    kopts.stop_on_convergence = false;
    auto kmeans =
        wf.Add(std::make_unique<core::KMeansOperator>(kopts), {*tfidf});
    EXPECT_TRUE(kmeans.ok());
    return wf;
  }

  /// Fused tfidf -> materialized kmeans sink; `streamed` turns the tfidf
  /// edge into a windowed stream.
  core::ExecutionPlan ChainPlan(bool streamed) {
    core::ExecutionPlan plan;
    plan.workers = 4;
    plan.nodes.resize(3);
    plan.nodes[1].output_boundary = core::Boundary::kFused;
    if (streamed) {
      plan.nodes[1].stream_corpus = true;
      plan.nodes[1].window_bytes = 8192;
    }
    plan.nodes[2].output_boundary = core::Boundary::kMaterialized;
    return plan;
  }

  StatusOr<core::WorkflowRunResult> RunSim(const core::Workflow& wf,
                                           const core::ExecutionPlan& plan,
                                           const std::string& ckpt_dir,
                                           int crash_after = -1) {
    parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
    corpus_disk_->set_executor(&exec);
    scratch_disk_->set_executor(&exec);
    core::RunEnv env;
    env.executor = &exec;
    env.corpus_disk = corpus_disk_.get();
    env.scratch_disk = scratch_disk_.get();
    env.checkpoint_dir = ckpt_dir;
    env.crash_after_node = crash_after;
    auto result = core::RunWorkflow(wf, plan, env);
    corpus_disk_->set_executor(nullptr);
    scratch_disk_->set_executor(nullptr);
    return result;
  }

  std::string ReadCsv() {
    auto text = scratch_disk_->ReadFile(core::KMeansOperator::kCsvPath);
    EXPECT_TRUE(text.ok());
    return text.ok() ? *text : std::string();
  }
};

TEST_F(OutOfCoreWorkflowTest, StreamedPlanOutputMatchesMaterializedPlan) {
  core::Workflow wf = MakeChain();

  auto inmem = RunSim(wf, ChainPlan(/*streamed=*/false), "");
  ASSERT_TRUE(inmem.ok()) << inmem.status();
  const std::string golden_csv = ReadCsv();
  ASSERT_FALSE(golden_csv.empty());

  auto streamed = RunSim(wf, ChainPlan(/*streamed=*/true), "");
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(ReadCsv(), golden_csv);
}

TEST_F(OutOfCoreWorkflowTest, CrashResumeWithStreamedPlanIsByteIdentical) {
  core::Workflow wf = MakeChain();
  core::ExecutionPlan plan = ChainPlan(/*streamed=*/true);

  auto golden = RunSim(wf, plan, "ckpt-golden");
  ASSERT_TRUE(golden.ok()) << golden.status();
  const std::string golden_csv = ReadCsv();

  // Crash after the streamed (fused, artifact-free) tfidf edge: nothing
  // was committed, resume recomputes everything from the corpus.
  auto crash1 = RunSim(wf, plan, "ckpt-s1", /*crash_after=*/1);
  EXPECT_FALSE(crash1.ok());
  auto resume1 = RunSim(wf, plan, "ckpt-s1");
  ASSERT_TRUE(resume1.ok()) << resume1.status();
  EXPECT_EQ(resume1->resumed_nodes, 0u);
  EXPECT_EQ(ReadCsv(), golden_csv);

  // Crash after the materialized kmeans sink committed: resume restores
  // it from the checkpoint instead of re-streaming.
  auto crash2 = RunSim(wf, plan, "ckpt-s2", /*crash_after=*/2);
  EXPECT_FALSE(crash2.ok());
  auto resume2 = RunSim(wf, plan, "ckpt-s2");
  ASSERT_TRUE(resume2.ok()) << resume2.status();
  EXPECT_EQ(resume2->resumed_nodes, 1u);
  EXPECT_EQ(ReadCsv(), golden_csv);
}

// ---------------------------------------------------------------------------
// Plan-file round-trips of the streaming keys.

TEST_F(OutOfCoreWorkflowTest, PlanIoRoundTripsStreamingFields) {
  core::Workflow wf = MakeChain();
  core::ExecutionPlan plan = ChainPlan(/*streamed=*/true);
  plan.nodes[1].window_bytes = 123456;

  std::string text = core::SerializePlan(plan, wf);
  EXPECT_NE(text.find("stream=1"), std::string::npos);
  EXPECT_NE(text.find("window=123456"), std::string::npos);

  auto loaded = core::ParsePlan(text, wf);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->nodes[1].stream_corpus);
  EXPECT_EQ(loaded->nodes[1].window_bytes, 123456u);
  EXPECT_FALSE(loaded->nodes[2].stream_corpus);

  // Plans without streamed edges serialize exactly as before the feature
  // existed — no stream/window tokens at all.
  std::string legacy = core::SerializePlan(ChainPlan(/*streamed=*/false), wf);
  EXPECT_EQ(legacy.find("stream"), std::string::npos);
  EXPECT_EQ(legacy.find("window"), std::string::npos);
  auto legacy_loaded = core::ParsePlan(legacy, wf);
  ASSERT_TRUE(legacy_loaded.ok());
  EXPECT_FALSE(legacy_loaded->nodes[1].stream_corpus);

  // Malformed values are rejected, not defaulted.
  std::string bad_stream = text;
  bad_stream.replace(bad_stream.find("stream=1"), 8, "stream=2");
  EXPECT_FALSE(core::ParsePlan(bad_stream, wf).ok());
  std::string bad_window = text;
  bad_window.replace(bad_window.find("window=123456"), 13, "window=bogus1");
  EXPECT_FALSE(core::ParsePlan(bad_window, wf).ok());
}

// ---------------------------------------------------------------------------
// Optimizer: the memory-ceiling flip.

core::WorkloadStats MixLikeStats() {
  core::WorkloadStats s;
  s.documents = 23432;
  s.total_tokens = 9'000'000;
  s.distinct_words = 184743;
  s.avg_distinct_per_doc = 200.0;
  return s;
}

core::Workflow FlipChain() {
  core::Workflow wf;
  int src = wf.AddSource(core::Dataset(core::CorpusRef{"mix.pack"}),
                         "corpus");
  auto tfidf = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
  EXPECT_TRUE(tfidf.ok());
  ops::KMeansOptions kopts;
  kopts.k = 8;
  kopts.max_iterations = 6;
  auto kmeans =
      wf.Add(std::make_unique<core::KMeansOperator>(kopts), {*tfidf});
  EXPECT_TRUE(kmeans.ok());
  return wf;
}

TEST(OutOfCoreOptimizerTest, FlipsTfidfEdgeToStreamingUnderMemBudget) {
  core::CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  core::Workflow wf = FlipChain();
  const uint64_t footprint = model.EstimateMatrixBytes();

  core::OptimizerOptions opts;
  opts.workers = 8;
  opts.mem_budget_bytes = 8ull << 20;  // far below the ~37 MiB matrix
  core::ExecutionPlan plan = core::OptimizeWorkflow(wf, model, opts);
  EXPECT_TRUE(plan.nodes[1].stream_corpus);
  EXPECT_EQ(plan.nodes[1].window_bytes,
            core::CostModel::ChooseWindowBytes(opts.mem_budget_bytes));
  // A streamed edge never buys a checkpoint artifact.
  EXPECT_EQ(plan.nodes[1].output_boundary, core::Boundary::kFused);
  EXPECT_FALSE(plan.nodes[2].stream_corpus);

  // Enough budget for the matrix -> no penalty, no flip.
  opts.mem_budget_bytes = footprint + (1ull << 20);
  plan = core::OptimizeWorkflow(wf, model, opts);
  EXPECT_FALSE(plan.nodes[1].stream_corpus);

  // No budget -> never flips.
  opts.mem_budget_bytes = 0;
  plan = core::OptimizeWorkflow(wf, model, opts);
  EXPECT_FALSE(plan.nodes[1].stream_corpus);

  // The discrete baseline keeps every edge materialized, budget or not.
  opts.mem_budget_bytes = 8ull << 20;
  opts.force_materialize_intermediates = true;
  plan = core::OptimizeWorkflow(wf, model, opts);
  EXPECT_FALSE(plan.nodes[1].stream_corpus);
}

TEST(OutOfCoreOptimizerTest, NonKMeansConsumerBlocksTheFlip) {
  // tfidf feeds kmeans AND top-terms: top-terms needs the materialized
  // TfidfResult, so the edge must not stream no matter the budget.
  core::Workflow wf = FlipChain();
  auto top = wf.Add(std::make_unique<core::TopTermsOperator>(10), {1});
  ASSERT_TRUE(top.ok());

  core::CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  core::OptimizerOptions opts;
  opts.workers = 8;
  opts.mem_budget_bytes = 8ull << 20;
  core::ExecutionPlan plan = core::OptimizeWorkflow(wf, model, opts);
  EXPECT_FALSE(plan.nodes[1].stream_corpus);
}

}  // namespace
}  // namespace hpa
