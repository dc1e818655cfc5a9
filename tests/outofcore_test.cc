// Out-of-core pipeline tests: the semi-external TF/IDF → K-means pass
// over bounded corpus windows (ops/streaming.h, io/corpus_window.h).
//
// The headline bar is *bit-identity*: streaming assignments, centroids,
// and inertia_history must equal the in-memory SparseKMeans-over-
// TfidfInMemory results exactly, at every worker count and window size —
// including degenerate windows (smaller than one document, larger than
// the corpus). The rest of the suite covers the failure surface: a
// deterministic mid-stream crash hook, corrupted-window quarantine under
// retry-skip, workflow-level crash/resume with a streamed plan, plan-file
// round-trips of the stream/window keys, and the optimizer's
// materialize→stream flip under a memory ceiling.

#include "ops/streaming.h"

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
    scratch_disk_ = std::make_unique<io::SimDisk>(io::DiskOptions::LocalHdd(),
                                                  dir_, nullptr);

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
    ctx.stem_tokens = stem_;
    ctx.serial_merge = serial_merge_;
    ctx.flat_parallelism = flat_parallelism_;
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
  bool serial_merge_ = false;
  bool flat_parallelism_ = false;
  bool no_prune_ = false;
  bool recycle_buffers_ = true;
  std::unique_ptr<io::SimDisk> corpus_disk_;
  std::unique_ptr<io::SimDisk> scratch_disk_;
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
      SCOPED_TRACE(testing::Message()
                   << "workers=" << workers << " window=" << window_bytes);
      parallel::ThreadPoolExecutor exec(workers);
      ops::ExecContext ctx = Ctx(&exec);
      auto reader =
          io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
      ASSERT_TRUE(reader.ok());
      ops::StreamingOptions sopts;
      sopts.window_bytes = window_bytes;
      auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts);
      ASSERT_TRUE(model.ok()) << model.status();
      auto result =
          ops::StreamingSparseKMeans(ctx, *model, *reader, Kopts(), sopts);
      ASSERT_TRUE(result.ok()) << result.status();

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
        SCOPED_TRACE(testing::Message() << c.name << " workers=" << workers
                                        << " window=" << window_bytes);
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

// Disabling the async lane changes timing only, never bytes. Neither do
// the merge schedules (serial fold, flat tree), the unpruned scan or the
// naive-allocation ablation: each run through both row sources under the
// same setting stays bit-identical.
TEST_F(OutOfCoreTest, PrefetchOffIsBitIdenticalToo) {
  enum Setting { kPrefetchOff, kSerialMerge, kFlat, kNoPrune, kNoRecycle };
  for (Setting setting : {kPrefetchOff, kSerialMerge, kFlat, kNoPrune,
                          kNoRecycle}) {
    serial_merge_ = setting == kSerialMerge;
    flat_parallelism_ = setting == kFlat;
    no_prune_ = setting == kNoPrune;
    recycle_buffers_ = setting != kNoRecycle;
    for (int workers : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "setting=" << setting << " workers=" << workers);
      ops::KMeansResult golden = Baseline(workers);
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

// validate_bounds audits the streamed run too: it costs extra regions (the
// audit re-reads every window's rows), finds no violation, and changes no
// result.
TEST_F(OutOfCoreTest, StreamedBoundValidationFindsNoViolations) {
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
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

// Under the virtual-time executor the prefetcher's lane model runs for
// real: windows are issued ahead, the high-water mark stays bounded by
// two window payloads (current + prefetched) plus one document of slack,
// and the results are still bit-identical.
TEST_F(OutOfCoreTest, SimulatedExecutorPrefetchesAndStaysBounded) {
  ops::KMeansResult golden;
  {
    parallel::SimulatedExecutor base_exec(8, parallel::MachineModel::Default());
    golden = Baseline(&base_exec);
  }

  parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
  corpus_disk_->set_executor(&exec);
  ops::ExecContext ctx = Ctx(&exec);
  auto reader = io::PackedCorpusReader::Open(corpus_disk_.get(), "ooc.pack");
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

  EXPECT_EQ(result->assignment, golden.assignment);
  EXPECT_EQ(result->centroids, golden.centroids);
  EXPECT_EQ(result->inertia_history, golden.inertia_history);

  // Multiple windows, all but the first issued ahead of their Acquire.
  EXPECT_GE(fit_stats.windows_fetched, 4u);
  EXPECT_GE(fit_stats.windows_prefetched, fit_stats.windows_fetched - 1);
  EXPECT_GT(fit_stats.bytes_read_ahead, 0u);
  // Bounded residency: current window + one prefetched + one oversized-doc
  // admission of slack.
  const uint64_t ceiling = 3 * sopts.window_bytes;
  EXPECT_LE(fit_stats.high_water_bytes, ceiling);
  EXPECT_LE(km_stats.high_water_bytes, ceiling);
  // K-means re-streams the corpus once per iteration.
  EXPECT_GE(km_stats.windows_fetched,
            fit_stats.windows_fetched * uint64_t(Kopts().max_iterations));
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
