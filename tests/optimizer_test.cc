// Tests for the cost model and workflow optimizer — the paper's §3.4
// "judicious, thread-count-dependent" data-structure choice made explicit.

#include "core/optimizer.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/classifier_ops.h"
#include "core/report.h"
#include "core/standard_ops.h"

namespace hpa::core {
namespace {

using containers::DictBackend;

WorkloadStats MixLikeStats() {
  // Approximately the Mix corpus of Table 1.
  WorkloadStats s;
  s.documents = 23432;
  s.total_tokens = 9'000'000;
  s.distinct_words = 184743;
  s.avg_distinct_per_doc = 200.0;
  return s;
}

TEST(CostModelTest, EstimatesArePositiveAndFinite) {
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  for (DictBackend b : containers::kAllDictBackends) {
    for (int workers : {1, 4, 16}) {
      PhaseCostEstimate e = model.Estimate(b, workers, 0);
      EXPECT_GT(e.input_wc_seconds, 0.0);
      EXPECT_GT(e.transform_seconds, 0.0);
      EXPECT_GT(e.output_seconds, 0.0);
      EXPECT_GT(e.dict_bytes, 0.0);
    }
  }
}

TEST(CostModelTest, MoreWorkersNeverSlower) {
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  for (DictBackend b : containers::kAllDictBackends) {
    double prev = model.Estimate(b, 1, 0).TotalFused();
    for (int workers : {2, 4, 8, 16}) {
      double cur = model.Estimate(b, workers, 0).TotalFused();
      EXPECT_LE(cur, prev * 1.0001) << containers::DictBackendName(b) << " @ "
                                    << workers;
      prev = cur;
    }
  }
}

TEST(CostModelTest, PreSizedHashTablesPredictHugeFootprint) {
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  double plain = model.Estimate(DictBackend::kStdUnorderedMap, 1, 0).dict_bytes;
  double presized =
      model.Estimate(DictBackend::kStdUnorderedMap, 1, 4096).dict_bytes;
  // 23k docs x 4096 buckets x 8 B ~ 768 MB extra at minimum.
  EXPECT_GT(presized, plain + 5e8);
  // Trees don't pay per-table pre-size.
  double tree_plain = model.Estimate(DictBackend::kStdMap, 1, 0).dict_bytes;
  double tree_presized =
      model.Estimate(DictBackend::kStdMap, 1, 4096).dict_bytes;
  EXPECT_DOUBLE_EQ(tree_plain, tree_presized);
}

TEST(CostModelTest, PaperChoiceFlipsWithParallelismUnderPreSizing) {
  // The §3.4 observation: with the paper's pre-sized u-map, the hash table
  // can win serially (cheap lookups), but at high thread counts its memory
  // footprint makes the transform bandwidth-bound and the tree wins.
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  double map16 =
      model.Estimate(DictBackend::kStdMap, 16, 4096).TotalFused();
  double umap16 =
      model.Estimate(DictBackend::kStdUnorderedMap, 16, 4096).TotalFused();
  EXPECT_LT(map16, umap16) << "tree should win at 16 workers";
}

TEST(CostModelTest, BestBackendReturnsArgmin) {
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  for (int workers : {1, 16}) {
    DictBackend best = model.BestBackend(workers, 0);
    double best_cost = model.Estimate(best, workers, 0).TotalFused();
    for (DictBackend b : containers::kAllDictBackends) {
      EXPECT_LE(best_cost,
                model.Estimate(b, workers, 0).TotalFused() + 1e-12);
    }
  }
}

class OptimizerTest : public ::testing::Test {
 protected:
  Workflow MakeWorkflow() {
    Workflow wf;
    int src = wf.AddSource(Dataset(CorpusRef{"c.pack"}), "corpus");
    auto tfidf = wf.Add(std::make_unique<TfidfOperator>(), {src});
    ops::KMeansOptions kopts;
    auto kmeans =
        wf.Add(std::make_unique<KMeansOperator>(kopts), {*tfidf});
    (void)kmeans;
    return wf;
  }

  /// The classifier-family DAG: one TF/IDF edge feeding K-means AND a
  /// Naive Bayes trainer, then predict -> evaluate. Node ids: 0 source,
  /// 1 tfidf, 2 kmeans (sink), 3 nb-train, 4 classify, 5 evaluate (sink).
  Workflow MakeBranchingWorkflow() {
    Workflow wf;
    int src = wf.AddSource(Dataset(CorpusRef{"c.pack"}), "corpus");
    auto tfidf = wf.Add(std::make_unique<TfidfOperator>(), {src});
    ops::KMeansOptions kopts;
    auto kmeans = wf.Add(std::make_unique<KMeansOperator>(kopts), {*tfidf});
    (void)kmeans;
    auto nb =
        wf.Add(std::make_unique<NaiveBayesTrainOperator>(), {*tfidf, src});
    auto cls = wf.Add(std::make_unique<ClassifierPredictOperator>(),
                      {*nb, *tfidf});
    auto ev = wf.Add(std::make_unique<EvaluateOperator>(), {*cls, src});
    (void)ev;
    return wf;
  }

  /// Smallest failure probability on a geometric grid at which the
  /// optimizer materializes `node`'s output edge; 2.0 if it never does.
  double FlipPoint(const Workflow& wf, const CostModel& model, int node,
                   bool paper_backends_only = false) {
    for (double p = 1e-7; p <= 1.0; p *= 1.3) {
      OptimizerOptions opts;
      opts.workers = 8;
      opts.paper_backends_only = paper_backends_only;
      // Sharded scratch: the output pass parallelizes, so the overhead
      // side of the rule is the commit, not a serial ARFF write.
      opts.scratch_channels = 8;
      opts.failure_probability = p;
      ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);
      if (plan.nodes[static_cast<size_t>(node)].output_boundary ==
          Boundary::kMaterialized) {
        return p;
      }
    }
    return 2.0;
  }
};

TEST_F(OptimizerTest, FusesInteriorAndMaterializesSinks) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.workers = 16;
  ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);

  ASSERT_EQ(plan.nodes.size(), 3u);
  EXPECT_EQ(plan.workers, 16);
  EXPECT_EQ(plan.nodes[1].output_boundary, Boundary::kFused);
  EXPECT_EQ(plan.nodes[2].output_boundary, Boundary::kMaterialized);
}

TEST_F(OptimizerTest, BranchingPlanFusesSharedEdgeWithoutFaults) {
  // Fusion composes across consumers: with no failure probability the
  // TF/IDF edge stays in memory even though two operators read it, and
  // only the two sinks (kmeans, evaluate) land on storage.
  Workflow wf = MakeBranchingWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.workers = 8;
  ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);

  ASSERT_EQ(plan.nodes.size(), 6u);
  EXPECT_EQ(plan.nodes[1].output_boundary, Boundary::kFused);
  EXPECT_EQ(plan.nodes[2].output_boundary, Boundary::kMaterialized);
  EXPECT_EQ(plan.nodes[3].output_boundary, Boundary::kFused);
  EXPECT_EQ(plan.nodes[4].output_boundary, Boundary::kFused);
  EXPECT_EQ(plan.nodes[5].output_boundary, Boundary::kMaterialized);
}

TEST_F(OptimizerTest, CheckpointRuleWeighsSharedEdgeByConsumerCount) {
  // The costed materialization decision on the branching edge: expected
  // replay savings scale with fan-out, so the shared TF/IDF edge (two
  // consumers) must flip to materialized at a strictly lower failure
  // probability than the same edge in the linear DAG (one consumer) —
  // and both must genuinely flip somewhere in (0, 1].
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  Workflow linear = MakeWorkflow();
  Workflow branching = MakeBranchingWorkflow();

  double linear_flip = FlipPoint(linear, model, 1);
  double branching_flip = FlipPoint(branching, model, 1);

  EXPECT_GT(branching_flip, 1e-7) << "a costed rule has a threshold; "
                                     "materializing at negligible failure "
                                     "rates means the price is ignored";
  EXPECT_LE(branching_flip, 1.0) << "never materializes even at p=1";
  EXPECT_LT(branching_flip, linear_flip)
      << "fan-out must lower the materialization threshold (the linear "
         "DAG's single-consumer edge may legitimately never flip)";
}

TEST_F(OptimizerTest,
       CheckpointRuleWeighsSharedEdgeByConsumerCountInPaperMode) {
  // Same rule with the edge priced at the paper's per-document backends.
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  double linear_flip = FlipPoint(MakeWorkflow(), model, 1, true);
  double branching_flip = FlipPoint(MakeBranchingWorkflow(), model, 1, true);
  EXPECT_GT(branching_flip, 1e-7);
  EXPECT_LE(branching_flip, 1.0);
  EXPECT_LT(branching_flip, linear_flip);
}

TEST_F(OptimizerTest, ForceMaterializeSpillsEverything) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.force_materialize_intermediates = true;
  ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);
  EXPECT_EQ(plan.nodes[1].output_boundary, Boundary::kMaterialized);
  EXPECT_EQ(plan.nodes[2].output_boundary, Boundary::kMaterialized);
}

TEST_F(OptimizerTest, PlansInternedCountOutsidePaperMode) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  for (uint64_t presize : {uint64_t{0}, uint64_t{4096}}) {
    opts.per_doc_dict_presize = presize;
    for (int workers : {1, 4, 16}) {
      opts.workers = workers;
      EXPECT_EQ(OptimizeWorkflow(wf, model, opts).nodes[1].dict_backend,
                DictBackend::kInterned)
          << workers << " workers, presize " << presize;
    }
  }
  opts.paper_backends_only = true;
  EXPECT_NE(OptimizeWorkflow(wf, model, opts).nodes[1].dict_backend,
            DictBackend::kInterned);
  // The priced estimate is positive, with a smaller footprint than open
  // addressing's per-document tables.
  PhaseCostEstimate interned = model.Estimate(DictBackend::kInterned, 4, 0);
  EXPECT_GT(interned.input_wc_seconds, 0.0);
  EXPECT_GT(interned.transform_seconds, 0.0);
  EXPECT_LT(interned.dict_bytes,
            model.Estimate(DictBackend::kOpenHash, 4, 0).dict_bytes);
}

TEST_F(OptimizerTest, PaperBackendsRestrictionHolds) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.paper_backends_only = true;
  opts.per_doc_dict_presize = 4096;
  for (int workers : {1, 16}) {
    opts.workers = workers;
    ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);
    DictBackend b = plan.nodes[1].dict_backend;
    EXPECT_TRUE(b == DictBackend::kStdMap ||
                b == DictBackend::kStdUnorderedMap);
  }
}

TEST_F(OptimizerTest, PaperChoiceFlipsWithWorkerCount) {
  // §3.4's punchline as a plan decision: under the paper's 4K pre-sizing,
  // the serial plan prefers the hash table (cheap lookups dominate), the
  // 16-worker plan prefers the tree (the hash footprint is bandwidth-bound
  // at scale-out).
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.paper_backends_only = true;
  opts.per_doc_dict_presize = 4096;

  opts.workers = 1;
  ExecutionPlan serial_plan = OptimizeWorkflow(wf, model, opts);
  opts.workers = 16;
  ExecutionPlan parallel_plan = OptimizeWorkflow(wf, model, opts);

  EXPECT_EQ(serial_plan.nodes[1].dict_backend,
            DictBackend::kStdUnorderedMap);
  EXPECT_EQ(parallel_plan.nodes[1].dict_backend, DictBackend::kStdMap);
}

TEST_F(OptimizerTest, HighParallelismPlanPrefersTreeUnderPreSizing) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.paper_backends_only = true;
  opts.per_doc_dict_presize = 4096;
  opts.workers = 16;
  ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);
  EXPECT_EQ(plan.nodes[1].dict_backend, DictBackend::kStdMap);
}

TEST_F(OptimizerTest, WorkerFloorIsOne) {
  Workflow wf = MakeWorkflow();
  CostModel model(parallel::MachineModel::Default(), MixLikeStats());
  OptimizerOptions opts;
  opts.workers = 0;
  ExecutionPlan plan = OptimizeWorkflow(wf, model, opts);
  EXPECT_EQ(plan.workers, 1);
}

// Report formatting smoke tests.

TEST(ReportTest, PhaseBreakdownIncludesAllPhasesAndTotal) {
  BreakdownColumn a;
  a.label = "discrete";
  a.phases.Add("input+wc", 1.0);
  a.phases.Add("tfidf-output", 2.0);
  BreakdownColumn b;
  b.label = "merged";
  b.phases.Add("input+wc", 1.0);
  b.phases.Add("transform", 0.5);
  std::string table =
      FormatPhaseBreakdown({a, b}, {"input+wc", "tfidf-output", "transform"});
  EXPECT_NE(table.find("input+wc"), std::string::npos);
  EXPECT_NE(table.find("tfidf-output"), std::string::npos);
  EXPECT_NE(table.find("transform"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("discrete"), std::string::npos);
  EXPECT_NE(table.find("3.000"), std::string::npos);  // discrete total
}

TEST(ReportTest, SpeedupTableComputesSelfRelative) {
  SpeedupSeries s;
  s.label = "NSF";
  s.points = {{1, 8.0}, {4, 2.0}, {16, 1.0}};
  std::string table = FormatSpeedupTable({s});
  EXPECT_NE(table.find("4.00x"), std::string::npos);
  EXPECT_NE(table.find("8.00x"), std::string::npos);
  EXPECT_NE(table.find("1.00x"), std::string::npos);
}

TEST(ReportTest, MissingPointsRenderDashes) {
  SpeedupSeries a{"A", {{1, 4.0}, {2, 2.0}}};
  SpeedupSeries b{"B", {{1, 6.0}, {4, 1.5}}};
  std::string table = FormatSpeedupTable({a, b});
  EXPECT_NE(table.find("-"), std::string::npos);
}

}  // namespace
}  // namespace hpa::core
