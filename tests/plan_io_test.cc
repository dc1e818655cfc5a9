#include "core/plan_io.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/standard_ops.h"

namespace hpa::core {
namespace {

Workflow MakeWorkflow() {
  Workflow wf;
  int src = wf.AddSource(Dataset(CorpusRef{"c.pack"}), "corpus");
  auto tfidf = wf.Add(std::make_unique<TfidfOperator>(), {src});
  ops::KMeansOptions kopts;
  wf.Add(std::make_unique<KMeansOperator>(kopts), {*tfidf}).value();
  return wf;
}

ExecutionPlan MakePlan(const Workflow& wf) {
  ExecutionPlan plan;
  plan.workers = 12;
  plan.nodes.resize(wf.size());
  plan.nodes[1].output_boundary = Boundary::kMaterialized;
  plan.nodes[1].dict_backend = containers::DictBackend::kStdMap;
  plan.nodes[1].per_doc_dict_presize = 4096;
  plan.nodes[2].output_boundary = Boundary::kFused;
  plan.nodes[2].dict_backend = containers::DictBackend::kChainedHash;
  return plan;
}

TEST(PlanIoTest, RoundTripPreservesEveryChoice) {
  Workflow wf = MakeWorkflow();
  ExecutionPlan plan = MakePlan(wf);
  std::string text = SerializePlan(plan, wf);

  auto loaded = ParsePlan(text, wf);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->workers, 12);
  EXPECT_EQ(loaded->nodes[1].output_boundary, Boundary::kMaterialized);
  EXPECT_EQ(loaded->nodes[1].dict_backend, containers::DictBackend::kStdMap);
  EXPECT_EQ(loaded->nodes[1].per_doc_dict_presize, 4096u);
  EXPECT_EQ(loaded->nodes[2].output_boundary, Boundary::kFused);
  EXPECT_EQ(loaded->nodes[2].dict_backend,
            containers::DictBackend::kChainedHash);
}

TEST(PlanIoTest, DefaultPlanRoundTripsTheInternedBackend) {
  Workflow wf = MakeWorkflow();
  ExecutionPlan plan;
  plan.workers = 4;
  plan.nodes.resize(wf.size());
  std::string text = SerializePlan(plan, wf);
  EXPECT_NE(text.find("dict=interned"), std::string::npos);
  auto loaded = ParsePlan(text, wf);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->nodes[1].dict_backend,
            containers::DictBackend::kInterned);
  EXPECT_EQ(SerializePlan(*loaded, wf), text);
}

TEST(PlanIoTest, SerializedFormIsReadable) {
  Workflow wf = MakeWorkflow();
  std::string text = SerializePlan(MakePlan(wf), wf);
  EXPECT_NE(text.find("hpa-plan v1"), std::string::npos);
  EXPECT_NE(text.find("workers 12"), std::string::npos);
  EXPECT_NE(text.find("node 0 source corpus"), std::string::npos);
  EXPECT_NE(text.find("op=tfidf"), std::string::npos);
  EXPECT_NE(text.find("boundary=materialized"), std::string::npos);
  EXPECT_NE(text.find("dict=map"), std::string::npos);
}

TEST(PlanIoTest, CommentsAndBlankLinesIgnored) {
  Workflow wf = MakeWorkflow();
  std::string text =
      "hpa-plan v1\n"
      "# tuned by hand\n"
      "\n"
      "workers 4\n"
      "node 0 source corpus\n"
      "node 1 op=tfidf boundary=fused dict=u-map presize=0\n"
      "node 2 op=kmeans boundary=materialized dict=map presize=0\n";
  auto loaded = ParsePlan(text, wf);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->workers, 4);
  EXPECT_EQ(loaded->nodes[1].dict_backend,
            containers::DictBackend::kStdUnorderedMap);
}

TEST(PlanIoTest, RejectsBadHeader) {
  Workflow wf = MakeWorkflow();
  EXPECT_FALSE(ParsePlan("hpa-plan v99\nworkers 1\n", wf).ok());
  EXPECT_FALSE(ParsePlan("", wf).ok());
}

TEST(PlanIoTest, RejectsMissingNodes) {
  Workflow wf = MakeWorkflow();
  std::string text =
      "hpa-plan v1\nworkers 4\nnode 0 source corpus\n";
  auto result = ParsePlan(text, wf);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(PlanIoTest, RejectsOperatorMismatch) {
  Workflow wf = MakeWorkflow();
  std::string text =
      "hpa-plan v1\nworkers 4\n"
      "node 0 source corpus\n"
      "node 1 op=join boundary=fused dict=map presize=0\n"
      "node 2 op=kmeans boundary=fused dict=map presize=0\n";
  EXPECT_FALSE(ParsePlan(text, wf).ok());
}

TEST(PlanIoTest, RejectsKindMismatch) {
  Workflow wf = MakeWorkflow();
  std::string text =
      "hpa-plan v1\nworkers 4\n"
      "node 0 op=tfidf boundary=fused dict=map presize=0\n"  // 0 is a source
      "node 1 op=tfidf boundary=fused dict=map presize=0\n"
      "node 2 op=kmeans boundary=fused dict=map presize=0\n";
  EXPECT_FALSE(ParsePlan(text, wf).ok());
}

TEST(PlanIoTest, RejectsUnknownDictAndKeys) {
  Workflow wf = MakeWorkflow();
  std::string base =
      "hpa-plan v1\nworkers 4\nnode 0 source corpus\n"
      "node 2 op=kmeans boundary=fused dict=map presize=0\n";
  EXPECT_FALSE(
      ParsePlan(base + "node 1 op=tfidf boundary=fused dict=btree presize=0\n",
                wf)
          .ok());
  EXPECT_FALSE(
      ParsePlan(base + "node 1 op=tfidf boundary=fused dict=map speed=9\n",
                wf)
          .ok());
  EXPECT_FALSE(
      ParsePlan(base + "node 1 op=tfidf boundary=sideways dict=map presize=0\n",
                wf)
          .ok());
}

TEST(PlanIoTest, RejectsDuplicateNodes) {
  Workflow wf = MakeWorkflow();
  std::string text =
      "hpa-plan v1\nworkers 4\n"
      "node 0 source corpus\n"
      "node 1 op=tfidf boundary=fused dict=map presize=0\n"
      "node 1 op=tfidf boundary=fused dict=map presize=0\n"
      "node 2 op=kmeans boundary=fused dict=map presize=0\n";
  EXPECT_FALSE(ParsePlan(text, wf).ok());
}

}  // namespace
}  // namespace hpa::core
