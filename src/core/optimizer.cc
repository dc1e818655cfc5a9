#include "core/optimizer.h"

#include <algorithm>
#include <vector>

#include "core/classifier_ops.h"
#include "core/standard_ops.h"
#include "io/sim_disk.h"

namespace hpa::core {

namespace {

/// Seconds one operator contributes to a replay: operators with dedicated
/// cost-model estimates (K-means, the classifier family) are priced by
/// them; everything else falls back to the fused phase estimate.
double OperatorReplaySeconds(const Operator* op, const CostModel& cost_model,
                             const PhaseCostEstimate& est, int workers) {
  if (const auto* kmeans = dynamic_cast<const KMeansOperator*>(op)) {
    const ops::KMeansOptions& kopts = kmeans->options();
    return cost_model.EstimateKMeansSeconds(kopts.k, kopts.max_iterations,
                                            workers);
  }
  if (dynamic_cast<const NaiveBayesTrainOperator*>(op) != nullptr) {
    // Class count is unknown at plan time; a handful is the typical shape
    // and the merge term is what dominates anyway.
    return cost_model.EstimateNbTrainSeconds(/*num_classes=*/8, workers);
  }
  if (dynamic_cast<const KnnTrainOperator*>(op) != nullptr) {
    // "Training" is one serial copy pass over the matrix (~2 ns per
    // stored nonzero) — far below the generic fused estimate.
    return cost_model.stats().documents *
           cost_model.stats().avg_distinct_per_doc * 2.0e-9;
  }
  if (dynamic_cast<const ClassifierPredictOperator*>(op) != nullptr) {
    // Worst member of the family at this edge: k-NN's quadratic scan.
    // (NB prediction is one kernel per document — noise next to this.)
    return cost_model.EstimateKnnPredictSeconds(/*train_fraction=*/1.0,
                                                workers);
  }
  return est.TotalFused();
}

/// Replay seconds a resume from a checkpoint at `id` would skip: the
/// ancestor closure of `id` (including itself), with each generic operator
/// priced at the fused phase estimate and K-means / classifier operators
/// priced by their dedicated estimates — pruning-aware, so plan costs stay
/// honest now that the pruned assignment step does a decaying fraction of
/// the kernel work.
double AncestorReplaySeconds(const Workflow& workflow, int id,
                             const CostModel& cost_model,
                             const PhaseCostEstimate& est, int workers) {
  std::vector<bool> seen(workflow.size(), false);
  std::vector<int> stack = {id};
  double seconds = 0.0;
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(n)]) continue;
    seen[static_cast<size_t>(n)] = true;
    if (workflow.IsSource(n)) continue;
    seconds += OperatorReplaySeconds(workflow.node(n).op.get(), cost_model,
                                     est, workers);
    for (int input : workflow.node(n).inputs) stack.push_back(input);
  }
  return seconds;
}

containers::DictBackend BestPaperBackend(const CostModel& model, int workers,
                                         uint64_t presize) {
  using containers::DictBackend;
  double map_cost =
      model.Estimate(DictBackend::kStdMap, workers, presize).TotalFused();
  double umap_cost =
      model.Estimate(DictBackend::kStdUnorderedMap, workers, presize)
          .TotalFused();
  return map_cost <= umap_cost ? DictBackend::kStdMap
                               : DictBackend::kStdUnorderedMap;
}

}  // namespace

ExecutionPlan OptimizeWorkflow(const Workflow& workflow,
                               const CostModel& cost_model,
                               const OptimizerOptions& options) {
  ExecutionPlan plan;
  plan.workers = options.workers > 0 ? options.workers : 1;
  plan.nodes.resize(workflow.size());

  // Rule 4: one backend decision, applied to every dictionary-using
  // operator: the interned count, or in paper mode the cheaper of the
  // paper's two containers at the planned parallelism. The interned
  // count's price is not ranked against the per-document ones until every
  // backend is priced on one host.
  containers::DictBackend backend =
      options.paper_backends_only
          ? BestPaperBackend(cost_model, plan.workers,
                             options.per_doc_dict_presize)
          : containers::DictBackend::kInterned;

  std::vector<int> sinks = workflow.SinkIds();

  // Consumer counts, for the branching-aware checkpoint rule below: a
  // shared edge (TF/IDF feeding K-means *and* a classifier trainer) is
  // replayed once per downstream recovery path, so its expected replay
  // savings scale with its fan-out.
  std::vector<int> consumers(workflow.size(), 0);
  for (size_t i = 0; i < workflow.size(); ++i) {
    if (workflow.IsSource(static_cast<int>(i))) continue;
    for (int input : workflow.node(static_cast<int>(i)).inputs) {
      ++consumers[static_cast<size_t>(input)];
    }
  }

  for (size_t i = 0; i < workflow.size(); ++i) {
    NodePlan& np = plan.nodes[i];
    np.dict_backend = backend;
    np.per_doc_dict_presize =
        static_cast<size_t>(options.per_doc_dict_presize);

    bool is_sink = std::find(sinks.begin(), sinks.end(),
                             static_cast<int>(i)) != sinks.end();
    // Rule 3: fuse interior edges; materialize sinks (and everything, when
    // the discrete baseline is requested).
    bool materialize = is_sink || options.force_materialize_intermediates;

    // Checkpoint placement rule: with a non-zero failure probability, an
    // interior edge is worth materializing when the expected replay time a
    // restart would save exceeds what the checkpoint costs — the extra
    // serial output pass over the fused transform plus the commit itself
    // (CRC read-back + manifest write).
    if (!materialize && options.failure_probability > 0.0 &&
        !workflow.IsSource(static_cast<int>(i))) {
      PhaseCostEstimate est = cost_model.Estimate(
          backend, plan.workers, options.per_doc_dict_presize,
          options.scratch_channels);
      double saved = options.failure_probability *
                     AncestorReplaySeconds(workflow, static_cast<int>(i),
                                           cost_model, est, plan.workers) *
                     static_cast<double>(
                         std::max(1, consumers[i]));
      double overhead =
          std::max(0.0, est.output_seconds - est.transform_seconds) +
          cost_model.CheckpointCommitSeconds(
              cost_model.EstimateArtifactBytes());
      materialize = saved > overhead;
    }

    np.output_boundary =
        materialize ? Boundary::kMaterialized : Boundary::kFused;

    // Out-of-core rule: under a memory ceiling, a TF/IDF edge whose
    // in-memory sparse matrix would bust the budget is priced at its
    // thrashing penalty and compared against the streaming pipeline's
    // overhead (one extra fused-shape scoring pass, a spill of the rows to
    // the scratch device read back by every later K-means iteration, and
    // per-window latency). When the penalty wins,
    // the edge streams: bounded windows, no resident matrix — and no
    // materialized artifact, so the streamed edge stays fused regardless
    // of what the checkpoint rule wanted (there is nothing on disk to
    // resume from unless a later edge buys it).
    if (options.mem_budget_bytes > 0 && !is_sink &&
        !options.force_materialize_intermediates &&
        !workflow.IsSource(static_cast<int>(i)) &&
        dynamic_cast<const TfidfOperator*>(
            workflow.node(static_cast<int>(i)).op.get()) != nullptr) {
      double penalty = CostModel::MemoryCeilingPenaltySeconds(
          cost_model.EstimateMatrixBytes(), options.mem_budget_bytes);
      if (penalty > 0.0) {
        // Streaming hands downstream a model, not a matrix — only legal
        // when every consumer of this edge is a K-means node (the one
        // windowed consumer). The spill-read multiplier is the slowest
        // consumer's iteration count.
        bool consumers_stream = consumers[i] > 0;
        int iterations = 0;
        for (size_t j = 0; j < workflow.size() && consumers_stream; ++j) {
          if (workflow.IsSource(static_cast<int>(j))) continue;
          const Workflow::Node& consumer = workflow.node(static_cast<int>(j));
          if (std::find(consumer.inputs.begin(), consumer.inputs.end(),
                        static_cast<int>(i)) == consumer.inputs.end()) {
            continue;
          }
          if (const auto* kmeans =
                  dynamic_cast<const KMeansOperator*>(consumer.op.get())) {
            iterations = std::max(iterations,
                                  kmeans->options().max_iterations);
          } else {
            consumers_stream = false;
          }
        }
        if (!consumers_stream) continue;
        uint64_t window =
            CostModel::ChooseWindowBytes(options.mem_budget_bytes);
        // The spill streams through one window lane on the plan's scratch
        // device, the HDD-class local disk.
        const io::DiskOptions scratch = io::DiskOptions::LocalHdd();
        double extra = cost_model.EstimateStreamingExtraSeconds(
            backend, plan.workers, options.per_doc_dict_presize, iterations,
            window, options.corpus_latency_sec,
            scratch.bandwidth_bytes_per_sec, scratch.latency_sec);
        // The in-memory plan sweeps the overflowing matrix once to build
        // it and once per K-means iteration — each sweep re-faults the
        // overflow, so the per-sweep penalty multiplies.
        penalty *= 1.0 + static_cast<double>(iterations);
        if (penalty > extra) {
          np.stream_corpus = true;
          np.window_bytes = window;
          np.output_boundary = Boundary::kFused;
        }
      }
    }
  }
  return plan;
}

}  // namespace hpa::core
