#ifndef HPA_CORE_OPTIMIZER_H_
#define HPA_CORE_OPTIMIZER_H_

#include <cstdint>

#include "core/cost_model.h"
#include "core/plan.h"
#include "core/workflow.h"

/// \file
/// The workflow optimizer: turns a workflow plus machine/workload
/// knowledge into an ExecutionPlan, applying the paper's four
/// optimizations as rules:
///
///  1. intra-node parallelism — plan for the machine's full worker count;
///  2. parallel input — implied: source reads happen inside parallel loops;
///  3. workflow fusion — edges default to in-memory (fused) boundaries;
///     materialization only where requested (spill/checkpoint) or at sinks;
///  4. data-structure selection — the interned count; in paper mode the
///     per-operator dictionary backend (map vs u-map) chosen by the cost
///     model *at the planned worker count* (the choice flips as
///     parallelism grows, §3.4).

namespace hpa::core {

/// Optimizer knobs.
struct OptimizerOptions {
  /// Target worker count (optimization 1). <= 0 means "keep plan default".
  int workers = 16;

  /// Force every intermediate edge to materialize (the paper's discrete
  /// baseline; useful for A/B runs and for checkpointing semantics).
  bool force_materialize_intermediates = false;

  /// Per-document table pre-size to plan with (the paper's 4K policy when
  /// hash backends are chosen; 0 = grow on demand).
  uint64_t per_doc_dict_presize = 0;

  /// Choose between the paper's two backends (std::map /
  /// std::unordered_map) by cost instead of planning the interned count.
  bool paper_backends_only = false;

  /// Channel count of the scratch device the plan will run against.
  /// > 1 means materialized edges use sharded-ARFF output, whose
  /// scoring+formatting pass parallelizes — which lowers the overhead
  /// side of the checkpoint placement rule below.
  int scratch_channels = 1;

  /// Probability that a run dies mid-dag (environment knowledge, e.g.
  /// observed fault rates). > 0 enables the checkpoint placement rule: an
  /// interior edge is materialized — and therefore checkpointed by the
  /// executor — when the expected replay time saved on a restart
  /// (failure_probability x cost of the edge's ancestor operators,
  /// weighted by the edge's consumer count: a branching edge shared by
  /// K-means and a classifier trainer is replayed once per recovery path)
  /// exceeds the materialization + checkpoint-commit overhead
  /// (CostModel::CheckpointCommitSeconds). 0 leaves rule 3 untouched.
  double failure_probability = 0.0;

  /// Memory ceiling in bytes for data-resident state (0 = unlimited).
  /// > 0 enables the out-of-core rule: a TF/IDF edge whose in-memory
  /// sparse matrix (CostModel::EstimateMatrixBytes) would bust the
  /// ceiling is compared at its priced thrashing penalty against the
  /// streaming pipeline's cost — one scoring pass plus a spill of the
  /// rows to scratch, read back once per later K-means iteration
  /// (CostModel::EstimateStreamingExtraSeconds); when the penalty wins,
  /// the edge flips to NodePlan::stream_corpus with
  /// CostModel::ChooseWindowBytes(mem_budget_bytes) windows. A streamed
  /// edge stays fused — there is no materialized artifact to checkpoint
  /// unless one is bought explicitly downstream.
  uint64_t mem_budget_bytes = 0;

  /// Per-window access latency of the corpus device, for pricing the
  /// streaming pipeline's window acquisitions (HDD-order seek by
  /// default).
  double corpus_latency_sec = 0.005;
};

/// Produces a plan for `workflow` using `cost_model` and `options`.
///
/// Sinks are always materialized (final outputs must land on storage);
/// interior edges are fused unless forced. Dictionary backends are chosen
/// per operator by the cost model at the planned worker count.
ExecutionPlan OptimizeWorkflow(const Workflow& workflow,
                               const CostModel& cost_model,
                               const OptimizerOptions& options);

}  // namespace hpa::core

#endif  // HPA_CORE_OPTIMIZER_H_
