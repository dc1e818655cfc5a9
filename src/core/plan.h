#ifndef HPA_CORE_PLAN_H_
#define HPA_CORE_PLAN_H_

#include <string>
#include <vector>

#include "containers/dictionary.h"
#include "core/operator.h"

/// \file
/// An execution plan binds the paper's four optimization decisions to a
/// workflow: how parallel to run (1), where datasets cross boundaries
/// in memory vs via disk (3), and which dictionary backend each operator
/// uses (4). Parallel input (2) follows from (1): storage reads issued
/// inside parallel loops overlap automatically.

namespace hpa::core {

/// Per-node plan choices.
struct NodePlan {
  /// How this node's output reaches its consumers.
  Boundary output_boundary = Boundary::kFused;

  /// Dictionary backend for this operator's term tables.
  containers::DictBackend dict_backend = containers::DictBackend::kInterned;

  /// Per-document table pre-size (0 = grow on demand; per-document
  /// backends only).
  size_t per_doc_dict_presize = 0;

  /// Semi-external input: this operator consumes the corpus through
  /// bounded windows (io/corpus_window.h) instead of materializing the
  /// full sparse matrix. Chosen by the optimizer when the in-memory
  /// footprint would bust OptimizerOptions::mem_budget_bytes.
  bool stream_corpus = false;

  /// Window payload budget in bytes when stream_corpus is set (0 lets the
  /// operator pick).
  uint64_t window_bytes = 0;
};

/// A complete plan for one workflow execution.
struct ExecutionPlan {
  /// Worker count for every parallel region.
  int workers = 1;

  /// Choice vector, indexed by workflow node id (sources ignored).
  std::vector<NodePlan> nodes;

  /// Human-readable plan dump for reports.
  std::string ToString(const class Workflow& workflow) const;
};

}  // namespace hpa::core

#endif  // HPA_CORE_PLAN_H_
