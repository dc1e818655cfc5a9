#ifndef HPA_CORE_COST_MODEL_H_
#define HPA_CORE_COST_MODEL_H_

#include <cstdint>

#include "containers/dictionary.h"
#include "parallel/machine_model.h"

/// \file
/// The analytic cost model behind the workflow optimizer. §3.4 ends with
/// the observation that the data-structure choice "must be taken
/// judiciously, depending on the overall time taken by each step of the
/// workflow and also on the extent to which each phase can be parallelized"
/// — this model is that judgement, made explicit: per-backend operation
/// costs and footprints, combined with a roofline over the machine's
/// bandwidth and each phase's parallelizability.

namespace hpa::core {

/// Statistical description of a text workload (obtainable from corpus
/// profiles or a prior run).
struct WorkloadStats {
  uint64_t documents = 0;
  uint64_t total_tokens = 0;
  uint64_t distinct_words = 0;

  /// Average number of *distinct* words per document (per-doc table size).
  double avg_distinct_per_doc = 0.0;
};

/// Per-backend dictionary cost parameters (rough nanosecond-scale costs on
/// a paper-era core; relative magnitudes are what matters).
struct DictCostParams {
  double insert_ns = 0.0;       ///< FindOrInsert on a growing table
  double df_tick_ns = 0.0;      ///< df tick per document entry
  double lookup_ns = 0.0;       ///< Find on a built table
  double bytes_per_entry = 0.0; ///< steady-state bytes per stored word
  double fixed_table_bytes = 0.0; ///< per-table overhead (bucket arrays)
  bool sorted_iteration = false;  ///< free sorted term-id assignment

  /// Built-in defaults for a backend, reflecting the paper's measured
  /// ordering: tree inserts beat the (resize-burdened, memory-hungry)
  /// chained hash; hash lookups beat the tree's O(log n).
  static DictCostParams Defaults(containers::DictBackend backend,
                                 uint64_t per_doc_presize);
};

/// Predicted per-phase times for one backend choice at a worker count.
struct PhaseCostEstimate {
  double input_wc_seconds = 0.0;
  double transform_seconds = 0.0;
  /// Discrete ARFF scoring+write: strictly serial on single-channel
  /// scratch (the classic format constraint), parallel when the estimate
  /// was made for a multi-channel device (sharded-ARFF output).
  double output_seconds = 0.0;
  double dict_bytes = 0.0;       ///< predicted dictionary footprint

  double TotalFused() const { return input_wc_seconds + transform_seconds; }
};

/// Cost model instance: machine + workload.
class CostModel {
 public:
  CostModel(const parallel::MachineModel& machine, const WorkloadStats& stats)
      : machine_(machine), stats_(stats) {}

  /// Predicts phase times for `backend` with `workers` parallel workers and
  /// the given per-document table pre-size. `output_channels` is the
  /// scratch device's channel count: 1 models the serial single-file ARFF
  /// pass, > 1 the sharded-ARFF output whose scoring+formatting work
  /// parallelizes across workers (shard writes overlap at the device, so
  /// only the CPU side remains in this estimate — disk time comes from the
  /// disk model, as ever).
  PhaseCostEstimate Estimate(containers::DictBackend backend, int workers,
                             uint64_t per_doc_presize,
                             int output_channels = 1) const;

  /// The per-document backend (one of kAllDictBackends) minimizing fused
  /// workflow time at `workers` — the §3.4 choice.
  containers::DictBackend BestBackend(int workers,
                                      uint64_t per_doc_presize) const;

  /// Predicted size of the sparse-ARFF artifact a materialized edge leaves
  /// on the scratch disk (score rows + attribute header).
  uint64_t EstimateArtifactBytes() const;

  /// Predicted resident bytes of the in-memory TF/IDF SparseMatrix: one
  /// (id, value) pair per stored score plus per-row vector headers. This
  /// is what a fused in-memory TF/IDF→K-means edge keeps live for the
  /// whole clustering phase — the footprint the memory-ceiling term
  /// prices.
  uint64_t EstimateMatrixBytes() const;

  /// Seconds of thrash penalty ONE full sweep over `resident_bytes` of
  /// data-resident state pays when it exceeds `budget_bytes`: the overflow
  /// priced at random-fault swap throughput (every overflowing byte is
  /// evicted and read back per sweep — the classic thrashing cliff,
  /// linearized). Callers multiply by the consumer's sweep count; an
  /// iterative K-means re-faults the overflow every iteration. 0 when the
  /// state fits or no budget is set.
  static double MemoryCeilingPenaltySeconds(uint64_t resident_bytes,
                                            uint64_t budget_bytes);

  /// Extra seconds the streaming TF/IDF→K-means pipeline pays over the
  /// in-memory plan: every K-means iteration re-scores the corpus from
  /// window bytes (one fused-phase-shaped pass per iteration) and each
  /// window acquisition pays the device latency once per pass. This is
  /// the price of never holding the matrix; the optimizer flips to
  /// streaming when the memory-ceiling penalty of the in-memory plan
  /// exceeds it.
  double EstimateStreamingExtraSeconds(containers::DictBackend backend,
                                       int workers, uint64_t per_doc_presize,
                                       int kmeans_iterations,
                                       uint64_t window_bytes,
                                       double device_latency_sec) const;

  /// Window payload budget for a memory ceiling: half the budget (current
  /// window + one prefetched stays under it), clamped to at least 64 KiB
  /// so windows amortize per-window latency. 0 budget → 0 (operator
  /// default).
  static uint64_t ChooseWindowBytes(uint64_t budget_bytes);

  /// Expected fraction of documents whose pruned assignment step still
  /// pays the full k-way kernel scan in (0-based) iteration `iteration`.
  /// Iteration 0 is always exact (no bounds exist yet); after that the
  /// exact fraction decays geometrically toward a floor as centroids
  /// settle and drift-loosened bounds keep holding — the measured shape of
  /// bench/ablation_kmeans_prune on both corpora.
  static double PrunedExactFraction(int iteration);

  /// Predicted seconds for a K-means run over this workload: `iterations`
  /// assignment sweeps (each document × k sparse kernels of
  /// ~avg_distinct_per_doc nonzeros, parallel over documents) plus the
  /// serial per-iteration merge/finalize term (k × vocabulary, the Amdahl
  /// term of Figure 1). With `prune` the per-document kernel count drops
  /// to f·k + (1−f)·1 at exact fraction f = PrunedExactFraction(t) —
  /// skipped documents still pay one kernel to their assigned centroid
  /// (the bit-identity discipline). Used by the optimizer to price the
  /// replay a checkpoint under a K-means node would save.
  double EstimateKMeansSeconds(int k, int iterations, int workers,
                               bool prune) const;

  /// Predicted seconds for a Naive Bayes training pass over this
  /// workload: one fixed-point accumulate per stored nonzero (parallel
  /// over documents) plus the serial accumulator-tree merge and
  /// log-likelihood finalize terms (num_classes × vocabulary cells each —
  /// the same Amdahl shape as the K-means merge). Used by the optimizer to
  /// price classifier-trainer ancestors in the checkpoint placement rule.
  double EstimateNbTrainSeconds(int num_classes, int workers) const;

  /// Predicted seconds for a k-NN prediction pass: every query row pays
  /// one sparse distance kernel (~avg_distinct_per_doc nonzeros) per
  /// training row, parallel over queries. `train_fraction` is the share
  /// of documents frozen as training rows (1.0 = self-classification of
  /// the whole corpus, the ablation's shape).
  double EstimateKnnPredictSeconds(double train_fraction, int workers) const;

  /// Seconds to *commit* a checkpoint for an artifact of `bytes`: the
  /// CRC-32 read-back of the artifact plus the manifest write, priced at
  /// the scratch device's single-channel bandwidth. This is the overhead a
  /// checkpointed edge pays on top of materialization itself; the
  /// optimizer weighs it against expected replay savings
  /// (OptimizerOptions::failure_probability).
  double CheckpointCommitSeconds(uint64_t bytes) const;

  const WorkloadStats& stats() const { return stats_; }

 private:
  parallel::MachineModel machine_;
  WorkloadStats stats_;
};

}  // namespace hpa::core

#endif  // HPA_CORE_COST_MODEL_H_
