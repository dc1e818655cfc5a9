#ifndef HPA_OPS_EXEC_CONTEXT_H_
#define HPA_OPS_EXEC_CONTEXT_H_

#include <functional>
#include <string>

#include "common/retry.h"
#include "common/timer.h"
#include "containers/dictionary.h"
#include "io/sim_disk.h"
#include "parallel/executor.h"
#include "text/tokenizer.h"

/// \file
/// Shared execution context threaded through all operators: the executor
/// (parallelism), the storage devices, the dictionary-backend choice, and
/// the phase timer that produces the Figure-3/4 breakdowns.

namespace hpa::ops {

/// Everything an operator needs to run. Non-owning; the caller keeps the
/// executor/disks/timer alive for the duration of the operator.
struct ExecContext {
  /// Parallel runtime. Required.
  parallel::Executor* executor = nullptr;

  /// Device holding the source corpus (multi-channel store). May be null
  /// for operators that only work on in-memory data.
  io::SimDisk* corpus_disk = nullptr;

  /// Device for workflow intermediates — the paper's "local hard disk".
  /// May be null when no materialization happens.
  io::SimDisk* scratch_disk = nullptr;

  /// Dictionary backend for word-count / TF-IDF term tables (§3.4).
  /// kInterned (the default) counts worker-local term ids; the five
  /// per-document backends are the structures the paper studies.
  containers::DictBackend dict_backend = containers::DictBackend::kInterned;

  /// Pre-size of each per-document term table. The paper pre-sizes its
  /// u-map tables to 4K entries; 0 means "start minimal and grow".
  /// Applies to the per-document backends only (kInterned keeps none).
  size_t per_doc_dict_presize = 0;

  /// Tokenization parameters for text operators.
  text::TokenizerOptions tokenizer;

  /// Porter-stem tokens before counting (folds inflections onto one term,
  /// shrinking the dictionaries §3.4 studies). Off by default — the paper
  /// counts surface forms.
  bool stem_tokens = false;

  /// What input operators do with a document whose reads stay failed after
  /// the owning disk's retry budget: abort the run (kFailFast, the default
  /// and the pre-fault-tolerance behavior) or quarantine the document and
  /// continue on the rest (kRetryThenSkip). Quarantined ids surface on the
  /// operator results and in Report.
  FaultPolicy fault_policy = FaultPolicy::kFailFast;

  /// Workflow-level quarantine sink. When non-null, operators merge the
  /// items they quarantined under kRetryThenSkip into this list (in
  /// addition to surfacing them on their own results), so a workflow run
  /// can report one aggregate quarantine list — and persist it in
  /// checkpoint manifests. May be null (operators then only report
  /// per-result).
  QuarantineList* quarantine = nullptr;

  /// Crash hook for the checkpoint/restart tests and benches: when >= 0,
  /// the workflow executor aborts the run (Status kInternal) immediately
  /// after node `crash_after_node` completes — *after* its checkpoint
  /// manifest is committed. Deterministic and simulated-clock friendly: no
  /// signals, no wall time, so it composes with the fault injector and
  /// with virtual-time executors. -1 disables.
  int crash_after_node = -1;

  /// Ablation escape hatch (--serial-merge in the harnesses): fold
  /// reductions serially on the calling thread — the paper-era structure —
  /// instead of the parallel sharded/tree merge paths. Results are
  /// byte-identical either way; only the merge schedule changes.
  bool serial_merge = false;

  /// Ablation escape hatch (--flat-parallelism in the harnesses): keep
  /// every parallel region flat — tree reductions barrier between strides
  /// (ParallelTreeReduceFlat) and AssignTermIds sorts the kept-term
  /// concatenation serially — instead of the nested work-stealing spawn
  /// paths. Results are byte-identical either way; only the schedule
  /// changes. Ignored when serial_merge is set (serial subsumes flat).
  bool flat_parallelism = false;

  /// Ablation escape hatch (--no-prune in the harnesses): disable the
  /// triangle-inequality pruning of the K-means assignment step even when
  /// KMeansOptions::prune asks for it, restoring the full n×k kernel scan
  /// every iteration. Results are bit-identical either way (pruning only
  /// skips kernels whose outcome the bounds already prove); only the
  /// amount of distance work changes.
  bool no_prune = false;

  /// Semi-external mode: operators that support it consume the corpus
  /// through bounded-memory windows (io/corpus_window.h) instead of
  /// whole-corpus parallel reads, never materializing the full
  /// SparseMatrix. Set by the workflow executor from the plan.
  bool stream_windows = false;

  /// Window payload budget in bytes for stream_windows mode. 0 lets the
  /// operator pick (one window spanning the corpus — still streaming
  /// structure, no memory bound).
  uint64_t window_bytes = 0;

  /// Issue the next window's read ahead of compute (the async prefetch
  /// lane). Off = synchronous windowed reads, for the ablation baseline.
  bool prefetch_windows = true;

  /// Advisory memory ceiling in bytes for data-resident state (0 = no
  /// ceiling). The optimizer prices violations; streaming operators keep
  /// their window high-water below it.
  uint64_t mem_budget_bytes = 0;

  /// Phase timer collecting named phase durations in *executor clock*
  /// time (virtual when simulated). May be null.
  PhaseTimer* phases = nullptr;

  /// Runs `fn` and accrues its executor-clock duration under `name`.
  /// The body is responsible for its own ParallelFor/RunSerial region
  /// structure; this only brackets the clock.
  template <typename Fn>
  void TimePhase(const std::string& name, Fn fn) {
    double start = executor->Now();
    fn();
    if (phases != nullptr) phases->Add(name, executor->Now() - start);
  }
};

}  // namespace hpa::ops

#endif  // HPA_OPS_EXEC_CONTEXT_H_
