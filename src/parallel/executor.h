#ifndef HPA_PARALLEL_EXECUTOR_H_
#define HPA_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

/// \file
/// The fork/join execution abstraction that stands in for the paper's
/// Cilkplus runtime. All HPA operators express their parallelism through
/// this interface, which has three interchangeable implementations:
///
///  * `SerialExecutor`    — one worker, direct execution.
///  * `ThreadPoolExecutor`— real OS threads with per-worker work-stealing
///    deques (one mutex each: owner LIFO, thieves FIFO).
///  * `SimulatedExecutor` — executes the work for real on the calling
///    thread while maintaining a deterministic *virtual clock* that models
///    P workers (greedy scheduling + roofline bandwidth + simulated I/O).
///
/// The simulated executor is what reproduces the paper's scalability
/// figures on hosts with fewer cores than the authors' testbed.
///
/// Nested parallelism: `ParallelFor` is legally re-entrant from inside a
/// chunk body on every executor — a chunk may spawn a sub-region (or a
/// whole spawn tree), matching Cilkplus where any task can `cilk_spawn`.
/// The region stack is per logical task, and cancellation is region-scoped:
/// `RequestStop()` issued inside a nested region cancels that region (and
/// its descendants) only; the enclosing region keeps running. A stop
/// requested in an outer region is visible inside all of its nested
/// regions. The one remaining restriction is that a ThreadPoolExecutor
/// accepts at most one *root* region at a time from non-pool threads (the
/// historical "one logical stream" contract); violating it aborts with a
/// diagnostic instead of the old silent deadlock.

namespace hpa::parallel {

/// Optional annotations describing a region's resource demands; consumed by
/// the virtual-time executor's roofline model. A default-constructed hint
/// means "compute-bound, negligible memory traffic".
struct WorkHint {
  /// Approximate bytes of memory the whole region touches (reads+writes).
  uint64_t bytes_touched = 0;

  /// Label used in traces; not interpreted by executors.
  const char* label = "";
};

/// Scheduler observability counters, accumulated since executor
/// construction. Cheap enough to keep always-on; surfaced by
/// `bench/micro_parallel` and the ablation harness JSON tails.
struct SchedulerStats {
  /// Parallel regions entered (root and nested).
  uint64_t regions = 0;

  /// Tasks (loop chunks, or stealable splits of them) created.
  uint64_t tasks_spawned = 0;

  /// Tasks executed by a worker other than the one that spawned them. Real
  /// steals for the thread pool; modelled steals (greedy placement on a
  /// different virtual worker) for the simulated executor; 0 when serial.
  uint64_t steals = 0;

  /// Deepest nesting of parallel regions observed (1 = flat).
  uint64_t max_task_depth = 0;

  /// Chunks that would have been spawned as stealable tasks but ran inline
  /// in the calling context because their region fell at or below the
  /// executor's inline threshold (see Executor::set_inline_threshold).
  /// 0 unless the depth-bounded sequential fallback is enabled.
  uint64_t spawns_suppressed = 0;

  /// Chunks executed per worker, index = worker id.
  std::vector<uint64_t> per_worker_tasks;
};

/// Abstract fork/join executor. Thread-compatible: one logical stream of
/// root ParallelFor / RunSerial calls at a time, but chunk bodies may
/// re-enter ParallelFor to spawn nested regions (see file comment).
class Executor {
 public:
  /// Chunk body: receives the worker index executing the chunk (in
  /// [0, num_workers())) and the half-open item range of the chunk.
  using RangeBody = std::function<void(int worker, size_t begin, size_t end)>;

  virtual ~Executor() = default;

  /// Number of (real or virtual) workers P.
  virtual int num_workers() const = 0;

  /// Runs `body` over [begin, end) in chunks of at most `grain` items.
  /// Chunk boundaries are grain-aligned and deterministic; chunks are
  /// distributed across workers by work-stealing self-scheduling. Blocks
  /// until the whole range is processed. `grain == 0` selects an automatic
  /// grain of roughly 8 chunks per worker. May be called from inside a
  /// chunk body (nested region): the calling task's worker helps execute
  /// the sub-region, and idle workers steal its tasks.
  virtual void ParallelFor(size_t begin, size_t end, size_t grain,
                           const WorkHint& hint, const RangeBody& body) = 0;

  /// Runs `fn` on the calling thread as a serial region (it occupies all
  /// workers from the virtual clock's point of view — e.g. the ARFF output
  /// phase the paper cannot parallelize). Inside a chunk body this is just
  /// task-local work (it does not stall the other workers).
  virtual void RunSerial(const WorkHint& hint,
                         const std::function<void()>& fn) = 0;

  /// Charges `seconds` of device time to the current execution context.
  /// `channels` is the device's concurrent-request capacity: time charged
  /// from within a parallel region can overlap across workers, but the
  /// region cannot complete I/O faster than (total charged)/(channels).
  /// Called by `io::SimDisk`; not usually called by user code.
  virtual void ChargeIoTime(double seconds, int channels) = 0;

  /// Current reading of this executor's clock in seconds: virtual time for
  /// the simulated executor, wall time plus charged I/O otherwise.
  /// Monotone non-decreasing across calls.
  virtual double Now() const = 0;

  /// Executor kind, for reports ("serial", "threads", "simulated").
  virtual const char* name() const = 0;

  /// Scheduler counters accumulated since construction.
  virtual SchedulerStats scheduler_stats() const = 0;

  /// Convenience: automatic grain used when callers pass grain == 0.
  size_t AutoGrain(size_t items) const {
    size_t chunks = static_cast<size_t>(num_workers()) * 8;
    size_t grain = (items + chunks - 1) / (chunks == 0 ? 1 : chunks);
    return grain == 0 ? 1 : grain;
  }

  /// Cooperative cancellation of the *innermost* parallel region enclosing
  /// the caller. A chunk body that hits an unrecoverable error calls
  /// RequestStop(); chunks of that region (and of regions nested inside it)
  /// not yet started are then skipped (already-running chunks finish —
  /// there is no preemption), so a fail-fast operator stops paying for work
  /// whose result it will discard. ParallelFor still blocks until in-flight
  /// chunks drain, and the flag dies with its region, so an aborted nested
  /// region never poisons its parent and an aborted region never poisons
  /// the next one. Called outside any region, the request is latched and
  /// poisons the next root region (legacy fail-fast-before-start shape).
  /// Callers are responsible for recording *why* they stopped (see
  /// ops::FirstError).
  virtual void RequestStop() = 0;

  /// True once RequestStop() was called against the innermost region
  /// enclosing the caller, or against any of its ancestors. Chunk bodies
  /// poll this between items to quit early.
  virtual bool stop_requested() const = 0;

  /// Depth-bounded sequential fallback: a region whose total item count is
  /// at or below this threshold runs its chunks inline in the calling
  /// context instead of spawning stealable tasks — spawn/steal overhead
  /// (and, on the simulated executor, per-chunk spawn pricing) is skipped,
  /// and SchedulerStats::spawns_suppressed counts the chunks involved.
  /// Chunk boundaries, worker-visible results, and region-scoped
  /// cancellation semantics are unchanged; only the schedule is. 0 (the
  /// default) disables the fallback entirely, preserving the historical
  /// behavior bit-for-bit. The knob exists for callers that issue many
  /// tiny regions (e.g. the serving path's micro-batches), where spawn
  /// overhead would dominate the work.
  ///
  /// Thread-compatibility matches the executor itself: set it from the
  /// submitting thread between regions, not from inside chunk bodies.
  void set_inline_threshold(size_t items) { inline_threshold_ = items; }
  size_t inline_threshold() const { return inline_threshold_; }

 protected:
  /// Item-count threshold at or below which ParallelFor runs inline.
  size_t inline_threshold_ = 0;
};

/// Region-scoped cooperative-stop state for the single-threaded executors
/// (serial, simulated): a stack of per-region flags plus the latched
/// outside-any-region request. Not thread-safe by design — those executors
/// run everything on the calling thread.
class ScopedStopFlags {
 public:
  /// Opens a region. The root region inherits (and consumes) a pending
  /// outside-region stop request; nested regions start clean.
  void EnterRegion() {
    bool poisoned = flags_.empty() && pending_;
    if (poisoned) pending_ = false;
    flags_.push_back(poisoned ? 1 : 0);
  }

  /// Closes the innermost region, discarding its flag.
  void ExitRegion() { flags_.pop_back(); }

  /// Flags the innermost open region, or latches the request for the next
  /// root region when none is open.
  void RequestStop() {
    if (flags_.empty()) {
      pending_ = true;
    } else {
      flags_.back() = 1;
    }
  }

  /// True if the innermost region or any ancestor was flagged (a parent's
  /// stop is visible inside its nested regions, not vice versa).
  bool StopRequested() const {
    if (flags_.empty()) return pending_;
    for (char f : flags_) {
      if (f != 0) return true;
    }
    return false;
  }

  /// Current nesting depth (0 = outside all regions).
  size_t depth() const { return flags_.size(); }

 private:
  std::vector<char> flags_;
  bool pending_ = false;
};

/// Single-worker executor: direct, in-order execution (nested regions
/// simply run inline). The baseline against which self-relative speedups
/// are computed.
class SerialExecutor : public Executor {
 public:
  SerialExecutor();

  int num_workers() const override { return 1; }
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const WorkHint& hint, const RangeBody& body) override;
  void RunSerial(const WorkHint& hint,
                 const std::function<void()>& fn) override;
  void ChargeIoTime(double seconds, int channels) override;
  double Now() const override;
  const char* name() const override { return "serial"; }
  SchedulerStats scheduler_stats() const override;
  void RequestStop() override { stops_.RequestStop(); }
  bool stop_requested() const override { return stops_.StopRequested(); }

 private:
  double start_time_;
  double charged_io_ = 0.0;
  ScopedStopFlags stops_;
  SchedulerStats stats_;
};

/// Factory helpers returning the three executor kinds by name
/// ("serial" | "threads" | "simulated"); used by bench/example flag parsing.
/// Returns nullptr for an unknown kind.
std::unique_ptr<Executor> MakeExecutor(const std::string& kind, int workers);

}  // namespace hpa::parallel

#endif  // HPA_PARALLEL_EXECUTOR_H_
