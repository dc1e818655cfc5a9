#ifndef HPA_PARALLEL_THREAD_POOL_H_
#define HPA_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/executor.h"

/// \file
/// Real-thread executor: a persistent pool whose workers own work-stealing
/// deques — the execution model of the Cilkplus runtime the paper's
/// operators were written for. Each deque is a std::deque of tasks under a
/// per-worker mutex. Owners push and pop tasks LIFO (depth-first,
/// cache-warm); idle workers steal FIFO from the opposite end
/// (breadth-first, the oldest and therefore largest splits).

namespace hpa::parallel {

/// Executor backed by `workers` OS threads created at construction and
/// joined at destruction. A parallel loop becomes one root task covering
/// the whole grain-aligned chunk range; executing a task repeatedly splits
/// off its upper half as a stealable sibling until a single chunk remains,
/// so skewed per-chunk costs rebalance exactly as they do under randomized
/// work stealing.
///
/// Nested parallelism: a chunk body may call ParallelFor again. The
/// spawning worker seeds its own deque with the sub-region's root task and
/// then *helps*: it pops (or steals) tasks until the sub-region drains, so
/// a blocked join never idles a worker. Cancellation is region-scoped —
/// see Executor::RequestStop.
///
/// Root regions must come from one non-pool thread at a time (one logical
/// stream of root regions). A second non-pool thread submitting mid-region
/// aborts with a diagnostic rather than deadlocking. The submitting thread
/// executes chunks only of regions at or below the inline threshold, as
/// worker 0 while no pool worker runs; worker indices passed to bodies are
/// stable per pool thread, so worker-indexed scratch (e.g. per-worker
/// K-means accumulators) is race-free.
class ThreadPoolExecutor : public Executor {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPoolExecutor(int workers);

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  ~ThreadPoolExecutor() override;

  int num_workers() const override { return static_cast<int>(threads_.size()); }
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const WorkHint& hint, const RangeBody& body) override;
  void RunSerial(const WorkHint& hint,
                 const std::function<void()>& fn) override;
  void ChargeIoTime(double seconds, int channels) override;
  double Now() const override;
  const char* name() const override { return "threads"; }
  SchedulerStats scheduler_stats() const override;
  void RequestStop() override;
  bool stop_requested() const override;

  /// Total simulated device time charged so far, in seconds. Exposed so
  /// tests can pin down the accumulator's rounding behaviour (many tiny
  /// charges must not vanish to truncation) without wall-clock noise.
  double charged_io_seconds() const;

 private:
  struct Region;
  struct Task;
  class Deque;

  /// One parallel region (root or nested). Lives on the stack of the
  /// submitting/spawning thread for the duration of the ParallelFor call.
  struct Region {
    const RangeBody* body = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    /// Tasks created but not yet completed; the region is done at 0.
    std::atomic<size_t> tasks_outstanding{0};
    /// Region-scoped cancellation flag (see StopRequested()).
    std::atomic<bool> stop{false};
    /// Enclosing region of the spawning task, nullptr for root regions.
    Region* parent = nullptr;
    /// Nesting depth, 1 for root regions.
    uint32_t depth = 1;
    /// Set when a blocked non-pool thread joins the region on done_cv_;
    /// pool workers join by helping instead.
    bool notify_on_done = false;

    /// True if this region or any ancestor was asked to stop.
    bool StopRequested() const {
      for (const Region* r = this; r != nullptr; r = r->parent) {
        if (r->stop.load(std::memory_order_acquire)) return true;
      }
      return false;
    }
  };

  /// A stealable unit: a contiguous range of grain-aligned chunks of one
  /// region. Heap-allocated; freed by whichever worker executes it.
  struct Task {
    Region* region;
    size_t chunk_begin;
    size_t chunk_end;
  };

  /// Per-worker mutable state, cache-line separated.
  struct alignas(64) WorkerState {
    std::unique_ptr<Deque> deque;
    std::atomic<uint64_t> executed{0};  // chunks run on this worker
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> spawned{0};
    std::atomic<uint64_t> suppressed{0};  // chunks run inline (no spawn)
  };

  /// Innermost region whose task this thread is currently executing; used
  /// to parent nested regions and to scope RequestStop(). Per-thread, not
  /// per-pool: a thread runs tasks of exactly one pool.
  static thread_local Region* tl_current_region_;

  void WorkerLoop(int worker);
  /// Executes one task: splits it down to a single chunk (spawning
  /// stealable right halves), runs the body unless cancelled, completes.
  void RunTask(Task* task, int worker);
  /// Own deque -> injection queue -> steal sweep. Null when empty-handed.
  Task* FindWork(int worker);
  /// Counts `region` and raises the max-depth high-water mark.
  void NoteRegion(const Region& region);
  /// Creates and enqueues the root task of `region`, sized `num_chunks`.
  void SeedRegion(Region* region, size_t num_chunks, int worker);
  /// Help-first join: execute/steal tasks until `region` drains.
  void JoinAsWorker(Region* region, int worker);
  /// Seeds `region` through the injection queue and blocks the calling
  /// (non-pool) thread until pool workers drain it.
  void RunRegionBlocking(Region* region, size_t num_chunks);
  void CompleteTask(Region* region);
  /// Takes the one-root-submitter slot for `region` — aborting with a
  /// diagnostic if another non-pool thread holds it — and hands the region
  /// any stop requested since the last root region.
  void ClaimRoot(Region* region);
  void ReleaseRoot();

  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<WorkerState>> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers sleep here between regions
  std::condition_variable done_cv_;  // root submitters wait here
  std::deque<Task*> injected_;       // root tasks, guarded by mu_
  bool shutting_down_ = false;       // guarded by mu_

  std::atomic<int> active_regions_{0};
  std::atomic<bool> external_active_{false};  // one root submitter at a time
  std::atomic<Region*> root_region_{nullptr};
  std::atomic<bool> pending_stop_{false};  // RequestStop outside any region

  /// Runs `region`'s chunks inline on the calling thread as `worker` (the
  /// depth-bounded fallback; no tasks are pushed, nothing is stealable).
  void RunRegionInline(Region* region, int worker);

  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> max_depth_{0};
  /// Chunks suppressed by inline root regions run on non-pool threads
  /// (which have no WorkerState slot of their own).
  std::atomic<uint64_t> suppressed_external_{0};

  double start_time_;
  std::atomic<int64_t> charged_io_picos_{0};
};

}  // namespace hpa::parallel

#endif  // HPA_PARALLEL_THREAD_POOL_H_
