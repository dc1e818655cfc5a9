#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hpa::parallel {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pool identity of the current thread. A thread belongs to at most one
// ThreadPoolExecutor for its entire lifetime, so plain thread_locals
// suffice even when several pools coexist in one process.
thread_local ThreadPoolExecutor* tl_pool = nullptr;
thread_local int tl_worker = -1;

// Set while a non-pool thread is running an *inline* root region of this
// pool (it holds the one-root-submitter slot for the duration). Nested
// ParallelFor calls from that thread must be treated as nested regions,
// not as competing root submissions.
thread_local ThreadPoolExecutor* tl_inline_root = nullptr;

}  // namespace

thread_local ThreadPoolExecutor::Region*
    ThreadPoolExecutor::tl_current_region_ = nullptr;

// --- Work-stealing deque ----------------------------------------------------
//
// One mutex per worker guards a std::deque of tasks. The owner pushes and
// pops at the back (LIFO); thieves take from the front (FIFO). A task is a
// chunk range that splits down to single chunks, so each lock hold is a
// few pointer moves against a chunk body's microseconds of work.
class ThreadPoolExecutor::Deque {
 public:
  /// Owner. Pushes `t` at the back.
  void Push(Task* t) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(t);
  }

  /// Owner. Pops the most recently pushed task, or nullptr.
  Task* Pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return nullptr;
    Task* t = tasks_.back();
    tasks_.pop_back();
    return t;
  }

  /// Any thread. Steals the oldest task, or nullptr.
  Task* Steal() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return nullptr;
    Task* t = tasks_.front();
    tasks_.pop_front();
    return t;
  }

 private:
  std::mutex mu_;
  std::deque<Task*> tasks_;
};

// --- Pool lifecycle ---------------------------------------------------------

ThreadPoolExecutor::ThreadPoolExecutor(int workers)
    : start_time_(MonotonicSeconds()) {
  if (workers < 1) workers = 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    auto ws = std::make_unique<WorkerState>();
    ws->deque = std::make_unique<Deque>();
    workers_.push_back(std::move(ws));
  }
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

// --- Worker main loop -------------------------------------------------------

void ThreadPoolExecutor::WorkerLoop(int worker) {
  tl_pool = this;
  tl_worker = worker;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [this] {
        return shutting_down_ ||
               active_regions_.load(std::memory_order_acquire) > 0;
      });
      if (shutting_down_) return;
    }
    // Busy phase: drain work while any region is active. Between misses we
    // yield rather than sleep — regions are short-lived and the next task
    // is usually microseconds away.
    while (active_regions_.load(std::memory_order_acquire) > 0) {
      Task* t = FindWork(worker);
      if (t != nullptr) {
        RunTask(t, worker);
      } else {
        std::this_thread::yield();
      }
    }
  }
}

ThreadPoolExecutor::Task* ThreadPoolExecutor::FindWork(int worker) {
  // 1. Own deque, LIFO: the task pushed last is the cache-warm one.
  Task* t = workers_[static_cast<size_t>(worker)]->deque->Pop();
  if (t != nullptr) return t;
  // 2. Injection queue: root tasks submitted from outside the pool.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!injected_.empty()) {
      t = injected_.front();
      injected_.pop_front();
      return t;
    }
  }
  // 3. Steal sweep, FIFO from victims: oldest task = widest chunk range.
  int n = static_cast<int>(workers_.size());
  for (int off = 1; off < n; ++off) {
    int victim = (worker + off) % n;
    t = workers_[static_cast<size_t>(victim)]->deque->Steal();
    if (t != nullptr) {
      workers_[static_cast<size_t>(worker)]->steals.fetch_add(
          1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

// --- Task execution ---------------------------------------------------------

void ThreadPoolExecutor::RunTask(Task* task, int worker) {
  Region* r = task->region;
  Region* prev_region = tl_current_region_;
  tl_current_region_ = r;

  size_t c0 = task->chunk_begin;
  size_t c1 = task->chunk_end;
  WorkerState& ws = *workers_[static_cast<size_t>(worker)];
  if (!r->StopRequested()) {
    // Binary splitting: keep the lower half, expose the upper half to
    // thieves. Splits are on *chunk indices*, so chunk boundaries (and any
    // reduction order derived from them) are identical to the serial
    // executor's fixed grain-aligned chunks.
    while (c1 - c0 > 1) {
      size_t mid = c0 + (c1 - c0) / 2;
      r->tasks_outstanding.fetch_add(1, std::memory_order_relaxed);
      ws.deque->Push(new Task{r, mid, c1});
      ws.spawned.fetch_add(1, std::memory_order_relaxed);
      c1 = mid;
    }
    if (!r->StopRequested()) {
      size_t b = r->begin + c0 * r->grain;
      size_t e = std::min(b + r->grain, r->end);
      (*r->body)(worker, b, e);
      ws.executed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  tl_current_region_ = prev_region;
  delete task;
  CompleteTask(r);
}

void ThreadPoolExecutor::CompleteTask(Region* region) {
  bool notify = region->notify_on_done;
  if (region->tasks_outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (notify) {
      // Empty critical section: pairs with the submitter's wait-under-mu_
      // so this notify cannot fire between its predicate check and sleep.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPoolExecutor::NoteRegion(const Region& region) {
  regions_.fetch_add(1, std::memory_order_relaxed);
  uint64_t depth = region.depth;
  uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void ThreadPoolExecutor::SeedRegion(Region* region, size_t num_chunks,
                                    int worker) {
  NoteRegion(*region);
  region->tasks_outstanding.store(1, std::memory_order_relaxed);
  Task* root = new Task{region, 0, num_chunks};
  if (worker >= 0) {
    WorkerState& ws = *workers_[static_cast<size_t>(worker)];
    ws.deque->Push(root);
    ws.spawned.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    injected_.push_back(root);
  }
  // Wake sleepers so they can steal; cheap no-op when all are busy.
  wake_cv_.notify_all();
}

void ThreadPoolExecutor::JoinAsWorker(Region* region, int worker) {
  // Help-first join: instead of blocking, the spawning worker keeps
  // executing tasks — preferentially its own, which are exactly the
  // sub-region's thanks to LIFO order — until the sub-region drains.
  while (region->tasks_outstanding.load(std::memory_order_acquire) > 0) {
    Task* t = FindWork(worker);
    if (t != nullptr) {
      RunTask(t, worker);
    } else {
      std::this_thread::yield();
    }
  }
}

void ThreadPoolExecutor::RunRegionBlocking(Region* region,
                                           size_t num_chunks) {
  region->notify_on_done = true;
  active_regions_.fetch_add(1, std::memory_order_acq_rel);
  SeedRegion(region, num_chunks, /*worker=*/-1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [region] {
      return region->tasks_outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  active_regions_.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadPoolExecutor::ClaimRoot(Region* region) {
  // Enforce the one-logical-stream contract loudly instead of deadlocking
  // a second submitter.
  bool expected = false;
  if (!external_active_.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "ThreadPoolExecutor: ParallelFor called from a second "
                 "non-pool thread while a root region is active. The "
                 "executor accepts one logical stream of root regions; use "
                 "nested ParallelFor from inside a chunk body instead.\n");
    std::abort();
  }
  // A stop requested before the region began poisons this region only.
  region->stop.store(pending_stop_.exchange(false, std::memory_order_acq_rel),
                     std::memory_order_release);
  root_region_.store(region, std::memory_order_release);
}

void ThreadPoolExecutor::ReleaseRoot() {
  root_region_.store(nullptr, std::memory_order_release);
  external_active_.store(false, std::memory_order_release);
}

// --- Public interface -------------------------------------------------------

void ThreadPoolExecutor::RunRegionInline(Region* region, int worker) {
  // Depth-bounded fallback: the calling thread executes every chunk itself
  // in order. Nothing is pushed, so there is no spawn or steal traffic; the
  // region still gets its own stop scope (cancellation semantics are
  // unchanged) and the usual regions/max-depth accounting.
  NoteRegion(*region);
  Region* prev_region = tl_current_region_;
  tl_current_region_ = region;
  size_t num_chunks = (region->end - region->begin + region->grain - 1) /
                      region->grain;
  const bool pool_thread = tl_pool == this;
  for (size_t c = 0; c < num_chunks; ++c) {
    if (region->StopRequested()) break;
    size_t b = region->begin + c * region->grain;
    size_t e = std::min(b + region->grain, region->end);
    (*region->body)(worker, b, e);
    if (pool_thread) {
      WorkerState& ws = *workers_[static_cast<size_t>(worker)];
      ws.executed.fetch_add(1, std::memory_order_relaxed);
      ws.suppressed.fetch_add(1, std::memory_order_relaxed);
    } else {
      suppressed_external_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  tl_current_region_ = prev_region;
}

void ThreadPoolExecutor::ParallelFor(size_t begin, size_t end, size_t grain,
                                     const WorkHint& hint,
                                     const RangeBody& body) {
  (void)hint;
  if (begin >= end) return;
  if (grain == 0) grain = AutoGrain(end - begin);
  size_t num_chunks = (end - begin + grain - 1) / grain;

  Region region;
  region.body = &body;
  region.begin = begin;
  region.end = end;
  region.grain = grain;

  const bool inline_region =
      inline_threshold_ > 0 && end - begin <= inline_threshold_;

  if (tl_pool == this || tl_inline_root == this) {
    // Nested region, spawned from inside a chunk body of this pool or of an
    // inline root region running on the submitting (non-pool) thread. That
    // thread already holds the one-root-submitter slot, so this is not a
    // second root.
    region.parent = tl_current_region_;
    region.depth = region.parent != nullptr ? region.parent->depth + 1 : 1;
    const bool pool_thread = tl_pool == this;
    if (inline_region) {
      // Below the task-size threshold the spawning thread just runs the
      // chunks itself — it would have executed most of them anyway (help-
      // first join), and the deque/steal traffic costs more than the work.
      RunRegionInline(&region, pool_thread ? tl_worker : 0);
    } else if (pool_thread) {
      active_regions_.fetch_add(1, std::memory_order_acq_rel);
      SeedRegion(&region, num_chunks, tl_worker);
      JoinAsWorker(&region, tl_worker);
      active_regions_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      // The submitting thread owns no deque: seed through the injection
      // queue and block while pool workers execute the chunks.
      RunRegionBlocking(&region, num_chunks);
    }
    return;
  }

  // Root region from a non-pool thread.
  ClaimRoot(&region);
  if (inline_region) {
    // Tiny root region: run the chunks on the calling thread as worker 0.
    // No pool worker executes anything while the root slot is held and no
    // tasks are seeded, so worker-indexed scratch under index 0 stays
    // race-free.
    tl_inline_root = this;
    RunRegionInline(&region, /*worker=*/0);
    tl_inline_root = nullptr;
  } else {
    RunRegionBlocking(&region, num_chunks);
  }
  ReleaseRoot();
}

void ThreadPoolExecutor::RunSerial(const WorkHint& hint,
                                   const std::function<void()>& fn) {
  (void)hint;
  fn();
}

void ThreadPoolExecutor::ChargeIoTime(double seconds, int channels) {
  (void)channels;  // real overlap happens on the real device
  // Accumulate in integer picoseconds with rounding. A truncating cast at
  // nanosecond resolution loses up to 1ns per call, which compounds across
  // millions of small charges; llround at picosecond resolution keeps the
  // worst-case error at 0.5ps per call (2^63 ps ≈ 106 days of charge, far
  // beyond any run).
  charged_io_picos_.fetch_add(std::llround(seconds * 1e12),
                              std::memory_order_relaxed);
}

double ThreadPoolExecutor::Now() const {
  return (MonotonicSeconds() - start_time_) + charged_io_seconds();
}

double ThreadPoolExecutor::charged_io_seconds() const {
  return static_cast<double>(
             charged_io_picos_.load(std::memory_order_relaxed)) *
         1e-12;
}

SchedulerStats ThreadPoolExecutor::scheduler_stats() const {
  SchedulerStats s;
  s.regions = regions_.load(std::memory_order_relaxed);
  s.max_task_depth = max_depth_.load(std::memory_order_relaxed);
  s.per_worker_tasks.reserve(workers_.size());
  s.spawns_suppressed = suppressed_external_.load(std::memory_order_relaxed);
  for (const auto& ws : workers_) {
    s.tasks_spawned += ws->spawned.load(std::memory_order_relaxed);
    s.steals += ws->steals.load(std::memory_order_relaxed);
    s.spawns_suppressed += ws->suppressed.load(std::memory_order_relaxed);
    s.per_worker_tasks.push_back(ws->executed.load(std::memory_order_relaxed));
  }
  return s;
}

void ThreadPoolExecutor::RequestStop() {
  if ((tl_pool == this || tl_inline_root == this) &&
      tl_current_region_ != nullptr) {
    // From inside a chunk body: stop the innermost region only.
    tl_current_region_->stop.store(true, std::memory_order_release);
    return;
  }
  // From the submitting thread (between regions, or concurrently with one):
  // stop the active root region if any, else latch for the next one.
  Region* root = root_region_.load(std::memory_order_acquire);
  if (root != nullptr) {
    root->stop.store(true, std::memory_order_release);
  } else {
    pending_stop_.store(true, std::memory_order_release);
  }
}

bool ThreadPoolExecutor::stop_requested() const {
  if ((tl_pool == this || tl_inline_root == this) &&
      tl_current_region_ != nullptr) {
    return tl_current_region_->StopRequested();
  }
  Region* root = root_region_.load(std::memory_order_acquire);
  if (root != nullptr) return root->stop.load(std::memory_order_acquire);
  return pending_stop_.load(std::memory_order_acquire);
}

}  // namespace hpa::parallel
