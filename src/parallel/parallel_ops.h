#ifndef HPA_PARALLEL_PARALLEL_OPS_H_
#define HPA_PARALLEL_PARALLEL_OPS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "parallel/executor.h"

/// \file
/// Higher-order parallel primitives built on `Executor`: reductions and
/// worker-indexed scratch. These mirror the patterns the paper's operators
/// use (per-worker accumulators merged after a parallel loop).

namespace hpa::parallel {

/// Deterministic first-error capture for fail-fast parallel loops.
///
/// Each worker records at most one error into its own slot (no locks); the
/// recording worker also requests cooperative cancellation so pending
/// chunks are skipped. After the loop, `First()` picks the error from the
/// lowest worker slot — a stable choice, though which errors were recorded
/// at all can depend on chunk timing under real threads.
class FirstError {
 public:
  explicit FirstError(const Executor& exec)
      : slots_(static_cast<size_t>(exec.num_workers())) {}

  /// Records `status` into `worker`'s slot (first error wins per worker)
  /// and cancels the remaining chunks of the current region.
  void Record(Executor& exec, int worker, Status status) {
    if (status.ok()) return;
    Status& slot = slots_[static_cast<size_t>(worker)];
    if (slot.ok()) slot = std::move(status);
    exec.RequestStop();
  }

  /// The recorded error from the lowest worker slot, or OK if none.
  Status First() const {
    for (const Status& s : slots_) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  bool ok() const { return First().ok(); }

 private:
  std::vector<Status> slots_;
};

/// Parallel reduction over [begin, end).
///
/// `map` folds a chunk [b, e) into a worker-local accumulator of type `Acc`;
/// `combine` merges a worker accumulator into the result. Accumulators are
/// default-constructed, one per worker, and merged serially in worker order
/// (deterministic for commutative combines; callers needing bit-exact
/// floating-point sums should use a fixed grain).
///
/// \code
///   uint64_t total = ParallelReduce<uint64_t>(
///       exec, 0, docs.size(), /*grain=*/0, hint,
///       [&](uint64_t& acc, size_t b, size_t e) {
///         for (size_t i = b; i < e; ++i) acc += docs[i].tokens;
///       },
///       [](uint64_t& into, const uint64_t& from) { into += from; });
/// \endcode
template <typename Acc, typename MapFn, typename CombineFn>
Acc ParallelReduce(Executor& exec, size_t begin, size_t end, size_t grain,
                   const WorkHint& hint, MapFn map, CombineFn combine) {
  std::vector<Acc> partials(static_cast<size_t>(exec.num_workers()));
  exec.ParallelFor(begin, end, grain, hint,
                   [&](int worker, size_t b, size_t e) {
                     map(partials[static_cast<size_t>(worker)], b, e);
                   });
  Acc result{};
  for (Acc& p : partials) combine(result, p);
  return result;
}

/// Per-worker scratch storage sized to an executor's worker count.
///
/// Hands each parallel-loop chunk a stable, race-free slot. Every slot
/// starts on its own cache line, so a worker writing its counters or
/// vector ends never invalidates a neighbour's line; otherwise how much
/// two slots share would depend on where the allocator happened to put
/// the array, and the loop's speed with it. The typical HPA
/// pattern — allocate once, recycle across iterations (the paper's
/// "no new objects during K-means iterations") — looks like:
///
/// \code
///   WorkerLocal<Accumulators> scratch(exec, [&] { return MakeAcc(); });
///   for (int iter = 0; iter < n; ++iter) {
///     scratch.ForEach([](Accumulators& a) { a.Reset(); });
///     exec.ParallelFor(..., [&](int w, size_t b, size_t e) {
///       Accumulate(scratch.Get(w), b, e);
///     });
///     Merge(scratch);
///   }
/// \endcode
template <typename T>
class WorkerLocal {
 public:
  /// Creates one `T` per worker via `factory`.
  template <typename Factory>
  WorkerLocal(const Executor& exec, Factory factory) {
    slots_.reserve(static_cast<size_t>(exec.num_workers()));
    for (int i = 0; i < exec.num_workers(); ++i) {
      slots_.push_back(Slot{factory()});
    }
  }

  /// Creates one default-constructed `T` per worker.
  explicit WorkerLocal(const Executor& exec)
      : slots_(static_cast<size_t>(exec.num_workers())) {}

  T& Get(int worker) { return slots_[static_cast<size_t>(worker)].value; }
  const T& Get(int worker) const {
    return slots_[static_cast<size_t>(worker)].value;
  }

  size_t size() const { return slots_.size(); }

  /// Applies `fn` to every slot (serially, on the calling thread).
  template <typename Fn>
  void ForEach(Fn fn) {
    for (Slot& slot : slots_) fn(slot.value);
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

/// Merges a contiguous shard range from all partial sharded dictionaries
/// into `out`. Shard-major, then partials in slot order — the one merge
/// order both the serial and the parallel paths use, so their results are
/// byte-identical. `merge(out_shard, key, value)` folds one entry.
///
/// Shared by ParallelShardedMerge (each task gets a disjoint shard range)
/// and by callers that want the serial ablation path (one call covering
/// [0, num_shards) under RunSerial).
template <typename Sharded, typename MergeFn>
void MergeShardRange(WorkerLocal<Sharded>& partials, Sharded& out,
                     size_t shard_begin, size_t shard_end, MergeFn merge) {
  for (size_t s = shard_begin; s < shard_end; ++s) {
    auto& dst = out.shard(s);
    for (size_t w = 0; w < partials.size(); ++w) {
      partials.Get(static_cast<int>(w))
          .shard(s)
          .ForEach([&](const auto& key, const auto& value) {
            merge(dst, key, value);
          });
    }
  }
}

/// Parallel hash-partitioned merge: the second parallel loop of a sharded
/// reduction. Every per-worker partial dictionary is partitioned into the
/// same S shards as `out` (see containers::ShardedDict); shard s of the
/// result is produced by exactly one task that reads shard s of *all*
/// partials. Tasks therefore write disjoint shards — race-free by
/// construction, no locks or atomics — and the merge runs at O(keys / S)
/// critical path instead of the serial O(keys).
///
/// Requirements: `out.num_shards() == partials.Get(w).num_shards()` for
/// every w, and all dictionaries were populated with the same key routing
/// (automatic when they are the same ShardedDict instantiation).
///
/// Results are independent of the worker count: the shard count is a fixed
/// property of the container, each shard is merged in slot order, and the
/// chunking of shards across workers never splits a shard.
template <typename Sharded, typename MergeFn>
void ParallelShardedMerge(Executor& exec, WorkerLocal<Sharded>& partials,
                          Sharded& out, const WorkHint& hint, MergeFn merge) {
  exec.ParallelFor(0, out.num_shards(), 0, hint,
                   [&](int /*worker*/, size_t b, size_t e) {
                     MergeShardRange(partials, out, b, e, merge);
                   });
}

namespace detail {

/// Recursive fork/join reduction of slots [lo, lo+n): both halves reduce as
/// sibling tasks of a nested region, then the right root folds into the
/// left root. The split point is the largest power of two below n, which
/// makes the set of pair-combines — and the order each destination slot
/// receives them — identical to a strided, barrier-per-round schedule
/// (round r combines pairs at stride 2^r), whatever the worker count.
template <typename T, typename CombineFn>
void TreeReduceRange(Executor& exec, WorkerLocal<T>& slots, size_t lo,
                     size_t n, size_t parts, const WorkHint& hint,
                     CombineFn& combine) {
  if (n <= 1) return;
  size_t split = 1;
  while (split * 2 < n) split *= 2;
  if (split > 1 || n - split > 1) {
    // Fork: each half's interior combines start as soon as its own inputs
    // are ready — no barrier against the other half. The spawn region
    // carries no bytes hint of its own; nested combine regions price their
    // own traffic.
    WorkHint spawn_hint;
    spawn_hint.label = hint.label;
    exec.ParallelFor(0, 2, 1, spawn_hint, [&](int, size_t b, size_t e) {
      for (size_t side = b; side < e; ++side) {
        if (side == 0) {
          TreeReduceRange(exec, slots, lo, split, parts, hint, combine);
        } else {
          TreeReduceRange(exec, slots, lo + split, n - split, parts, hint,
                          combine);
        }
      }
    });
  }
  // Join: both halves reduced; fold the right root into the left root,
  // slices in parallel when the accumulator is divisible.
  T& into = slots.Get(static_cast<int>(lo));
  T& from = slots.Get(static_cast<int>(lo + split));
  if (parts <= 1) {
    combine(into, from, 0, 1);
  } else {
    exec.ParallelFor(0, parts, 1, hint, [&](int, size_t b, size_t e) {
      for (size_t part = b; part < e; ++part) combine(into, from, part, parts);
    });
  }
}

}  // namespace detail

/// In-place pairwise tree reduction over the slots of a WorkerLocal — the
/// merge schedule of a Cilk reducer hyperobject, run as a nested fork/join
/// spawn tree: a pair-combine starts the moment its two inputs are ready,
/// instead of barriering after every stride.
/// After the call, slot 0 holds the reduction of all slots; other slots are
/// consumed.
///
/// `combine(into, from, part, parts)` must fold slice `part` (of `parts`
/// disjoint slices) of `from` into the same slice of `into`; slices of one
/// pair run as independent tasks, so a single pair combine — including the
/// final root combine, which a plain pairwise tree leaves serial — can use
/// every worker. Pass `parts == 1` for indivisible accumulators.
/// `hint.bytes_touched` describes ONE pair combine.
///
/// The combines follow the binary-counter schedule (slot 0 receives slots
/// 1, 2, 4, ... in sequence), so the result depends on the slot count, not
/// on which worker ran which combine. Critical path is
/// O(log W * cost(combine)/min(W, parts)) without the per-round
/// straggler wait the barrier adds.
template <typename T, typename CombineFn>
void ParallelTreeReduce(Executor& exec, WorkerLocal<T>& slots, size_t parts,
                        const WorkHint& hint, CombineFn combine) {
  if (parts == 0) parts = 1;
  detail::TreeReduceRange(exec, slots, 0, slots.size(), parts, hint, combine);
}

/// Tree-structured overload of ParallelReduce: same map phase, but the
/// per-worker partials are combined pairwise in log2(W) parallel rounds
/// instead of a serial fold on the calling thread. `combine` has the same
/// `(into, from)` signature as ParallelReduce's. Prefer this when the
/// accumulator is large (dictionaries, centroid sums) and W is high — the
/// serial fold is exactly the Amdahl term that flattens scalability.
template <typename Acc, typename MapFn, typename CombineFn>
Acc ParallelTreeReduce(Executor& exec, size_t begin, size_t end, size_t grain,
                       const WorkHint& hint, MapFn map, CombineFn combine) {
  WorkerLocal<Acc> partials(exec);
  exec.ParallelFor(begin, end, grain, hint,
                   [&](int worker, size_t b, size_t e) {
                     map(partials.Get(worker), b, e);
                   });
  ParallelTreeReduce(
      exec, partials, 1, hint,
      [&](Acc& into, Acc& from, size_t /*part*/, size_t /*parts*/) {
        combine(into, from);
      });
  Acc result{};
  combine(result, partials.Get(0));
  return result;
}

}  // namespace hpa::parallel

#endif  // HPA_PARALLEL_PARALLEL_OPS_H_
