// Nested fork/join scheduler suite (ctest label "scheduler", with a TSan
// twin): nested-region correctness on every executor, region-scoped
// cancellation, randomized nested-DAG stress, scheduler observability
// counters, tree-reduce bit-equivalence with a strided serial replay, and
// the one-root-region guard on the thread pool.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "parallel/executor.h"
#include "parallel/machine_model.h"
#include "parallel/parallel_ops.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"

#if defined(__SANITIZE_THREAD__)
#define HPA_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HPA_TSAN_BUILD 1
#endif
#endif

namespace hpa::parallel {
namespace {

void BusyWork(uint64_t iters) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iters; ++i) sink = sink + i;
}

struct ExecutorParam {
  const char* kind;
  int workers;
};

class NestedAllExecutorsTest : public ::testing::TestWithParam<ExecutorParam> {
 protected:
  std::unique_ptr<Executor> exec_ =
      MakeExecutor(GetParam().kind, GetParam().workers);
};

INSTANTIATE_TEST_SUITE_P(
    Executors, NestedAllExecutorsTest,
    ::testing::Values(ExecutorParam{"serial", 1}, ExecutorParam{"threads", 1},
                      ExecutorParam{"threads", 2}, ExecutorParam{"threads", 8},
                      ExecutorParam{"simulated", 1},
                      ExecutorParam{"simulated", 8}),
    [](const ::testing::TestParamInfo<ExecutorParam>& info) {
      return std::string(info.param.kind) + "_" +
             std::to_string(info.param.workers);
    });

// A chunk body that spawns a sub-region must see every sub-item processed
// exactly once before the outer chunk continues (fork/join semantics).
TEST_P(NestedAllExecutorsTest, NestedRegionProcessesAllItemsExactlyOnce) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<uint32_t>> hits(kOuter * kInner);
  std::vector<std::atomic<uint32_t>> joined(kOuter);

  exec_->ParallelFor(0, kOuter, 1, WorkHint{}, [&](int, size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      exec_->ParallelFor(0, kInner, 4, WorkHint{},
                         [&](int, size_t ib, size_t ie) {
                           for (size_t i = ib; i < ie; ++i) {
                             hits[o * kInner + i].fetch_add(1);
                           }
                         });
      // Join semantics: by here the whole sub-range must be done.
      uint32_t sub = 0;
      for (size_t i = 0; i < kInner; ++i) sub += hits[o * kInner + i].load();
      joined[o].store(sub);
    }
  });

  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
  for (auto& j : joined) EXPECT_EQ(j.load(), kInner);
}

// Three levels of nesting, summing a pyramid of ranges: the grand total
// must be exact on every executor.
TEST_P(NestedAllExecutorsTest, ThreeLevelSpawnTreeSumsExactly) {
  constexpr size_t kA = 8, kB = 8, kC = 32;
  std::atomic<uint64_t> total{0};
  exec_->ParallelFor(0, kA, 1, WorkHint{}, [&](int, size_t ab, size_t ae) {
    for (size_t a = ab; a < ae; ++a) {
      exec_->ParallelFor(0, kB, 1, WorkHint{}, [&](int, size_t bb, size_t be) {
        for (size_t b = bb; b < be; ++b) {
          exec_->ParallelFor(0, kC, 8, WorkHint{},
                             [&](int, size_t cb, size_t ce) {
                               uint64_t local = 0;
                               for (size_t c = cb; c < ce; ++c) {
                                 local += a * 10000 + b * 100 + c;
                               }
                               total.fetch_add(local);
                             });
        }
      });
    }
  });

  uint64_t want = 0;
  for (size_t a = 0; a < kA; ++a) {
    for (size_t b = 0; b < kB; ++b) {
      for (size_t c = 0; c < kC; ++c) want += a * 10000 + b * 100 + c;
    }
  }
  EXPECT_EQ(total.load(), want);
}

// RequestStop from inside a nested region kills that region's remaining
// chunks but must NOT poison the parent: outer items after the nested
// join keep running, and the executor is clean afterwards.
TEST_P(NestedAllExecutorsTest, NestedStopDoesNotPoisonParent) {
  constexpr size_t kOuter = 8;
  std::atomic<uint32_t> outer_after_join{0};
  std::atomic<uint32_t> inner_done{0};
  std::atomic<uint32_t> parent_saw_stop{0};

  exec_->ParallelFor(0, kOuter, 1, WorkHint{}, [&](int, size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      (void)o;
      exec_->ParallelFor(0, 1000, 1, WorkHint{},
                         [&](int, size_t ib, size_t ie) {
                           for (size_t i = ib; i < ie; ++i) {
                             if (i == 3) exec_->RequestStop();
                             inner_done.fetch_add(1);
                           }
                         });
      // Back in the parent chunk: the nested stop must not be visible.
      if (exec_->stop_requested()) parent_saw_stop.fetch_add(1);
      outer_after_join.fetch_add(1);
    }
  });

  EXPECT_EQ(outer_after_join.load(), kOuter);
  EXPECT_EQ(parent_saw_stop.load(), 0u);
  // Each nested region ran at least up to the stopping item, but the stop
  // skipped the bulk of its 1000 items.
  EXPECT_GE(inner_done.load(), kOuter);
  EXPECT_LT(inner_done.load(), kOuter * 1000);
  EXPECT_FALSE(exec_->stop_requested());
}

// A stop in the outer region is visible inside nested regions (a parent's
// stop propagates down, never up) and the executor is clean afterwards.
TEST_P(NestedAllExecutorsTest, ParentStopVisibleInNestedRegion) {
  std::atomic<uint32_t> outer_started{0};
  std::atomic<uint32_t> nested_ran_without_stop{0};
  exec_->ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      (void)o;
      outer_started.fetch_add(1);
      exec_->RequestStop();  // flags the outer region (the innermost
                             // enclosing region at this point)
      exec_->ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t, size_t) {
        // Nested chunks are either skipped outright or observe the
        // inherited stop — never run stop-blind.
        if (!exec_->stop_requested()) nested_ran_without_stop.fetch_add(1);
      });
    }
  });
  ASSERT_GE(outer_started.load(), 1u);
  EXPECT_EQ(nested_ran_without_stop.load(), 0u);
  EXPECT_FALSE(exec_->stop_requested());
}

// After any amount of nested cancellation, the executor is clean: a fresh
// region runs everything.
TEST_P(NestedAllExecutorsTest, StopStateDiesWithItsRegion) {
  exec_->ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      (void)i;
      exec_->ParallelFor(0, 8, 1, WorkHint{},
                         [&](int, size_t, size_t) { exec_->RequestStop(); });
    }
  });
  std::atomic<uint32_t> ran{0};
  exec_->ParallelFor(0, 100, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    ran.fetch_add(static_cast<uint32_t>(e - b));
  });
  EXPECT_EQ(ran.load(), 100u);
}

// Nested ParallelTreeReduce must be bit-identical to a serial replay of the
// strided (round r combines pairs at stride 2^r) schedule, for every slot
// count: same pair-combines, same per-destination order.
TEST_P(NestedAllExecutorsTest, TreeReduceNestedMatchesStridedReplay) {
  // WorkerLocal sizes itself to an executor's worker count; this stub
  // gives it an arbitrary width.
  struct WidthExec : SerialExecutor {
    explicit WidthExec(size_t w) : w_(static_cast<int>(w)) {}
    int num_workers() const override { return w_; }
    int w_;
  };

  for (size_t slots : {1, 2, 3, 5, 8, 13, 16}) {
    const size_t width =
        std::max<size_t>(slots, static_cast<size_t>(exec_->num_workers()));
    WidthExec width_exec(width);

    auto fill = [&](WorkerLocal<std::vector<double>>& wl) {
      for (size_t w = 0; w < width; ++w) {
        auto& v = wl.Get(static_cast<int>(w));
        v.assign(64, 0.0);
        if (w >= slots) continue;  // extras stay zero (additive identity)
        for (size_t i = 0; i < v.size(); ++i) {
          v[i] = static_cast<double>((w + 1) * 1000 + i) * 0.001;
        }
      }
    };
    WorkerLocal<std::vector<double>> nested_slots(width_exec);
    WorkerLocal<std::vector<double>> serial_slots(width_exec);
    fill(nested_slots);
    fill(serial_slots);

    auto combine = [](std::vector<double>& into, std::vector<double>& from,
                      size_t part, size_t parts) {
      size_t lo = into.size() * part / parts;
      size_t hi = into.size() * (part + 1) / parts;
      for (size_t i = lo; i < hi; ++i) into[i] += from[i];
    };
    ParallelTreeReduce(*exec_, nested_slots, 4, WorkHint{}, combine);
    for (size_t stride = 1; stride < width; stride *= 2) {
      for (size_t i = 0; i + stride < width; i += 2 * stride) {
        for (size_t part = 0; part < 4; ++part) {
          combine(serial_slots.Get(static_cast<int>(i)),
                  serial_slots.Get(static_cast<int>(i + stride)), part, 4);
        }
      }
    }
    // Bit-exact equality, not near-equality: same additions, same order.
    EXPECT_EQ(nested_slots.Get(0), serial_slots.Get(0))
        << "slots=" << slots << " exec=" << exec_->name();
  }
}

// Randomized nested-DAG stress on real threads: pre-generate a random
// spawn tree (so the expected leaf count is known exactly), execute it
// with nested ParallelFor at several worker counts, and require every
// leaf to run exactly once. Seeded → reproducible.
TEST(SchedulerStressTest, RandomizedNestedDagExactLeafCount) {
  struct Node {
    size_t fan = 0;
    size_t grain = 1;
    std::vector<std::vector<Node>> children;  // children[item]
  };
  std::function<Node(SplitMix64&, int)> gen = [&](SplitMix64& rng,
                                                  int depth) -> Node {
    Node n;
    n.fan = 1 + rng.Next() % 5;
    n.grain = 1 + rng.Next() % 3;
    n.children.resize(n.fan);
    if (depth < 3) {
      for (size_t i = 0; i < n.fan; ++i) {
        size_t kids = rng.Next() % 3;  // 0..2 nested regions per item
        for (size_t k = 0; k < kids; ++k) {
          n.children[i].push_back(gen(rng, depth + 1));
        }
      }
    }
    return n;
  };
  std::function<uint64_t(const Node&)> count = [&](const Node& n) -> uint64_t {
    uint64_t total = n.fan;
    for (const auto& item : n.children) {
      for (const auto& kid : item) total += count(kid);
    }
    return total;
  };

  for (uint64_t seed = 10; seed <= 15; ++seed) {
    SplitMix64 rng(seed);
    Node root = gen(rng, 0);
    uint64_t want = count(root);

    for (int workers : {1, 2, 8}) {
      ThreadPoolExecutor exec(workers);
      std::atomic<uint64_t> leaves{0};
      std::function<void(const Node&)> run = [&](const Node& n) {
        exec.ParallelFor(0, n.fan, n.grain, WorkHint{},
                         [&](int, size_t b, size_t e) {
                           for (size_t i = b; i < e; ++i) {
                             leaves.fetch_add(1);
                             for (const auto& kid : n.children[i]) run(kid);
                           }
                         });
      };
      run(root);
      EXPECT_EQ(leaves.load(), want)
          << "seed=" << seed << " workers=" << workers;
      // The pool must be immediately reusable: all regions fully joined.
      std::atomic<uint32_t> after{0};
      exec.ParallelFor(0, 64, 1, WorkHint{}, [&](int, size_t b, size_t e) {
        after.fetch_add(static_cast<uint32_t>(e - b));
      });
      EXPECT_EQ(after.load(), 64u) << "seed=" << seed;
    }
  }
}

// Scheduler counters: spawns/steals/depth/per-worker counts are populated
// and consistent on the thread pool.
TEST(SchedulerStatsTest, ThreadPoolCountersAreConsistent) {
  ThreadPoolExecutor exec(4);
  exec.ParallelFor(0, 256, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      (void)i;
      exec.ParallelFor(0, 4, 1, WorkHint{}, [](int, size_t, size_t) {});
    }
  });
  SchedulerStats s = exec.scheduler_stats();
  EXPECT_EQ(s.regions, 1u + 256u);  // one root + one nested per outer item
  EXPECT_GE(s.max_task_depth, 2u);  // nesting observed
  // Tasks: the root region splits into 256 chunk tasks (255 spawned splits,
  // 1 injected root) and each nested region pushes 1 seed + 3 splits.
  EXPECT_GE(s.tasks_spawned, 255u + 256u * 4u);
  uint64_t executed = 0;
  ASSERT_EQ(s.per_worker_tasks.size(), 4u);
  for (uint64_t c : s.per_worker_tasks) executed += c;
  EXPECT_EQ(executed, 256u + 256u * 4u);  // every chunk ran exactly once
}

// Work actually migrates: under a skewed nested load with several workers,
// at least one steal happens (FIFO steals are the only way a second worker
// acquires tasks seeded into the spawner's deque).
TEST(SchedulerStatsTest, ThreadPoolStealsUnderNestedLoad) {
  ThreadPoolExecutor exec(8);
  exec.ParallelFor(0, 8, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      (void)i;
      exec.ParallelFor(0, 64, 1, WorkHint{},
                       [](int, size_t, size_t) { BusyWork(20000); });
    }
  });
  SchedulerStats s = exec.scheduler_stats();
  EXPECT_GT(s.steals, 0u);
}

// Nested regions on 8 workers: every inner chunk runs exactly once however
// the thieves split the spawn trees.
TEST(SchedulerStatsTest, NestedStealsRunEveryChunkOnce) {
  ThreadPoolExecutor exec(8);
  std::vector<std::atomic<uint32_t>> hits(8 * 64);
  exec.ParallelFor(0, 8, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      exec.ParallelFor(0, 64, 1, WorkHint{}, [&](int, size_t ib, size_t ie) {
        for (size_t j = ib; j < ie; ++j) {
          hits[i * 64 + j].fetch_add(1);
          BusyWork(5000);
        }
      });
    }
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1u);
}

// Simulated executor: nested spawn trees stay deterministic — identical
// counters for the same shape, run twice.
TEST(SchedulerStatsTest, SimulatedNestedCountersAreDeterministic) {
  auto run = [](int workers) {
    SimulatedExecutor exec(workers, MachineModel::Default());
    exec.ParallelFor(0, 8, 1, WorkHint{}, [&](int, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        (void)i;
        exec.ParallelFor(0, 16, 4, WorkHint{}, [](int, size_t, size_t) {});
      }
    });
    SchedulerStats s = exec.scheduler_stats();
    return std::tuple<uint64_t, uint64_t, uint64_t>(s.regions, s.tasks_spawned,
                                                    s.max_task_depth);
  };
  EXPECT_EQ(run(4), run(4));
  auto [regions, spawned, depth] = run(4);
  EXPECT_EQ(regions, 1u + 8u);
  EXPECT_EQ(spawned, 8u + 8u * 4u);  // outer chunks + 8 nested regions × 4
  EXPECT_EQ(depth, 2u);
}

// The simulated clock charges a nested region inside its parent chunk, not
// again at top level: the top-level region's charge IS the clock advance.
TEST(SchedulerStatsTest, SimulatedNestedChargesOnceAtTopLevel) {
  SimulatedExecutor exec(4, MachineModel::Default());
  double before = exec.Now();
  exec.ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      (void)i;
      exec.ParallelFor(0, 4, 1, WorkHint{},
                       [](int, size_t, size_t) { BusyWork(50000); });
    }
  });
  double elapsed = exec.Now() - before;
  double charged = exec.last_region().charged_seconds;
  EXPECT_NEAR(elapsed, charged, 1e-12);
  EXPECT_DOUBLE_EQ(exec.total_parallel_seconds(), charged);
  // Sanity: the virtual makespan of 16 spun chunks on 4 workers is
  // strictly positive and at most the serial sum.
  EXPECT_GT(charged, 0.0);
}

// A nested spawn tree must be priced cheaper than its serial sum when
// workers are available. The chunk cost is a deterministic virtual I/O
// charge (1ms per inner chunk, channels matching the worker count so the
// device bound never dominates) rather than a wall-clock spin — real CPU
// in the bodies is microseconds, so the comparison is immune to host load
// and the test stays stable under a fully parallel ctest run.
TEST(SchedulerStatsTest, SimulatedNestedSpawnTreeScales) {
  auto virtual_time = [](int workers) {
    SimulatedExecutor exec(workers, MachineModel::Default());
    exec.ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        (void)i;
        exec.ParallelFor(0, 8, 1, WorkHint{}, [&](int, size_t, size_t) {
          exec.ChargeIoTime(0.001, /*channels=*/8);
        });
      }
    });
    return exec.Now();
  };
  double t1 = virtual_time(1);
  double t8 = virtual_time(8);
  EXPECT_LT(t8, t1 * 0.45) << "t1=" << t1 << " t8=" << t8;
}

// Depth-bounded inline fallback: regions at or under the threshold run
// their chunks inline (counted in spawns_suppressed) with results, chunk
// boundaries, and worker indices identical to the spawning schedule.
class InlineThresholdTest : public ::testing::TestWithParam<ExecutorParam> {};

INSTANTIATE_TEST_SUITE_P(
    Executors, InlineThresholdTest,
    ::testing::Values(ExecutorParam{"serial", 1}, ExecutorParam{"threads", 4},
                      ExecutorParam{"simulated", 4}),
    [](const ::testing::TestParamInfo<ExecutorParam>& info) {
      return std::string(info.param.kind) + "_" +
             std::to_string(info.param.workers);
    });

TEST_P(InlineThresholdTest, SmallRegionsInlineWithIdenticalResults) {
  auto run = [&](size_t threshold, uint64_t* suppressed) {
    auto exec = MakeExecutor(GetParam().kind, GetParam().workers);
    exec->set_inline_threshold(threshold);
    std::vector<std::atomic<uint64_t>> hits(48);
    // Nested shape: outer region over 6 items, each spawning an 8-item
    // inner region — with threshold 8 every inner region runs inline.
    exec->ParallelFor(0, 6, 1, WorkHint{}, [&](int, size_t ob, size_t oe) {
      for (size_t o = ob; o < oe; ++o) {
        exec->ParallelFor(0, 8, 1, WorkHint{},
                          [&](int, size_t b, size_t e) {
                            for (size_t i = b; i < e; ++i) {
                              hits[o * 8 + i].fetch_add(1);
                            }
                          });
      }
    });
    *suppressed = exec->scheduler_stats().spawns_suppressed;
    uint64_t total = 0;
    for (auto& h : hits) {
      EXPECT_EQ(h.load(), 1u);
      total += h.load();
    }
    return total;
  };
  uint64_t suppressed_off = 0, suppressed_on = 0;
  EXPECT_EQ(run(0, &suppressed_off), 48u);
  EXPECT_EQ(run(8, &suppressed_on), 48u);
  EXPECT_EQ(suppressed_off, 0u) << "threshold 0 must be the legacy schedule";
  // Every inner chunk (6 regions x 8 unit chunks) ran without a spawn.
  EXPECT_GE(suppressed_on, 48u);
}

TEST_P(InlineThresholdTest, LargeRegionsStillSpawnAboveThreshold) {
  auto exec = MakeExecutor(GetParam().kind, GetParam().workers);
  exec->set_inline_threshold(4);
  std::atomic<uint64_t> sum{0};
  exec->ParallelFor(0, 64, 1, WorkHint{}, [&](int, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  EXPECT_EQ(exec->scheduler_stats().spawns_suppressed, 0u)
      << "a 64-item region is above the threshold and must spawn";
}

TEST_P(InlineThresholdTest, InlineRegionsKeepRegionScopedCancellation) {
  auto exec = MakeExecutor(GetParam().kind, GetParam().workers);
  exec->set_inline_threshold(8);
  std::atomic<uint64_t> outer_done{0};
  exec->ParallelFor(0, 4, 1, WorkHint{}, [&](int, size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      (void)o;
      // Inline nested region cancels itself; the stop must not leak into
      // the parent region.
      exec->ParallelFor(0, 8, 1, WorkHint{}, [&](int, size_t, size_t) {
        exec->RequestStop();
      });
      outer_done.fetch_add(1);
    }
  });
  EXPECT_EQ(outer_done.load(), 4u) << "nested stop poisoned the parent";
  EXPECT_FALSE(exec->stop_requested());
}

#if !defined(HPA_TSAN_BUILD) && defined(GTEST_HAS_DEATH_TEST)
// Legacy-path guard: a second non-pool thread submitting a root region
// mid-region must abort with a diagnostic instead of silently deadlocking.
TEST(SchedulerGuardDeathTest, SecondRootSubmitterAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPoolExecutor exec(2);
        std::atomic<bool> started{false};
        std::atomic<bool> release{false};
        std::thread submitter([&] {
          exec.ParallelFor(0, 1, 1, WorkHint{}, [&](int, size_t, size_t) {
            started.store(true);
            while (!release.load()) std::this_thread::yield();
          });
        });
        while (!started.load()) std::this_thread::yield();
        // Second root submitter while the first region is still running.
        exec.ParallelFor(0, 1, 1, WorkHint{}, [](int, size_t, size_t) {});
        release.store(true);
        submitter.join();
      },
      "second");
}
#endif

}  // namespace
}  // namespace hpa::parallel
