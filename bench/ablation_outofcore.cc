// Ablation — out-of-core TF/IDF → K-means over windowed corpus reads
// (ops/streaming.h) vs the in-memory pipeline.
//
// Sweeps window size × workers × prefetch on/off × spill on/off (spill on:
// the context has a scratch disk, so K-means scores its rows once and
// reads them back from a spill file; off: every pass re-scores the corpus)
// and enforces the three out-of-core contracts as exit-checked gates:
//
//  * **bit-identity** — at 1 and 8 workers (always, regardless of
//    --threads) and at every swept window size, with and without the
//    spill, streaming assignments, centroids, and inertia history equal
//    the in-memory run at the same worker count;
//  * **bounded residency** — the prefetcher's high-water resident window
//    bytes (corpus windows or spill segments) stay at or below the memory
//    budget each window size was derived from (window = budget/2: current
//    window + one prefetched);
//  * **async prefetch pays** — on an I/O-heavy simulated device (corpus
//    store throttled to HDD-class bandwidth) the async read-ahead lane
//    beats synchronous windowed reads by at least 1.3x end to end.
//
// Also scans the optimizer's materialize→stream decision across falling
// memory budgets and requires the flip to happen strictly below the
// estimated matrix footprint, never at or above it.
//
// Writes BENCH_outofcore.json (--bench_json) and prints the same document
// as the standard one-line JSON tail; rows carry the prefetch counters
// (windows prefetched, bytes read ahead, stall seconds, overlap ratio) and
// the spill bytes written.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/report.h"
#include "core/standard_ops.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/streaming.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"
#include "parallel/simulated_executor.h"

namespace hpa::bench {
namespace {

/// One measured configuration. window_bytes == 0 marks the in-memory
/// baseline row.
struct Row {
  int threads = 0;
  uint64_t window_bytes = 0;
  bool prefetch = true;
  bool spill = false;
  double seconds = 0.0;  // whole pipeline, virtual
  uint64_t high_water_bytes = 0;
  uint64_t windows_fetched = 0;
  uint64_t windows_prefetched = 0;
  uint64_t bytes_read_ahead = 0;
  double stall_seconds = 0.0;
  double overlap = 0.0;
  uint64_t spill_bytes = 0;  // spill segment bytes written
  bool identical = true;
};

double TotalSeconds(const PhaseTimer& phases) {
  double total = 0.0;
  for (const auto& phase : phases.phases()) total += phase.seconds;
  return total;
}

int Run(int argc, char** argv) {
  FlagSet flags("ablation_outofcore",
                "windowed out-of-core TF/IDF->K-means vs in-memory: "
                "bit-identity, bounded residency, prefetch speedup, and "
                "the optimizer's memory-ceiling flip");
  AddCommonFlags(flags);
  flags.DefineString("budgets", "128,512,2048",
                     "comma-separated memory budgets in KiB to sweep; each "
                     "budget streams through windows of budget/2");
  flags.DefineString("bench_json", "BENCH_outofcore.json",
                     "path for the machine-readable result file; empty "
                     "disables the file (the stdout JSON tail always "
                     "prints)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Ablation: out-of-core windowed streaming", flags);

  auto env_or = BenchEnv::Create(flags);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto& env = *env_or;
  auto threads_or = ParseIntList(flags.GetString("threads"));
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n", threads_or.status().ToString().c_str());
    return 2;
  }
  auto budgets_or = ParseIntList(flags.GetString("budgets"));
  if (!budgets_or.ok()) {
    std::fprintf(stderr, "%s\n", budgets_or.status().ToString().c_str());
    return 2;
  }
  const int repeats = static_cast<int>(flags.GetInt("repeats"));

  // The acceptance contract pins identity checks at 1 and 8 workers.
  std::set<int> check_threads(threads_or->begin(), threads_or->end());
  check_threads.insert(1);
  check_threads.insert(8);

  std::vector<uint64_t> budgets;
  for (int kib : *budgets_or) {
    budgets.push_back(static_cast<uint64_t>(kib) * 1024);
  }

  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
  kopts.stop_on_convergence = false;  // fixed work per configuration

  text::CorpusProfile profile =
      env->ScaleProfile(text::CorpusProfile::NsfAbstracts());
  auto rel = env->EnsureCorpus(profile);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }

  // Runs the full pipeline once on `disk` with `exec`; in-memory when
  // budget == 0, else streamed through windows of budget/2 — spilling
  // K-means rows to the scratch disk when `spill`.
  auto run_once = [&](io::SimDisk* disk, parallel::Executor* exec,
                      uint64_t budget, bool prefetch, bool spill,
                      double* seconds, io::PrefetchStats* stats,
                      ops::KMeansResult* out) -> bool {
    disk->set_executor(exec);
    env->scratch_disk()->set_executor(exec);
    PhaseTimer phases;
    ops::ExecContext ctx;
    ctx.executor = exec;
    ctx.corpus_disk = disk;
    ctx.scratch_disk = spill ? env->scratch_disk() : nullptr;
    ctx.phases = &phases;
    auto reader = io::PackedCorpusReader::Open(disk, *rel);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      disk->set_executor(nullptr);
      env->scratch_disk()->set_executor(nullptr);
      return false;
    }
    bool ok = true;
    if (budget == 0) {
      auto tfidf = ops::TfidfInMemory(ctx, *reader);
      ok = tfidf.ok();
      if (ok) {
        auto result = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
        ok = result.ok();
        if (ok && out != nullptr) *out = std::move(*result);
      }
    } else {
      ctx.mem_budget_bytes = budget;
      ops::StreamingOptions sopts;
      sopts.window_bytes = core::CostModel::ChooseWindowBytes(budget);
      sopts.prefetch = prefetch;
      io::PrefetchStats fit_stats, km_stats;
      auto model = ops::StreamingTfidfFit(ctx, *reader, {}, sopts,
                                          &fit_stats);
      ok = model.ok();
      if (ok) {
        auto result = ops::StreamingSparseKMeans(ctx, *model, *reader, kopts,
                                                 sopts, &km_stats);
        ok = result.ok();
        if (ok && out != nullptr) *out = std::move(*result);
      }
      if (ok && stats != nullptr) {
        stats->Add(fit_stats);
        stats->Add(km_stats);
      }
    }
    disk->set_executor(nullptr);
    env->scratch_disk()->set_executor(nullptr);
    if (!ok) std::fprintf(stderr, "pipeline failed\n");
    if (seconds != nullptr) *seconds = TotalSeconds(phases);
    return ok;
  };

  // Best-of-`repeats` timing; results and counters are repeat-invariant.
  auto run_timed = [&](io::SimDisk* disk, int threads, uint64_t budget,
                       bool prefetch, bool spill, Row* row,
                       ops::KMeansResult* out) -> bool {
    for (int rep = 0; rep < repeats; ++rep) {
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        std::exit(2);
      }
      double seconds = 0.0;
      io::PrefetchStats stats;
      if (!run_once(disk, exec.get(), budget, prefetch, spill, &seconds,
                    &stats, rep == 0 ? out : nullptr)) {
        return false;
      }
      if (rep == 0 || seconds < row->seconds) row->seconds = seconds;
      if (rep == 0) {
        row->high_water_bytes = stats.high_water_bytes;
        row->windows_fetched = stats.windows_fetched;
        row->windows_prefetched = stats.windows_prefetched;
        row->bytes_read_ahead = stats.bytes_read_ahead;
        row->stall_seconds = stats.stall_seconds;
        row->overlap = stats.OverlapRatio();
        row->spill_bytes = stats.spill_bytes_written;
      }
    }
    return true;
  };

  bool all_identical = true;
  bool budget_respected = true;
  std::vector<Row> rows;

  // ---- identity + residency sweep ------------------------------------
  for (int threads : check_threads) {
    const bool timed =
        std::find(threads_or->begin(), threads_or->end(), threads) !=
        threads_or->end();
    Row inmem_row;
    inmem_row.threads = threads;
    ops::KMeansResult golden;
    if (!run_timed(env->corpus_disk(), threads, 0, true, false, &inmem_row,
                   &golden)) {
      return 1;
    }
    if (timed) rows.push_back(inmem_row);

    for (uint64_t budget : budgets) {
      for (bool spill : {false, true}) {
        Row row;
        row.threads = threads;
        row.spill = spill;
        row.window_bytes = core::CostModel::ChooseWindowBytes(budget);
        ops::KMeansResult streamed;
        if (!run_timed(env->corpus_disk(), threads, budget, true, spill, &row,
                       &streamed)) {
          return 1;
        }
        const bool identical =
            streamed.assignment == golden.assignment &&
            streamed.centroids == golden.centroids &&
            streamed.inertia_history == golden.inertia_history &&
            streamed.iterations == golden.iterations;
        row.identical = identical;
        all_identical = all_identical && identical;
        if (!identical) {
          std::fprintf(stderr,
                       "FAIL: streamed run differs from in-memory at %d "
                       "workers, window %llu, spill %s\n",
                       threads,
                       static_cast<unsigned long long>(row.window_bytes),
                       spill ? "on" : "off");
        }
        if (row.high_water_bytes > budget) {
          budget_respected = false;
          std::fprintf(stderr,
                       "FAIL: high-water %llu B exceeds budget %llu B at %d "
                       "workers\n",
                       static_cast<unsigned long long>(row.high_water_bytes),
                       static_cast<unsigned long long>(budget), threads);
        }
        if (timed) rows.push_back(row);
      }
    }
  }

  std::vector<std::vector<std::string>> table;
  table.push_back({"threads", "window", "spill", "pipeline", "high water",
                   "prefetched", "overlap", "identical"});
  for (const Row& row : rows) {
    table.push_back(
        {std::to_string(row.threads),
         row.window_bytes == 0 ? "in-memory"
                               : HumanBytes(row.window_bytes),
         row.spill ? HumanBytes(row.spill_bytes) : "-",
         HumanDuration(row.seconds),
         row.window_bytes == 0 ? "-" : HumanBytes(row.high_water_bytes),
         std::to_string(row.windows_prefetched),
         StrFormat("%.0f%%", 100.0 * row.overlap),
         row.identical ? "yes" : "NO (bug!)"});
  }
  std::printf("\n[%s] k=%d, %d iterations\n%s\n", profile.name.c_str(),
              kopts.k, kopts.max_iterations,
              core::FormatTable(table).c_str());

  // ---- prefetch speedup on an I/O-heavy device -----------------------
  // Same backing files, HDD-class channel: high per-request latency and a
  // fraction of the corpus store's bandwidth, so windowed reads dominate
  // unless the async lane hides them behind compute.
  io::DiskOptions slow = io::DiskOptions::CorpusStore();
  slow.bandwidth_bytes_per_sec = 40.0e6;
  slow.latency_sec = 0.004;
  slow.channels = 2;
  io::SimDisk slow_disk(slow, env->workdir() + "/corpora", nullptr);

  double best_speedup = 0.0;
  std::string speedup_report;
  for (int threads : {1, 8}) {
    for (uint64_t budget : budgets) {
      Row sync_row, async_row;
      sync_row.threads = async_row.threads = threads;
      sync_row.prefetch = false;
      sync_row.window_bytes = async_row.window_bytes =
          core::CostModel::ChooseWindowBytes(budget);
      if (!run_timed(&slow_disk, threads, budget, false, false, &sync_row,
                     nullptr) ||
          !run_timed(&slow_disk, threads, budget, true, false, &async_row,
                     nullptr)) {
        return 1;
      }
      double speedup =
          async_row.seconds > 0 ? sync_row.seconds / async_row.seconds
                                : 0.0;
      best_speedup = std::max(best_speedup, speedup);
      speedup_report += StrFormat(
          "  %d workers, window %-9s sync %-10s async %-10s speedup "
          "%.2fx (overlap %.0f%%, stall %s)\n",
          threads, HumanBytes(sync_row.window_bytes).c_str(),
          HumanDuration(sync_row.seconds).c_str(),
          HumanDuration(async_row.seconds).c_str(), speedup,
          100.0 * async_row.overlap,
          HumanDuration(async_row.stall_seconds).c_str());
    }
  }
  std::printf("prefetch on the throttled device:\n%s",
              speedup_report.c_str());

  // ---- optimizer flip scan -------------------------------------------
  core::WorkloadStats stats;
  stats.documents = 23432;
  stats.total_tokens = 9'000'000;
  stats.distinct_words = 184743;
  stats.avg_distinct_per_doc = 200.0;
  core::CostModel cost_model(parallel::MachineModel::Default(), stats);
  const uint64_t footprint = cost_model.EstimateMatrixBytes();

  core::Workflow wf;
  int src = wf.AddSource(core::Dataset(core::CorpusRef{*rel}), "corpus");
  auto tfidf_node = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
  ops::KMeansOptions plan_kopts;
  plan_kopts.k = kopts.k;
  plan_kopts.max_iterations = 6;
  auto kmeans_node = wf.Add(
      std::make_unique<core::KMeansOperator>(plan_kopts), {*tfidf_node});
  if (!tfidf_node.ok() || !kmeans_node.ok()) return 1;

  bool flip_sane = true;
  int64_t flip_budget_mib = -1;
  std::printf("\noptimizer flip scan (matrix footprint %s):\n",
              HumanBytes(footprint).c_str());
  for (uint64_t mib = 64; mib >= 1; mib /= 2) {
    core::OptimizerOptions oopts;
    oopts.workers = 8;
    oopts.mem_budget_bytes = mib << 20;
    core::ExecutionPlan plan = core::OptimizeWorkflow(wf, cost_model, oopts);
    const bool streamed = plan.nodes[static_cast<size_t>(*tfidf_node)]
                              .stream_corpus;
    std::printf("  budget %4lld MiB -> %s\n", static_cast<long long>(mib),
                streamed ? "stream" : "materialize");
    if (streamed && flip_budget_mib < 0) {
      flip_budget_mib = static_cast<int64_t>(mib);
    }
    if (streamed && oopts.mem_budget_bytes >= footprint) {
      flip_sane = false;
      std::fprintf(stderr,
                   "FAIL: optimizer streamed with the matrix inside "
                   "budget (%lld MiB)\n",
                   static_cast<long long>(mib));
    }
    if (!streamed && flip_budget_mib >= 0) {
      flip_sane = false;
      std::fprintf(stderr,
                   "FAIL: flip is not monotone (materialize at %lld MiB "
                   "below the flip point)\n",
                   static_cast<long long>(mib));
    }
  }
  if (flip_budget_mib < 0) {
    flip_sane = false;
    std::fprintf(stderr,
                 "FAIL: optimizer never flipped to streaming below the "
                 "%s footprint\n",
                 HumanBytes(footprint).c_str());
  }

  // ---- machine-readable document -------------------------------------
  std::string json = StrFormat(
      "{\"bench\":\"ablation_outofcore\",\"k\":%d,\"iterations\":%d,"
      "\"identical\":%s,\"budget_respected\":%s,"
      "\"prefetch_speedup\":%.3f,\"flip_budget_mib\":%lld,"
      "\"matrix_footprint_bytes\":%llu,\"rows\":[",
      kopts.k, kopts.max_iterations, all_identical ? "true" : "false",
      budget_respected ? "true" : "false", best_speedup,
      static_cast<long long>(flip_budget_mib),
      static_cast<unsigned long long>(footprint));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) json += ",";
    json += StrFormat(
        "{\"workers\":%d,\"window_bytes\":%llu,\"prefetch\":%s,"
        "\"spill\":%s,\"spill_bytes\":%llu,"
        "\"seconds\":%.6f,\"high_water_bytes\":%llu,"
        "\"windows_fetched\":%llu,\"windows_prefetched\":%llu,"
        "\"bytes_read_ahead\":%llu,\"stall_seconds\":%.6f,"
        "\"overlap\":%.4f,\"identical\":%s}",
        row.threads, static_cast<unsigned long long>(row.window_bytes),
        row.prefetch ? "true" : "false", row.spill ? "true" : "false",
        static_cast<unsigned long long>(row.spill_bytes), row.seconds,
        static_cast<unsigned long long>(row.high_water_bytes),
        static_cast<unsigned long long>(row.windows_fetched),
        static_cast<unsigned long long>(row.windows_prefetched),
        static_cast<unsigned long long>(row.bytes_read_ahead),
        row.stall_seconds, row.overlap,
        row.identical ? "true" : "false");
  }
  json += "]}";
  std::printf("%s\n", json.c_str());

  const std::string json_path = flags.GetString("bench_json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: streamed results are not bit-identical\n");
    return 1;
  }
  if (!budget_respected) {
    std::fprintf(stderr, "FAIL: window residency exceeded a budget\n");
    return 1;
  }
  if (best_speedup < 1.3) {
    std::fprintf(stderr, "FAIL: best prefetch speedup %.2fx < 1.3x\n",
                 best_speedup);
    return 1;
  }
  if (!flip_sane) return 1;
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
