// Ablation — triangle-inequality pruning of the K-means assignment step
// (Hamerly bounds, always on, vs the --no-prune full scan).
//
// Sweeps corpus × workers × {prune, no-prune} and, for every
// configuration:
//
//  * verifies the pruned run is **bit-identical** to the unpruned one —
//    assignments, centroids, inertia history, and iteration count — which
//    is the pruning contract (a skip happens only when the bounds prove
//    the full scan's outcome); worker counts 1 and 8 are always checked
//    even when --threads omits them;
//  * reports the per-iteration skip rate (iteration 0 is always exact;
//    the rate climbs as centroids settle and drift shrinks);
//  * times the assignment phase (the "assign_ns" counter on the kmeans
//    phase — merge and finalize are identical in both modes) and computes
//    the pruning speedup.
//
// Exits non-zero if any result differs or if no configuration reaches the
// 1.5x assignment-phase speedup the bounds are supposed to buy. Also
// writes BENCH_kmeans.json (--bench_json) so the perf trajectory is
// machine-readable from this PR onward, and prints the same document as
// the standard one-line JSON tail.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

/// One measured (corpus, workers, prune) configuration.
struct Row {
  std::string corpus;
  int threads = 0;
  bool prune = false;
  double kmeans_seconds = 0.0;
  double assign_seconds = 0.0;
  double skip_rate = 0.0;  // overall fraction of kernels skipped
  std::vector<double> skip_rate_history;
  bool identical = true;   // pruned vs unpruned results
};

int Run(int argc, char** argv) {
  FlagSet flags("ablation_kmeans_prune",
                "triangle-inequality-pruned vs full-scan K-means "
                "assignment: bit-identity, skip rates, speedup");
  AddCommonFlags(flags);
  flags.DefineInt("prune_iters", 12,
                  "K-means iterations for this ablation (bounds tighten "
                  "over iterations, so more than the default 5 shows the "
                  "steady-state skip rate)");
  flags.DefineString("bench_json", "BENCH_kmeans.json",
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
  PrintBanner("Ablation: triangle-inequality-pruned K-means", flags);

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
  const int repeats = static_cast<int>(flags.GetInt("repeats"));

  // The acceptance contract pins identity checks at 1 and 8 workers, on
  // top of whatever --threads sweeps.
  std::set<int> check_threads(threads_or->begin(), threads_or->end());
  check_threads.insert(1);
  check_threads.insert(8);

  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = static_cast<int>(flags.GetInt("prune_iters"));
  kopts.stop_on_convergence = false;  // fixed work per configuration

  std::vector<Row> rows;
  bool all_identical = true;
  double best_speedup = 0.0;

  for (const text::CorpusProfile& base :
       {text::CorpusProfile::NsfAbstracts(), text::CorpusProfile::Mix()}) {
    text::CorpusProfile profile = env->ScaleProfile(base);
    auto rel = env->EnsureCorpus(profile);
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    env->SetExecutor(nullptr);
    parallel::SerialExecutor setup_exec;
    ops::ExecContext setup_ctx;
    setup_ctx.executor = &setup_exec;
    setup_ctx.corpus_disk = env->corpus_disk();
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
    auto tfidf = ops::TfidfInMemory(setup_ctx, *reader);
    if (!tfidf.ok()) {
      std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
      return 1;
    }
    std::printf("\n[%s] %zu docs, vocabulary %zu, k=%d, %d iterations\n",
                profile.name.c_str(), tfidf->matrix.num_rows(),
                tfidf->terms.size(), kopts.k, kopts.max_iterations);

    // Runs one configuration; the best-of-`repeats` timing plus the
    // (repeat-invariant) result for the identity checks.
    auto run = [&](bool prune, int threads, Row* row,
                   ops::KMeansResult* out) -> bool {
      for (int rep = 0; rep < repeats; ++rep) {
        auto exec = MakeBenchExecutor(flags, threads);
        if (exec == nullptr) {
          std::fprintf(stderr, "unknown --executor\n");
          std::exit(2);
        }
        env->SetExecutor(exec.get());
        PhaseTimer phases;
        ops::ExecContext ctx;
        ctx.executor = exec.get();
        ctx.phases = &phases;
        ctx.serial_merge = flags.GetBool("serial-merge");
        ctx.no_prune = !prune;
        auto result = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
        env->SetExecutor(nullptr);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return false;
        }
        double t = phases.Seconds("kmeans");
        double assign_t =
            static_cast<double>(phases.Count("kmeans", "assign_ns")) * 1e-9;
        if (rep == 0 || t < row->kmeans_seconds) row->kmeans_seconds = t;
        if (rep == 0 || assign_t < row->assign_seconds) {
          row->assign_seconds = assign_t;
        }
        if (rep == 0) {
          const double total =
              static_cast<double>(result->distance_kernels_evaluated +
                                  result->distance_kernels_skipped);
          row->skip_rate =
              total > 0 ? static_cast<double>(
                              result->distance_kernels_skipped) / total
                        : 0.0;
          row->skip_rate_history = result->skip_rate_history;
          if (out != nullptr) *out = std::move(*result);
        }
      }
      return true;
    };

    for (int threads : check_threads) {
      const bool timed =
          std::find(threads_or->begin(), threads_or->end(), threads) !=
          threads_or->end();
      Row pruned_row{profile.name, threads, true};
      Row unpruned_row{profile.name, threads, false};
      ops::KMeansResult pruned, unpruned;
      if (!run(true, threads, &pruned_row, &pruned) ||
          !run(false, threads, &unpruned_row, &unpruned)) {
        return 1;
      }
      const bool identical = pruned.assignment == unpruned.assignment &&
                             pruned.centroids == unpruned.centroids &&
                             pruned.inertia_history ==
                                 unpruned.inertia_history &&
                             pruned.iterations == unpruned.iterations;
      pruned_row.identical = identical;
      unpruned_row.identical = identical;
      all_identical = all_identical && identical;
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: pruned and unpruned runs differ on %s at %d "
                     "workers\n",
                     profile.name.c_str(), threads);
      }
      if (pruned_row.assign_seconds > 0) {
        best_speedup = std::max(
            best_speedup,
            unpruned_row.assign_seconds / pruned_row.assign_seconds);
      }
      if (timed) {
        rows.push_back(pruned_row);
        rows.push_back(unpruned_row);
      }
    }

    // Per-corpus summary: assignment-phase speedup per worker count and
    // the pruned run's per-iteration skip rates.
    std::vector<std::vector<std::string>> table;
    table.push_back({"threads", "assign (no-prune)", "assign (prune)",
                     "speedup", "kernels skipped", "identical"});
    const Row* skip_source = nullptr;
    for (int threads : *threads_or) {
      const Row* p = nullptr;
      const Row* u = nullptr;
      for (const Row& row : rows) {
        if (row.corpus != profile.name || row.threads != threads) continue;
        (row.prune ? p : u) = &row;
      }
      if (p == nullptr || u == nullptr) continue;
      if (skip_source == nullptr) skip_source = p;
      table.push_back(
          {std::to_string(threads), HumanDuration(u->assign_seconds),
           HumanDuration(p->assign_seconds),
           StrFormat("%.2fx", p->assign_seconds > 0
                                  ? u->assign_seconds / p->assign_seconds
                                  : 0.0),
           StrFormat("%.1f%%", 100.0 * p->skip_rate),
           p->identical ? "yes" : "NO (bug!)"});
    }
    std::printf("%s\n", core::FormatTable(table).c_str());
    if (skip_source != nullptr) {
      std::printf("skip rate per iteration:");
      for (size_t i = 0; i < skip_source->skip_rate_history.size(); ++i) {
        std::printf(" %zu:%.0f%%", i,
                    100.0 * skip_source->skip_rate_history[i]);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nexpected shape: iteration 0 is always exact; once centroids "
      "settle, drift\nshrinks and most documents keep passing the bound "
      "test, so the skip rate\nclimbs toward ~100%% and the assignment "
      "phase approaches one kernel per\ndocument instead of k.\n\n");

  // Machine-readable document: stdout tail + BENCH_kmeans.json.
  std::string json = StrFormat(
      "{\"bench\":\"ablation_kmeans_prune\",\"k\":%d,\"iterations\":%d,"
      "\"identical\":%s,\"best_assign_speedup\":%.3f,\"rows\":[",
      kopts.k, kopts.max_iterations, all_identical ? "true" : "false",
      best_speedup);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) json += ",";
    std::string history;
    for (size_t h = 0; h < row.skip_rate_history.size(); ++h) {
      if (h > 0) history += ",";
      history += StrFormat("%.4f", row.skip_rate_history[h]);
    }
    json += StrFormat(
        "{\"corpus\":\"%s\",\"workers\":%d,\"prune\":%s,"
        "\"seconds\":%.6f,\"assign_seconds\":%.6f,\"skip_rate\":%.4f,"
        "\"skip_rate_history\":[%s]}",
        row.corpus.c_str(), row.threads, row.prune ? "true" : "false",
        row.kmeans_seconds, row.assign_seconds, row.skip_rate,
        history.c_str());
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
    std::fprintf(stderr, "FAIL: pruned results are not bit-identical\n");
    return 1;
  }
  if (best_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: best assignment-phase speedup %.2fx < 1.5x\n",
                 best_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
