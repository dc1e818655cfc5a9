// Ablation — serial vs nested (work-stealing) parallelism on the two phases
// the nested scheduler rewrote: the TF/IDF term-id ordering step and the
// K-means accumulator tree reduce.
//
//  * serial  — the paper-era structure (ctx.serial_merge): one thread
//    folds/sorts everything.
//  * nested  — the work-stealing default: AssignTermIds orders the
//    vocabulary with a pairwise sorted-merge spawn tree, and the K-means
//    reduce spawns each pair combine the moment its inputs are ready.
//
// The harness sweeps worker counts over both phases, verifies the outputs
// are identical across both modes AND every worker count (term lists with
// their dfs, K-means iteration counts and cluster assignments exactly),
// and reports the nested scheduler's spawn/steal/depth counters.
//
// Output ends with one machine-readable JSON document (line starting with
// '{') for driver scripts; exits non-zero on any result mismatch.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "containers/dictionary.h"
#include "core/report.h"
#include "ops/exec_context.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "ops/word_count.h"
#include "parallel/executor.h"
#include "text/synth_corpus.h"

namespace hpa::bench {
namespace {

constexpr containers::DictBackend kBackend = containers::DictBackend::kOpenHash;

enum class Mode { kSerial, kNested };

const char* ModeName(Mode m) {
  return m == Mode::kSerial ? "serial" : "nested";
}

/// One measured configuration of one phase.
struct Row {
  std::string phase;
  Mode mode = Mode::kNested;
  int threads = 0;
  double seconds = 0;
  bool identical = false;
  parallel::SchedulerStats stats;
};

int Run(int argc, char** argv) {
  FlagSet flags("ablation_scheduler",
                "serial vs nested work-stealing parallelism on the term-id "
                "and K-means-reduce phases");
  AddCommonFlags(flags);
  flags.DefineInt("sched_docs", 4000, "synthetic corpus document count");
  flags.DefineInt("sched_vocab", 60000,
                  "synthetic corpus distinct-word count (both phases are "
                  "vocabulary-bound, so this sets the phase size)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Ablation: serial vs nested work-stealing scheduler", flags);

  auto threads_or = ParseIntList(flags.GetString("threads"));
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n", threads_or.status().ToString().c_str());
    return 2;
  }
  const int repeats = static_cast<int>(flags.GetInt("repeats"));

  // Vocabulary-heavy corpus: both the term-id sort and the K-means merge
  // scale with distinct words, not tokens.
  text::CorpusProfile profile;
  profile.name = "sched-synth";
  profile.num_documents = static_cast<uint64_t>(flags.GetInt("sched_docs"));
  profile.target_distinct_words =
      static_cast<uint64_t>(flags.GetInt("sched_vocab"));
  profile.target_bytes = profile.target_distinct_words * 140;
  text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
  std::printf("\n[%s] %zu docs, %llu distinct words requested\n\n",
              profile.name.c_str(), corpus.size(),
              static_cast<unsigned long long>(profile.target_distinct_words));

  // The K-means input matrix is mode-independent; build it once serially.
  ops::TfidfOptions tfidf_options;
  containers::SparseMatrix matrix;
  {
    parallel::SerialExecutor setup_exec;
    ops::ExecContext setup_ctx;
    setup_ctx.executor = &setup_exec;
    auto wc = ops::RunWordCountInMemory<kBackend>(setup_ctx, corpus);
    auto tfidf =
        ops::TfidfTransformT(setup_ctx, std::move(wc), tfidf_options);
    matrix = std::move(tfidf.matrix);
  }
  ops::KMeansOptions kmeans_options;
  kmeans_options.k = static_cast<int>(flags.GetInt("clusters"));
  kmeans_options.max_iterations =
      static_cast<int>(flags.GetInt("kmeans_iters"));
  kmeans_options.stop_on_convergence = false;

  // Phase 1 — term-id assignment. Fingerprint: the full sorted vocabulary
  // with dfs (strings + integers: exactly comparable across every mode and
  // worker count).
  auto run_term_ids = [&](Mode mode, int threads, double* seconds,
                          parallel::SchedulerStats* stats) -> std::string {
    auto exec = MakeBenchExecutor(flags, threads);
    if (exec == nullptr) {
      std::fprintf(stderr, "unknown --executor\n");
      std::exit(2);
    }
    ops::ExecContext ctx;
    ctx.executor = exec.get();
    ctx.serial_merge = mode == Mode::kSerial;
    auto wc = ops::RunWordCountInMemory<kBackend>(ctx, corpus);
    std::vector<uint32_t> dfs;
    const double t0 = exec->Now();
    auto terms = ops::tfidf_internal::AssignTermIds(ctx, wc, tfidf_options,
                                                    &dfs);
    *seconds = exec->Now() - t0;
    *stats = exec->scheduler_stats();
    std::string fp;
    for (size_t i = 0; i < terms.size(); ++i) {
      fp += terms[i];
      fp += StrFormat(" %u\n", dfs[i]);
    }
    return fp;
  };

  // Phase 2 — K-means (the accumulator reduce is the schedule under test;
  // the assignment loop is identical across modes). Fingerprint: the
  // integer cluster assignment plus the iteration count.
  auto run_kmeans = [&](Mode mode, int threads, double* seconds,
                        parallel::SchedulerStats* stats) -> std::string {
    auto exec = MakeBenchExecutor(flags, threads);
    ops::ExecContext ctx;
    ctx.executor = exec.get();
    PhaseTimer phases;
    ctx.phases = &phases;
    ctx.serial_merge = mode == Mode::kSerial;
    auto result = ops::SparseKMeans(ctx, matrix, kmeans_options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    *seconds = phases.Seconds("kmeans");
    *stats = exec->scheduler_stats();
    std::string fp = StrFormat("iters=%d\n", result->iterations);
    for (uint32_t a : result->assignment) fp += StrFormat("%u ", a);
    return fp;
  };

  std::vector<Row> rows;
  bool all_identical = true;
  std::string term_ref, kmeans_ref;

  for (int threads : *threads_or) {
    for (Mode mode : {Mode::kSerial, Mode::kNested}) {
      Row term_row{"term-ids", mode, threads};
      Row kmeans_row{"kmeans", mode, threads};
      std::string term_fp, kmeans_fp;
      for (int rep = 0; rep < repeats; ++rep) {
        double t = 0;
        term_fp = run_term_ids(mode, threads, &t, &term_row.stats);
        if (rep == 0 || t < term_row.seconds) term_row.seconds = t;
        kmeans_fp = run_kmeans(mode, threads, &t, &kmeans_row.stats);
        if (rep == 0 || t < kmeans_row.seconds) kmeans_row.seconds = t;
      }
      if (term_ref.empty()) term_ref = term_fp;
      if (kmeans_ref.empty()) kmeans_ref = kmeans_fp;
      term_row.identical = term_fp == term_ref;
      kmeans_row.identical = kmeans_fp == kmeans_ref;
      all_identical =
          all_identical && term_row.identical && kmeans_row.identical;
      rows.push_back(std::move(term_row));
      rows.push_back(std::move(kmeans_row));
    }
  }

  // Per-phase tables: mode columns side by side, nested speedups.
  for (const char* phase : {"term-ids", "kmeans"}) {
    std::vector<std::vector<std::string>> table;
    table.push_back({"threads", "serial", "nested", "speedup", "identical"});
    for (int threads : *threads_or) {
      double t[2] = {0, 0};
      bool identical = true;
      for (const Row& row : rows) {
        if (row.phase != phase || row.threads != threads) continue;
        t[static_cast<int>(row.mode)] = row.seconds;
        identical = identical && row.identical;
      }
      table.push_back(
          {std::to_string(threads), HumanDuration(t[0]), HumanDuration(t[1]),
           StrFormat("%.2fx", t[1] > 0 ? t[0] / t[1] : 0.0),
           identical ? "yes" : "NO (bug!)"});
    }
    std::printf("[%s]\n%s\n", phase, core::FormatTable(table).c_str());
  }
  std::printf(
      "expected shape: nested removes the serial vocabulary sort from the "
      "term-id\ncritical path and spreads the K-means reduce over the "
      "workers, so the nested\ncolumn shrinks as workers grow while the "
      "serial one does not; all outputs\nstay identical.\n\n");

  // Machine-readable tail, scheduler counters included per row.
  std::string json =
      "{\"bench\":\"ablation_scheduler\",\"distinct_words\":" +
      std::to_string(profile.target_distinct_words) + ",\"identical\":" +
      std::string(all_identical ? "true" : "false") + ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) json += ",";
    json += StrFormat(
        "{\"phase\":\"%s\",\"mode\":\"%s\",\"threads\":%d,"
        "\"seconds\":%.6f,\"identical\":%s,\"spawned\":%llu,"
        "\"steals\":%llu,\"max_depth\":%llu}",
        row.phase.c_str(), ModeName(row.mode), row.threads, row.seconds,
        row.identical ? "true" : "false",
        static_cast<unsigned long long>(row.stats.tasks_spawned),
        static_cast<unsigned long long>(row.stats.steals),
        static_cast<unsigned long long>(row.stats.max_task_depth));
  }
  json += "]}";
  std::printf("%s\n", json.c_str());

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: scheduler modes disagree on results\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
