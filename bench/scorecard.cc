// Scorecard — the whole reproduction as one acceptance test.
//
// Re-runs the core experiments at bench scale and checks the *shape* of
// every paper claim programmatically (who wins, in what direction, within
// generous factor bands). Prints one PASS/WARN line per claim and exits
// non-zero if any hard claim fails — a regression harness for the
// reproduction itself.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "core/checkpoint.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/standard_ops.h"
#include "core/workflow_executor.h"
#include "io/fault_injection.h"
#include "io/packed_corpus.h"
#include "ops/dense_kmeans.h"
#include "ops/kmeans.h"
#include "ops/knn.h"
#include "ops/naive_bayes.h"
#include "ops/streaming.h"
#include "ops/tfidf.h"
#include "ops/word_count.h"
#include "parallel/executor.h"
#include "parallel/simulated_executor.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/registry_gc.h"
#include "serve/rollout.h"
#include "serve/router.h"
#include "serve/server.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa::bench {
namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const char* claim, const std::string& detail) {
  ++g_checks;
  if (!ok) ++g_failures;
  std::printf("  [%s] %-58s %s\n", ok ? "PASS" : "FAIL", claim,
              detail.c_str());
}

struct OperatorTimes {
  double input_wc = 0, df_merge = 0, transform = 0, tfidf_output = 0,
         kmeans_input = 0, kmeans = 0, output = 0;
  uint64_t dict_bytes = 0;
  double Total() const {
    return input_wc + df_merge + transform + tfidf_output + kmeans_input +
           kmeans + output;
  }
};

/// Runs the TF/IDF -> K-means workload once and returns phase times.
StatusOr<OperatorTimes> RunWorkload(BenchEnv& env, const FlagSet& flags,
                                    const std::string& corpus_rel,
                                    int threads, bool discrete,
                                    containers::DictBackend backend,
                                    size_t presize) {
  parallel::SimulatedExecutor exec(threads,
                                   parallel::MachineModel::Default());
  env.SetExecutor(&exec);

  PhaseTimer phases;
  ops::ExecContext ctx;
  ctx.serial_merge = flags.GetBool("serial-merge");
  ctx.executor = &exec;
  ctx.corpus_disk = env.corpus_disk();
  ctx.scratch_disk = env.scratch_disk();
  ctx.dict_backend = backend;
  ctx.per_doc_dict_presize = presize;
  ctx.phases = &phases;

  HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                        env.corpus_disk(), corpus_rel));

  OperatorTimes times;
  ops::KMeansOptions kopts;
  kopts.k = static_cast<int>(flags.GetInt("clusters"));
  kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
  kopts.stop_on_convergence = false;

  if (discrete) {
    HPA_RETURN_IF_ERROR(ops::TfidfToArff(ctx, reader, "sc.arff"));
    HPA_ASSIGN_OR_RETURN(auto matrix, ops::ReadTfidfArff(ctx, "sc.arff"));
    HPA_ASSIGN_OR_RETURN(auto clusters,
                         ops::SparseKMeans(ctx, matrix, kopts));
    HPA_RETURN_IF_ERROR(
        ops::WriteAssignmentsCsv(ctx, {}, clusters.assignment, "sc.csv"));
  } else {
    HPA_ASSIGN_OR_RETURN(auto tfidf, ops::TfidfInMemory(ctx, reader));
    times.dict_bytes = tfidf.dict_bytes;
    HPA_ASSIGN_OR_RETURN(auto clusters,
                         ops::SparseKMeans(ctx, tfidf.matrix, kopts));
    HPA_RETURN_IF_ERROR(ops::WriteAssignmentsCsv(
        ctx, tfidf.doc_names, clusters.assignment, "sc.csv"));
  }

  times.input_wc = phases.Seconds("input+wc");
  times.df_merge = phases.Seconds("df-merge");
  times.transform = phases.Seconds("transform");
  times.tfidf_output = phases.Seconds("tfidf-output");
  times.kmeans_input = phases.Seconds("kmeans-input");
  times.kmeans = phases.Seconds("kmeans");
  times.output = phases.Seconds("output");
  env.SetExecutor(nullptr);
  return times;
}

/// Best-of-N K-means phase time at a worker count.
StatusOr<double> KMeansTime(BenchEnv& env, const FlagSet& flags,
                            const containers::SparseMatrix& matrix,
                            int threads) {
  double best = 0;
  for (int rep = 0; rep < 7; ++rep) {
    parallel::SimulatedExecutor exec(threads,
                                     parallel::MachineModel::Default());
    PhaseTimer phases;
    ops::ExecContext ctx;
    ctx.serial_merge = flags.GetBool("serial-merge");
    ctx.executor = &exec;
    ctx.phases = &phases;
    ops::KMeansOptions kopts;
    kopts.k = static_cast<int>(flags.GetInt("clusters"));
    // Extra iterations so the per-run measurement is long enough to be
    // robust against host noise (this check is about the speedup ratio).
    kopts.max_iterations =
        static_cast<int>(flags.GetInt("kmeans_iters")) * 3;
    kopts.stop_on_convergence = false;
    HPA_RETURN_IF_ERROR(ops::SparseKMeans(ctx, matrix, kopts).status());
    double t = phases.Seconds("kmeans");
    if (rep == 0 || t < best) best = t;
  }
  (void)env;
  return best;
}

int Run(int argc, char** argv) {
  FlagSet flags("scorecard",
                "checks every paper claim's shape programmatically");
  AddCommonFlags(flags);
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Scorecard: paper claims, checked", flags);

  auto env_or = BenchEnv::Create(flags);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto& env = *env_or;

  auto mix_rel = env->EnsureCorpus(env->ScaleProfile(
      text::CorpusProfile::Mix()));
  auto nsf_rel = env->EnsureCorpus(env->ScaleProfile(
      text::CorpusProfile::NsfAbstracts()));
  if (!mix_rel.ok() || !nsf_rel.ok()) return 1;

  // Shared TF/IDF matrices for the K-means claims.
  env->SetExecutor(nullptr);
  parallel::SerialExecutor setup;
  ops::ExecContext sctx;
  sctx.executor = &setup;
  sctx.corpus_disk = env->corpus_disk();
  auto mix_reader = io::PackedCorpusReader::Open(env->corpus_disk(),
                                                 *mix_rel);
  auto nsf_reader = io::PackedCorpusReader::Open(env->corpus_disk(),
                                                 *nsf_rel);
  if (!mix_reader.ok() || !nsf_reader.ok()) return 1;
  auto mix_tfidf = ops::TfidfInMemory(sctx, *mix_reader);
  auto nsf_tfidf = ops::TfidfInMemory(sctx, *nsf_reader);
  if (!mix_tfidf.ok() || !nsf_tfidf.ok()) return 1;

  // --- Figure 1: K-means scalability ------------------------------------
  std::printf("\nFigure 1 (K-means scalability):\n");
  {
    auto speedup = [&](const containers::SparseMatrix& m,
                       int threads) -> double {
      auto t1 = KMeansTime(*env, flags, m, 1);
      auto tp = KMeansTime(*env, flags, m, threads);
      if (!t1.ok() || !tp.ok() || *tp <= 0) return 0;
      return *t1 / *tp;
    };
    double nsf8 = speedup(nsf_tfidf->matrix, 8);
    double mix8 = speedup(mix_tfidf->matrix, 8);
    Check(nsf8 > 3.0, "K-means speeds up substantially on NSF",
          StrFormat("%.2fx at 8 workers (paper heads to ~8x)", nsf8));
    Check(mix8 > 1.5 && mix8 < 4.5,
          "Mix saturates near the paper's ~2.5x",
          StrFormat("%.2fx at 8 workers", mix8));
    Check(nsf8 > mix8, "NSF scales further than Mix (more documents)",
          StrFormat("%.2fx vs %.2fx", nsf8, mix8));
  }

  // --- Figure 2: TF/IDF scalability --------------------------------------
  std::printf("\nFigure 2 (TF/IDF scalability):\n");
  {
    auto t1 = RunWorkload(*env, flags, *nsf_rel, 1, /*discrete=*/true,
                          containers::DictBackend::kOpenHash, 0);
    auto t16 = RunWorkload(*env, flags, *nsf_rel, 16, true,
                           containers::DictBackend::kOpenHash, 0);
    if (t1.ok() && t16.ok()) {
      double tfidf1 = t1->input_wc + t1->df_merge + t1->tfidf_output;
      double tfidf16 = t16->input_wc + t16->df_merge + t16->tfidf_output;
      double sp = tfidf1 / tfidf16;
      Check(sp > 3.0 && sp < 9.0,
            "discrete TF/IDF speedup saturates in the paper's band",
            StrFormat("%.2fx at 16 workers (paper ~7x)", sp));
      Check(t16->tfidf_output > t16->input_wc,
            "serial ARFF output dominates at high worker counts",
            StrFormat("output %.3fs vs input+wc %.3fs", t16->tfidf_output,
                      t16->input_wc));
    } else {
      Check(false, "figure 2 workload ran", "error");
    }
  }

  // --- Figure 3: workflow fusion -----------------------------------------
  std::printf("\nFigure 3 (workflow fusion):\n");
  {
    auto d1 = RunWorkload(*env, flags, *nsf_rel, 1, true,
                          containers::DictBackend::kOpenHash, 0);
    auto m1 = RunWorkload(*env, flags, *nsf_rel, 1, false,
                          containers::DictBackend::kOpenHash, 0);
    auto d16 = RunWorkload(*env, flags, *nsf_rel, 16, true,
                           containers::DictBackend::kOpenHash, 0);
    auto m16 = RunWorkload(*env, flags, *nsf_rel, 16, false,
                           containers::DictBackend::kOpenHash, 0);
    if (d1.ok() && m1.ok() && d16.ok() && m16.ok()) {
      double over1 = d1->Total() / m1->Total();
      double over16 = d16->Total() / m16->Total();
      Check(over1 > 1.05 && over1 < 1.9,
            "discrete overhead modest at 1 worker",
            StrFormat("%.1f%% (paper +36.9%%)", (over1 - 1) * 100));
      Check(over16 > 2.5 && over16 < 8.0,
            "discrete several times slower at 16 workers",
            StrFormat("%.2fx (paper 3.84x)", over16));
      Check(over16 > over1,
            "fusion matters more as parallelism grows",
            StrFormat("%.2fx -> %.2fx", over1, over16));
    } else {
      Check(false, "figure 3 workloads ran", "error");
    }
  }

  // --- Figure 4: data structures -----------------------------------------
  std::printf("\nFigure 4 (dictionary choice):\n");
  {
    auto umap1 = RunWorkload(*env, flags, *mix_rel, 1, false,
                             containers::DictBackend::kStdUnorderedMap, 4096);
    auto map1 = RunWorkload(*env, flags, *mix_rel, 1, false,
                            containers::DictBackend::kStdMap, 0);
    auto umap16 = RunWorkload(*env, flags, *mix_rel, 16, false,
                              containers::DictBackend::kStdUnorderedMap,
                              4096);
    auto map16 = RunWorkload(*env, flags, *mix_rel, 16, false,
                             containers::DictBackend::kStdMap, 0);
    if (umap1.ok() && map1.ok() && umap16.ok() && map16.ok()) {
      Check(umap1->dict_bytes > map1->dict_bytes * 2,
            "pre-sized u-map footprint dwarfs the map's",
            StrFormat("%s vs %s (paper 12.8GB vs 420MB)",
                      HumanBytes(umap1->dict_bytes).c_str(),
                      HumanBytes(map1->dict_bytes).c_str()));
      Check(umap1->transform < map1->transform,
            "u-map transform faster at 1 worker (O(1) lookups)",
            StrFormat("%.3fs vs %.3fs", umap1->transform, map1->transform));
      double umap_scaling = umap1->transform / umap16->transform;
      double map_scaling = map1->transform / map16->transform;
      Check(map_scaling > umap_scaling,
            "map transform scales further (u-map bandwidth-bound)",
            StrFormat("%.2fx vs %.2fx (paper 6.1x vs 3.4x)", map_scaling,
                      umap_scaling));
    } else {
      Check(false, "figure 4 workloads ran", "error");
    }
  }

  // --- §3.1: dense baseline ----------------------------------------------
  std::printf("\nSection 3.1 (sparse vs dense):\n");
  {
    parallel::SerialExecutor exec;
    PhaseTimer phases;
    ops::ExecContext ctx;
    ctx.serial_merge = flags.GetBool("serial-merge");
    ctx.executor = &exec;
    ctx.phases = &phases;
    ops::KMeansOptions kopts;
    kopts.k = static_cast<int>(flags.GetInt("clusters"));
    kopts.max_iterations = 2;
    kopts.stop_on_convergence = false;
    auto sparse = ops::SparseKMeans(ctx, mix_tfidf->matrix, kopts);
    auto dense = ops::DenseKMeans(ctx, mix_tfidf->matrix, kopts);
    if (sparse.ok() && dense.ok()) {
      double ratio =
          phases.Seconds("kmeans-dense") / phases.Seconds("kmeans");
      Check(ratio > 10.0,
            "dense WEKA-like baseline is orders of magnitude slower",
            StrFormat("%.0fx on Mix (grows with vocabulary; paper >2000x "
                      "at full scale)",
                      ratio));
    } else {
      Check(false, "baseline comparison ran", "error");
    }
  }

  // --- PR 4: work-stealing scheduler --------------------------------------
  std::printf("\nWork-stealing scheduler (nested fork/join):\n");
  {
    // Term-id ordering on a vocabulary-heavy synthetic corpus: the serial
    // merge collects, sorts and numbers the whole vocabulary in one serial
    // pass; the nested schedule sorts per shard and combines the lists with
    // a pairwise sorted-merge spawn tree.
    text::CorpusProfile profile;
    profile.name = "sched-score";
    profile.num_documents = 1500;
    profile.target_distinct_words = 25000;
    profile.target_bytes = profile.target_distinct_words * 140;
    text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();

    struct TermIdRun {
      double seconds = 0;
      std::string fp;
      parallel::SchedulerStats stats;
    };
    auto term_run = [&](bool serial) -> TermIdRun {
      TermIdRun out;
      for (int rep = 0; rep < 5; ++rep) {
        parallel::SimulatedExecutor exec(8,
                                         parallel::MachineModel::Default());
        ops::ExecContext ctx;
        ctx.executor = &exec;
        ctx.serial_merge = serial;
        auto wc = ops::RunWordCountInMemory<
            containers::DictBackend::kOpenHash>(ctx, corpus);
        std::vector<uint32_t> dfs;
        const double t0 = exec.Now();
        auto terms = ops::tfidf_internal::AssignTermIds(ctx, wc, {}, &dfs);
        const double t = exec.Now() - t0;
        if (rep == 0 || t < out.seconds) out.seconds = t;
        out.stats = exec.scheduler_stats();
        out.fp.clear();
        for (size_t i = 0; i < terms.size(); ++i) {
          out.fp += terms[i];
          out.fp += StrFormat(" %u\n", dfs[i]);
        }
      }
      return out;
    };
    TermIdRun nested = term_run(false);
    TermIdRun serial = term_run(true);
    double term_sp = nested.seconds > 0 ? serial.seconds / nested.seconds : 0;
    Check(term_sp > 1.2,
          "nested merge tree beats the serial vocabulary pass",
          StrFormat("%.2fx at 8 workers", term_sp));
    Check(!nested.fp.empty() && nested.fp == serial.fp,
          "term ids identical across serial/nested schedules",
          StrFormat("%zu bytes of vocabulary", nested.fp.size()));
    Check(nested.stats.max_task_depth >= 2 && nested.stats.steals > 0,
          "nested regions observed by the scheduler counters",
          StrFormat("depth=%llu steals=%llu spawned=%llu",
                    static_cast<unsigned long long>(
                        nested.stats.max_task_depth),
                    static_cast<unsigned long long>(nested.stats.steals),
                    static_cast<unsigned long long>(
                        nested.stats.tasks_spawned)));

    // K-means accumulator reduce: the nested tree overlaps pair combines
    // across tree levels and slices each combine over workers; the serial
    // fold adds every worker accumulator into slot 0 on one thread.
    ops::KMeansOptions kopts;
    kopts.k = static_cast<int>(flags.GetInt("clusters"));
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters")) * 2;
    kopts.stop_on_convergence = false;
    auto kmeans_run = [&](bool serial) -> double {
      double best = -1;
      for (int rep = 0; rep < 5; ++rep) {
        parallel::SimulatedExecutor exec(8,
                                         parallel::MachineModel::Default());
        PhaseTimer phases;
        ops::ExecContext ctx;
        ctx.executor = &exec;
        ctx.phases = &phases;
        ctx.serial_merge = serial;
        auto r = ops::SparseKMeans(ctx, mix_tfidf->matrix, kopts);
        if (!r.ok()) return -1;
        const double t = phases.Seconds("kmeans");
        if (best < 0 || t < best) best = t;
      }
      return best;
    };
    double kmeans_nested = kmeans_run(false);
    double kmeans_serial = kmeans_run(true);
    Check(kmeans_nested > 0 && kmeans_serial / kmeans_nested > 0.95,
          "nested K-means reduce at least matches the serial fold",
          StrFormat("serial/nested = %.2fx at 8 workers",
                    kmeans_serial / kmeans_nested));
  }

  // --- PR 2: fault tolerance ---------------------------------------------
  std::printf("\nRobustness (fault injection):\n");
  {
    struct FaultRun {
      Status status = Status::OK();
      std::vector<uint32_t> assignment;
      QuarantineList quarantine;
      uint64_t retries = 0;
    };
    // TF/IDF -> K-means on Mix with an optional injector on the corpus
    // store. The injector attaches after Open so faults target the
    // CRC-protected document read path, not the unprotected index.
    auto fault_run = [&](const io::FaultProfile* profile,
                         FaultPolicy policy) -> FaultRun {
      FaultRun out;
      parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
      env->SetExecutor(&exec);
      auto reader =
          io::PackedCorpusReader::Open(env->corpus_disk(), *mix_rel);
      std::unique_ptr<io::FaultInjector> injector;
      if (profile != nullptr && profile->Enabled()) {
        injector = std::make_unique<io::FaultInjector>(*profile);
      }
      env->corpus_disk()->set_fault_injector(injector.get());
      env->corpus_disk()->set_retry_policy(
          injector != nullptr ? RetryPolicy{} : RetryPolicy::NoRetry());
      const uint64_t before = env->corpus_disk()->total_retries();
      out.status = [&]() -> Status {
        HPA_RETURN_IF_ERROR(reader.status());
        ops::ExecContext ctx;
        ctx.executor = &exec;
        ctx.corpus_disk = env->corpus_disk();
        ctx.fault_policy = policy;
        HPA_ASSIGN_OR_RETURN(auto tfidf, ops::TfidfInMemory(ctx, *reader));
        out.quarantine = std::move(tfidf.quarantine);
        ops::KMeansOptions kopts;
        kopts.k = static_cast<int>(flags.GetInt("clusters"));
        kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
        kopts.stop_on_convergence = false;
        HPA_ASSIGN_OR_RETURN(auto clusters,
                             ops::SparseKMeans(ctx, tfidf.matrix, kopts));
        out.assignment = std::move(clusters.assignment);
        return Status::OK();
      }();
      out.retries = env->corpus_disk()->total_retries() - before;
      env->corpus_disk()->set_fault_injector(nullptr);
      env->corpus_disk()->set_retry_policy(RetryPolicy::NoRetry());
      env->SetExecutor(nullptr);
      return out;
    };

    FaultRun clean = fault_run(nullptr, FaultPolicy::kFailFast);
    io::FaultProfile transient;
    transient.transient_rate = 0.01;
    transient.corruption_rate = 0.005;
    FaultRun faulted = fault_run(&transient, FaultPolicy::kRetryThenSkip);
    io::FaultProfile permanent;
    permanent.permanent_rate = 0.01;
    FaultRun degraded = fault_run(&permanent, FaultPolicy::kRetryThenSkip);

    Check(clean.status.ok() && clean.retries == 0 &&
              clean.quarantine.empty(),
          "fault-free run performs no retries",
          StrFormat("%llu retries, %zu quarantined",
                    static_cast<unsigned long long>(clean.retries),
                    clean.quarantine.size()));
    Check(faulted.status.ok() && faulted.quarantine.empty() &&
              !clean.assignment.empty() &&
              faulted.assignment == clean.assignment,
          "1% transient faults: clusters identical after recovery",
          StrFormat("%zu docs, %zu quarantined", faulted.assignment.size(),
                    faulted.quarantine.size()));
    Check(faulted.retries > 0,
          "recovery machinery exercised (retries observed)",
          StrFormat("%llu device retries at 1%% fault rate",
                    static_cast<unsigned long long>(faulted.retries)));
    Check(degraded.status.ok() && !degraded.quarantine.empty(),
          "permanent faults: retry-skip degrades gracefully",
          StrFormat("%zu doc(s) quarantined, workflow completed",
                    degraded.quarantine.size()));
    std::printf("  degraded-mode %s",
                core::FormatFaultSummary(degraded.quarantine,
                                         degraded.assignment.size(),
                                         degraded.retries)
                    .c_str());
  }

  // --- PR 3: workflow checkpoint/restart ---------------------------------
  std::printf("\nCheckpoint/restart (crash + resume at materialized edges):\n");
  {
    // Discrete TF/IDF -> K-means on Mix, both edges materialized and
    // therefore checkpointed.
    auto ckpt_run = [&](const std::string& dir, int crash_after,
                        core::WorkflowRunResult* out) -> Status {
      parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
      env->SetExecutor(&exec);
      core::Workflow wf;
      int src =
          wf.AddSource(core::Dataset(core::CorpusRef{*mix_rel}), "corpus");
      auto tfidf = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
      ops::KMeansOptions kopts;
      kopts.k = static_cast<int>(flags.GetInt("clusters"));
      kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
      kopts.stop_on_convergence = false;
      auto kmeans =
          wf.Add(std::make_unique<core::KMeansOperator>(kopts), {*tfidf});
      core::ExecutionPlan plan;
      plan.workers = 8;
      plan.nodes.resize(wf.size());
      plan.nodes[static_cast<size_t>(*tfidf)].output_boundary =
          core::Boundary::kMaterialized;
      plan.nodes[static_cast<size_t>(*kmeans)].output_boundary =
          core::Boundary::kMaterialized;
      core::RunEnv renv;
      renv.executor = &exec;
      renv.corpus_disk = env->corpus_disk();
      renv.scratch_disk = env->scratch_disk();
      renv.checkpoint_dir = dir;
      renv.crash_after_node = crash_after;
      auto r = core::RunWorkflow(wf, plan, renv);
      env->SetExecutor(nullptr);
      HPA_RETURN_IF_ERROR(r.status());
      if (out != nullptr) *out = std::move(*r);
      return Status::OK();
    };
    const std::string csv_path = core::KMeansOperator::kCsvPath;

    // The scratch directory persists inside the workdir across scorecard
    // invocations; drop any manifests a previous run committed so the
    // resumed/replayed counts below always describe THIS run's crash.
    for (const char* dir : {"sc-ckpt-full", "sc-ckpt"}) {
      for (int node = 0; node < 4; ++node) {
        (void)env->scratch_disk()->Remove(
            core::CheckpointManifestPath(dir, node));
      }
    }

    core::WorkflowRunResult full;
    Status full_status = ckpt_run("sc-ckpt-full", -1, &full);
    auto ref_csv = env->scratch_disk()->ReadFile(csv_path);

    Status crash_status = ckpt_run("sc-ckpt", 1, nullptr);  // die after tfidf
    core::WorkflowRunResult resumed;
    Status resume_status = ckpt_run("sc-ckpt", -1, &resumed);
    auto res_csv = env->scratch_disk()->ReadFile(csv_path);

    Check(full_status.ok() &&
              crash_status.code() == StatusCode::kInternal,
          "crash hook aborts the workflow after the TF/IDF node",
          crash_status.ok() ? "crash did not fire"
                            : crash_status.ToString());
    Check(resume_status.ok() && resumed.resumed_nodes == 1 &&
              resumed.replayed_nodes == 1,
          "resume restores TF/IDF from checkpoint, replays only K-means",
          StrFormat("resumed=%zu replayed=%zu (want 1/1)",
                    resumed.resumed_nodes, resumed.replayed_nodes));
    Check(ref_csv.ok() && res_csv.ok() && *res_csv == *ref_csv,
          "resumed clustering byte-identical to uninterrupted run",
          ref_csv.ok() && res_csv.ok()
              ? StrFormat("%zu bytes", res_csv->size())
              : "CSV unreadable");

    // Corrupt the K-means artifact: its checkpoint must be rejected (CRC)
    // and the node replayed from the still-valid TF/IDF checkpoint.
    Status corrupt =
        env->scratch_disk()->WriteFile(csv_path, "doc,cluster\ngarbage,0\n");
    core::WorkflowRunResult repaired;
    Status repair_status = ckpt_run("sc-ckpt", -1, &repaired);
    auto rep_csv = env->scratch_disk()->ReadFile(csv_path);
    Check(corrupt.ok() && repair_status.ok() &&
              !repaired.checkpoint_rejections.empty() &&
              repaired.resumed_nodes == 1 && repaired.replayed_nodes == 1 &&
              rep_csv.ok() && *rep_csv == *ref_csv,
          "corrupted artifact rejected by CRC; node replayed to same bytes",
          StrFormat("%zu rejection(s), resumed=%zu replayed=%zu",
                    repaired.checkpoint_rejections.size(),
                    repaired.resumed_nodes, repaired.replayed_nodes));
  }

  std::printf("\nServing layer (registry + admission + micro-batching):\n");
  {
    parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
    env->SetExecutor(&exec);
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *mix_rel);
    if (!reader.ok()) return 1;
    ops::ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = env->corpus_disk();
    ctx.scratch_disk = env->scratch_disk();
    serve::ModelConfig config;
    config.clusters = static_cast<int>(flags.GetInt("clusters"));
    // A fresh subdirectory per invocation is unnecessary — versions are
    // append-only, so re-running just publishes the next version.
    serve::ModelRegistry registry(env->scratch_disk(), "sc-models");
    ops::KMeansOptions kopts;
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
    auto fitted = registry.Fit(ctx, *reader, config, kopts);
    serve::ModelRegistry reloader(env->scratch_disk(), "sc-models");
    auto loaded = fitted.ok() ? reloader.Load(config, fitted->version())
                              : fitted.status();

    // Claim: a published snapshot reloads to a bit-identical classifier.
    size_t compared = 0, agreed = 0;
    if (fitted.ok() && loaded.ok()) {
      for (size_t i = 0; i < std::min<size_t>(reader->size(), 64); ++i) {
        auto body = reader->ReadBody(i);
        if (!body.ok()) break;
        double d1 = 0, d2 = 0;
        uint32_t c1 = fitted->Classify(*body, &d1);
        uint32_t c2 = loaded->Classify(*body, &d2);
        ++compared;
        if (c1 == c2 && std::memcmp(&d1, &d2, sizeof(d1)) == 0) ++agreed;
      }
    }
    Check(fitted.ok() && loaded.ok() && compared > 0 && agreed == compared,
          "registry snapshot reloads to a bit-identical classifier",
          fitted.ok() && loaded.ok()
              ? StrFormat("%zu/%zu documents agree (v%llu)", agreed,
                          compared,
                          static_cast<unsigned long long>(loaded->version()))
              : (fitted.ok() ? loaded.status() : fitted.status())
                    .ToString());

    // Claim: config drift and corrupt artifacts are rejected, never
    // silently served.
    serve::ModelConfig drifted = config;
    drifted.stem_tokens = !drifted.stem_tokens;
    auto drift_load = reloader.Load(drifted);
    std::string centroid_path =
        fitted.ok() ? StrFormat("sc-models/model-%llu.centroids",
                                static_cast<unsigned long long>(
                                    fitted->version()))
                    : "";
    bool corrupted_rejected = false;
    if (fitted.ok()) {
      auto bytes = env->scratch_disk()->ReadFile(centroid_path);
      if (bytes.ok()) {
        std::string bad = *bytes;
        bad[bad.size() / 2] ^= 0x10;
        if (env->scratch_disk()->WriteFile(centroid_path, bad).ok()) {
          corrupted_rejected = reloader.Load(config).status().code() ==
                               StatusCode::kCorruption;
          // Restore the artifact for any later scorecard run.
          (void)env->scratch_disk()->WriteFile(centroid_path, *bytes);
        }
      }
    }
    Check(!drift_load.ok() &&
              drift_load.status().code() == StatusCode::kFailedPrecondition &&
              corrupted_rejected,
          "snapshot integrity: config drift + bad CRC both rejected",
          StrFormat("drift=%s corrupt=%s",
                    StatusCodeName(drift_load.status().code()).data(),
                    corrupted_rejected ? "corruption" : "NOT REJECTED"));

    if (fitted.ok()) {
      std::vector<std::string> bodies;
      for (size_t i = 0; i < std::min<size_t>(reader->size(), 48); ++i) {
        auto body = reader->ReadBody(i);
        if (body.ok()) bodies.push_back(std::move(*body));
      }

      // Claim: micro-batched scoring is bit-identical to one-at-a-time.
      auto run_batched = [&](size_t max_batch) {
        serve::ServerOptions options;
        options.max_batch = max_batch;
        options.queue_capacity = bodies.size();
        serve::ServeMetrics metrics(8);
        serve::AnalyticsServer server(ctx, &*fitted, options, &metrics);
        std::vector<std::pair<uint32_t, double>> results(bodies.size());
        auto absorb = [&](std::vector<serve::Response> rs) {
          for (const serve::Response& r : rs) {
            results[r.id] = {r.cluster, r.distance};
          }
        };
        for (size_t i = 0; i < bodies.size(); ++i) {
          (void)server.Submit(i, bodies[i]);
          absorb(server.Poll());
        }
        absorb(server.Drain());
        return results;
      };
      auto singles = run_batched(1);
      auto batched = run_batched(8);
      bool identical = singles.size() == batched.size();
      for (size_t i = 0; identical && i < singles.size(); ++i) {
        // Compare the double's bit pattern, not through pair padding bytes.
        uint64_t a = 0, b = 0;
        std::memcpy(&a, &singles[i].second, sizeof(a));
        std::memcpy(&b, &batched[i].second, sizeof(b));
        identical = singles[i].first == batched[i].first && a == b;
      }
      Check(identical, "micro-batched scoring bit-identical to sequential",
            StrFormat("%zu requests, batch 8 vs 1", bodies.size()));

      // Claim: overload is rejected at the admission queue with bounded
      // depth and exact accounting.
      serve::ServerOptions tight;
      tight.queue_capacity = 8;
      tight.max_batch = 4;
      serve::ServeMetrics metrics(8);
      serve::AnalyticsServer server(ctx, &*fitted, tight, &metrics);
      for (size_t i = 0; i < bodies.size(); ++i) {
        (void)server.Submit(i, bodies[i]);  // no Poll: force overload
      }
      size_t answered = server.Drain().size();
      serve::ServeMetrics::Snapshot snap = metrics.Scrape();
      Check(snap.rejected > 0 && snap.max_queue_depth <= tight.queue_capacity &&
                snap.completed + snap.rejected == bodies.size() &&
                answered == snap.completed,
            "overload rejected at the queue with exact accounting",
            StrFormat("%llu rejected, depth<=%llu, %llu answered",
                      static_cast<unsigned long long>(snap.rejected),
                      static_cast<unsigned long long>(snap.max_queue_depth),
                      static_cast<unsigned long long>(snap.completed)));

      // Claim: deadline misses are accounted, and fully-expired batches
      // are cancelled without scoring anything.
      serve::ServerOptions slo;
      slo.max_batch = 8;
      serve::ServeMetrics mslo(8);
      serve::AnalyticsServer deadline_server(ctx, &*fitted, slo, &mslo);
      for (size_t i = 0; i < 8; ++i) {
        (void)deadline_server.Submit(i, bodies[i], exec.Now() + 1e-9);
      }
      exec.ChargeIoTime(0.010, 1);  // deadlines lapse before the flush
      size_t deadline_responses = deadline_server.Drain().size();
      serve::ServeMetrics::Snapshot dsnap = mslo.Scrape();
      Check(deadline_responses == 8 && dsnap.deadline_misses == 8 &&
                dsnap.docs_scored == 0,
            "expired batch cancelled; all 8 counted as deadline misses",
            StrFormat("misses=%llu scored=%llu",
                      static_cast<unsigned long long>(dsnap.deadline_misses),
                      static_cast<unsigned long long>(dsnap.docs_scored)));
    }
    env->SetExecutor(nullptr);
  }

  std::printf("\nServing robustness (breaker + hot-swap + registry GC):\n");
  {
    // This section does version arithmetic, so it starts from an empty
    // registry every invocation (unlike sc-models, which is append-only).
    std::error_code ec;
    std::filesystem::remove_all(
        std::filesystem::path(env->workdir()) / "scratch" / "sc-chaos", ec);

    parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
    env->SetExecutor(&exec);
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *mix_rel);
    if (!reader.ok()) return 1;
    ops::ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = env->corpus_disk();
    ctx.scratch_disk = env->scratch_disk();
    serve::ModelConfig config;
    config.clusters = static_cast<int>(flags.GetInt("clusters"));
    serve::ModelRegistry registry(env->scratch_disk(), "sc-chaos");
    ops::KMeansOptions kopts;
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
    auto fitted = registry.Fit(ctx, *reader, config, kopts);
    if (!fitted.ok()) {
      Check(false, "robustness section fit ran", fitted.status().ToString());
    } else {
      std::vector<std::string> bodies;
      for (size_t i = 0; i < std::min<size_t>(reader->size(), 24); ++i) {
        auto body = reader->ReadBody(i);
        if (body.ok()) bodies.push_back(std::move(*body));
      }

      // Claim: a permanent-fault storm is bounded by the breaker — after
      // `failure_threshold` consecutive failures the breaker opens and
      // every further request is shed with a bounded error, not scored
      // into another failure.
      io::FaultProfile storm;
      storm.permanent_rate = 1.0;
      storm.seed = 7;
      io::FaultInjector storm_injector(storm);
      serve::ServerOptions guarded;
      guarded.max_batch = 1;
      guarded.queue_capacity = 64;
      guarded.injector = &storm_injector;
      guarded.breaker_enabled = true;
      guarded.breaker.failure_threshold = 3;
      guarded.breaker.half_open_probes = 2;
      guarded.breaker.open_sec = 1e6;  // never re-probes within this run
      serve::ServeMetrics storm_metrics(8);
      serve::AnalyticsServer guarded_server(ctx, &*fitted, guarded,
                                            &storm_metrics);
      for (size_t i = 0; i < 20; ++i) {
        (void)guarded_server.Submit(i, bodies[i % bodies.size()]);
        (void)guarded_server.Poll();
      }
      (void)guarded_server.Drain();
      serve::ServeMetrics::Snapshot ssnap = storm_metrics.Scrape();
      uint64_t opens = guarded_server.breaker().opens();
      uint64_t bound = (opens + 1) * static_cast<uint64_t>(
                                         guarded.breaker.failure_threshold +
                                         guarded.breaker.half_open_probes);
      Check(ssnap.failed == 3 && ssnap.breaker_shed == 17 && opens == 1 &&
                ssnap.failed <= bound,
            "fault storm: breaker bounds errors, sheds the rest",
            StrFormat("failed=%llu shed=%llu opens=%llu bound=%llu",
                      static_cast<unsigned long long>(ssnap.failed),
                      static_cast<unsigned long long>(ssnap.breaker_shed),
                      static_cast<unsigned long long>(opens),
                      static_cast<unsigned long long>(bound)));

      // Claim: a crash between manifest commit and pointer move leaves a
      // committed-but-unadvertised version; GC detects it, rolls the
      // latest pointer forward, and a second pass is a no-op. A crash
      // before the manifest leaves a torn version that GC deletes.
      serve::RegistryGc gc(env->scratch_disk(), "sc-chaos");
      registry.set_crash_after_publish_step(0);  // torn: artifact only
      auto torn = registry.Fit(ctx, *reader, config, kopts);
      registry.set_crash_after_publish_step(-1);
      auto gc_torn = gc.Run();  // deletes the orphan artifact
      registry.set_crash_after_publish_step(2);  // committed, stale pointer
      auto stale = registry.Fit(ctx, *reader, config, kopts);
      registry.set_crash_after_publish_step(-1);
      auto gc_fwd = gc.Run();   // rolls the latest pointer forward
      auto gc_idem = gc.Run();  // and is then a no-op
      auto recovered = registry.Load(config);
      Check(!torn.ok() && !stale.ok() && gc_torn.ok() && gc_fwd.ok() &&
                gc_idem.ok() && gc_torn->torn_versions.size() == 1 &&
                !gc_torn->latest_repaired && gc_fwd->latest_repaired &&
                gc_fwd->torn_versions.empty() && !gc_idem->latest_repaired &&
                recovered.ok() &&
                recovered->version() == fitted->version() + 1,
            "torn publish cleaned, committed version rolled forward",
            gc_torn.ok() && gc_fwd.ok()
                ? StrFormat("torn [%s], forward [%s]",
                            gc_torn->Summary().c_str(),
                            gc_fwd->Summary().c_str())
                : "gc error");

      // Claim: retain-N compaction keeps the newest N intact versions and
      // the newest still loads bit-identically after the sweep.
      auto v3 = registry.Fit(ctx, *reader, config, kopts);
      auto v4 = registry.Fit(ctx, *reader, config, kopts);
      serve::GcOptions retain_two;
      retain_two.retain = 2;
      serve::RegistryGc compactor(env->scratch_disk(), "sc-chaos",
                                  retain_two);
      auto swept = compactor.Run();
      auto newest = registry.Load(config);
      bool oldest_gone =
          swept.ok() &&
          !env->scratch_disk()->Exists(registry.ManifestPath(1));
      Check(v3.ok() && v4.ok() && swept.ok() &&
                swept->removed_versions.size() == 2 && oldest_gone &&
                newest.ok() && newest->version() == v4->version(),
            "retain-2 sweep removes old versions, newest still loads",
            swept.ok() ? swept->Summary() : "gc error");

      // Claim: hot-swap follows the registry under live traffic, and the
      // canary gate rolls a candidate back without touching the live
      // model. (An unreachable agreement bar stands in for a bad
      // candidate: even a bit-identical refit must be rejected.)
      serve::ServerOptions swap_opts;
      swap_opts.max_batch = 4;
      swap_opts.queue_capacity = 64;
      serve::ServeMetrics swap_metrics(8);
      serve::AnalyticsServer swapper(ctx, &*fitted, swap_opts,
                                     &swap_metrics);
      uint64_t before = swapper.model_version();
      Status up = swapper.TryHotSwap(registry, config, bodies);
      uint64_t after_swap = swapper.model_version();
      serve::ServerOptions picky = swap_opts;
      picky.canary_min_agree = 1.1;
      serve::ServeMetrics picky_metrics(8);
      serve::AnalyticsServer gatekeeper(ctx, &*fitted, picky,
                                        &picky_metrics);
      Status rolled = gatekeeper.TryHotSwap(registry, config, bodies);
      serve::ServeMetrics::Snapshot up_snap = swap_metrics.Scrape();
      serve::ServeMetrics::Snapshot gate_snap = picky_metrics.Scrape();
      Check(up.ok() && before == fitted->version() &&
                after_swap == v4->version() && up_snap.hot_swaps == 1 &&
                !rolled.ok() &&
                rolled.code() == StatusCode::kFailedPrecondition &&
                gatekeeper.model_version() == fitted->version() &&
                gate_snap.swap_rollbacks == 1,
            "hot-swap upgrades to latest; canary failure rolls back",
            StrFormat("v%llu -> v%llu, rollback kept v%llu",
                      static_cast<unsigned long long>(before),
                      static_cast<unsigned long long>(after_swap),
                      static_cast<unsigned long long>(
                          gatekeeper.model_version())));
    }
    env->SetExecutor(nullptr);
  }

  // --- PR 10: multi-model router + automated rollout ----------------------
  std::printf("\nModel router (weighted split + shadow + rollout):\n");
  {
    parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
    env->SetExecutor(&exec);
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *mix_rel);
    if (!reader.ok()) return 1;
    ops::ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = env->corpus_disk();
    ctx.scratch_disk = env->scratch_disk();
    serve::ModelConfig config;
    config.clusters = static_cast<int>(flags.GetInt("clusters"));
    serve::ModelRegistry registry(env->scratch_disk(), "sc-router");
    ops::KMeansOptions kopts;
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
    // Two fits on the same executor: the second is a bit-identical refit,
    // so shadow agreement below 100% would be a real defect.
    auto fit_a = registry.Fit(ctx, *reader, config, kopts);
    auto fit_b = registry.Fit(ctx, *reader, config, kopts);
    std::vector<std::string> bodies;
    for (size_t i = 0; i < std::min<size_t>(reader->size(), 48); ++i) {
      auto body = reader->ReadBody(i);
      if (!body.ok()) break;
      bodies.push_back(std::move(*body));
    }
    std::shared_ptr<const serve::ModelHandle> stable, cand;
    if (fit_a.ok()) {
      stable = std::make_shared<const serve::ModelHandle>(std::move(*fit_a));
    }
    if (fit_b.ok()) {
      cand = std::make_shared<const serve::ModelHandle>(std::move(*fit_b));
    }
    const bool fixture_ok =
        stable != nullptr && cand != nullptr && !bodies.empty();

    serve::RouterOptions ropts;
    ropts.server.max_batch = 4;
    ropts.server.queue_capacity = 64;

    // Claim: the 90/10 split equals an independent recompute of the
    // pure routing function, and every response names the version the
    // recompute picked.
    uint64_t want_a = 0, want_b = 0, routed_a = 0, routed_b = 0;
    bool versions_match = fixture_ok;
    if (fixture_ok) {
      serve::ModelRouter router(ctx, ropts);
      (void)router.AddRoute(stable, 90);
      (void)router.AddRoute(cand, 10);
      std::vector<serve::Response> got;
      auto take = [&](std::vector<serve::Response> batch) {
        got.insert(got.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
      };
      for (uint64_t id = 0; id < 400; ++id) {
        ++(router.RouteVersionFor(id) == stable->version() ? want_a
                                                           : want_b);
        (void)router.Submit(id, bodies[id % bodies.size()]);
        take(router.Poll());
      }
      take(router.Drain());
      for (const serve::RouteStats& rs : router.Scrape()) {
        if (rs.version == stable->version()) routed_a = rs.routed;
        if (rs.version == cand->version()) routed_b = rs.routed;
      }
      for (const serve::Response& r : got) {
        if (r.model_version != 0 &&
            r.model_version != router.RouteVersionFor(r.id)) {
          versions_match = false;
        }
      }
    }
    Check(fixture_ok && want_a + want_b == 400 && routed_a == want_a &&
              routed_b == want_b && versions_match,
          "90/10 split equals the hash-bucket recompute exactly",
          StrFormat("routed %llu/%llu, recomputed %llu/%llu",
                    static_cast<unsigned long long>(routed_a),
                    static_cast<unsigned long long>(routed_b),
                    static_cast<unsigned long long>(want_a),
                    static_cast<unsigned long long>(want_b)));

    // Claim: a shadow route scores the full sample, agrees with the
    // served model, and changes no served byte (digest-compared against
    // a shadow-free twin serving the same stream).
    uint64_t scored = 0, disagreed = 0;
    auto serve_stream = [&](bool with_shadow) -> std::string {
      serve::ModelRouter router(ctx, ropts);
      (void)router.AddRoute(stable, 100);
      if (with_shadow) {
        (void)router.AddRoute(cand, /*weight=*/0, /*shadow=*/true);
      }
      std::vector<serve::Response> got;
      auto take = [&](std::vector<serve::Response> batch) {
        got.insert(got.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
      };
      for (uint64_t id = 0; id < 200; ++id) {
        (void)router.Submit(id, bodies[id % bodies.size()]);
        take(router.Poll());
      }
      take(router.Drain());
      for (const serve::RouteStats& rs : router.Scrape()) {
        if (rs.shadow) {
          scored = rs.shadow_scored;
          disagreed = rs.shadow_disagreed;
        }
      }
      std::sort(got.begin(), got.end(),
                [](const serve::Response& a, const serve::Response& b) {
                  return a.id < b.id;
                });
      std::string digest;
      for (const serve::Response& r : got) {
        digest += StrFormat("%llu:v%llu:%u:%a\n",
                            static_cast<unsigned long long>(r.id),
                            static_cast<unsigned long long>(r.model_version),
                            r.cluster, r.distance);
      }
      return digest;
    };
    std::string with_shadow = fixture_ok ? serve_stream(true) : "";
    std::string bare = fixture_ok ? serve_stream(false) : "x";
    Check(fixture_ok && !with_shadow.empty() && with_shadow == bare &&
              scored > 0 && disagreed == 0,
          "shadow scores full sample, agrees, alters no served byte",
          StrFormat("%llu scored, %llu disagreed, digests %s",
                    static_cast<unsigned long long>(scored),
                    static_cast<unsigned long long>(disagreed),
                    with_shadow == bare ? "identical" : "DIVERGED"));

    // Claim: the rollout controller promotes a healthy candidate and an
    // unreachable shadow-agreement bar rolls it back without the
    // candidate ever taking weighted traffic.
    auto rollout_run = [&](double min_agree, serve::RolloutState* end_state,
                           uint64_t* serving, size_t* routes) {
      serve::ModelRouter router(ctx, ropts);
      (void)router.AddRoute(stable, 100);
      serve::RolloutOptions opts;
      opts.shadow_min_compares = 16;
      opts.shadow_min_agree = min_agree;
      opts.canary_window_sec = 1e-5;
      opts.canary_windows = 2;
      opts.canary_min_served = 1;
      serve::RolloutController controller(&router, opts);
      Status begun = controller.Begin(stable->version(), cand);
      for (uint64_t id = 0; begun.ok() && id < 4000; ++id) {
        if (controller.state() == serve::RolloutState::kPromoted ||
            controller.state() == serve::RolloutState::kRolledBack) {
          break;
        }
        (void)router.Submit(id, bodies[id % bodies.size()]);
        (void)router.Poll();
        (void)controller.Tick(exec.Now());
      }
      router.FlushAll();
      (void)controller.Tick(exec.Now());
      *end_state = controller.state();
      for (const serve::RouteStats& rs : router.Scrape()) {
        if (rs.weight > 0) *serving = rs.version;
      }
      *routes = router.num_routes();
      (void)router.Drain();
    };
    serve::RolloutState promoted = serve::RolloutState::kIdle;
    serve::RolloutState rolled = serve::RolloutState::kIdle;
    uint64_t serving_after_promote = 0, serving_after_rollback = 0;
    size_t routes_after_promote = 0, routes_after_rollback = 0;
    if (fixture_ok) {
      rollout_run(0.98, &promoted, &serving_after_promote,
                  &routes_after_promote);
      rollout_run(1.01, &rolled, &serving_after_rollback,
                  &routes_after_rollback);
    }
    Check(fixture_ok && promoted == serve::RolloutState::kPromoted &&
              serving_after_promote == cand->version() &&
              rolled == serve::RolloutState::kRolledBack &&
              serving_after_rollback == stable->version() &&
              routes_after_rollback == 1,
          "rollout promotes healthy candidate; failed gate rolls back",
          StrFormat("promote -> %s serves v%llu; strict gate -> %s serves "
                    "v%llu",
                    std::string(serve::RolloutStateName(promoted)).c_str(),
                    static_cast<unsigned long long>(serving_after_promote),
                    std::string(serve::RolloutStateName(rolled)).c_str(),
                    static_cast<unsigned long long>(
                        serving_after_rollback)));
    env->SetExecutor(nullptr);
  }

  // --- PR 6: triangle-inequality-pruned K-means ---------------------------
  std::printf("\nPruned K-means (Hamerly bounds):\n");
  {
    auto prune_run = [&](bool prune, int max_iters,
                         bool converge) -> StatusOr<ops::KMeansResult> {
      parallel::SimulatedExecutor exec(8,
                                       parallel::MachineModel::Default());
      ops::ExecContext ctx;
      ctx.executor = &exec;
      ctx.no_prune = !prune;
      ops::KMeansOptions kopts;
      kopts.k = static_cast<int>(flags.GetInt("clusters"));
      kopts.max_iterations = max_iters;
      kopts.stop_on_convergence = converge;
      return ops::SparseKMeans(ctx, mix_tfidf->matrix, kopts);
    };
    const int iters =
        static_cast<int>(flags.GetInt("kmeans_iters")) * 2;
    auto pruned = prune_run(true, iters, false);
    auto full = prune_run(false, iters, false);
    if (pruned.ok() && full.ok()) {
      Check(pruned->assignment == full->assignment &&
                pruned->centroids == full->centroids &&
                pruned->inertia_history == full->inertia_history &&
                pruned->iterations == full->iterations,
            "pruned clustering bit-identical to the full scan",
            StrFormat("%zu docs, %d iterations, %llu kernels skipped",
                      pruned->assignment.size(), pruned->iterations,
                      static_cast<unsigned long long>(
                          pruned->distance_kernels_skipped)));
    } else {
      Check(false, "pruned K-means comparison ran", "error");
    }

    // Bounds warm up as assignments settle (at small scales by iteration
    // 2, at larger scales a few iterations later). Convergence stops the
    // moment assignments stop changing — the drift hits zero in that
    // iteration's finalize — so the payoff shows one iteration later:
    // run two past the convergence point and every document must skip.
    auto conv = prune_run(true, 64, true);
    auto settled =
        conv.ok() && conv->converged
            ? prune_run(true, conv->iterations + 2, false)
            : std::move(conv);
    Check(settled.ok() && !settled->skip_rate_history.empty() &&
              settled->skip_rate_history.back() > 0.5,
          "Mix skip rate exceeds 50% once bounds warm up",
          settled.ok()
              ? StrFormat("%.1f%% at iteration %d (settled)",
                          100.0 * settled->skip_rate_history.back(),
                          settled->iterations - 1)
              : "error");

    // With a single iteration there are no bounds yet, so every document
    // takes the exact path: pruning must cost zero extra kernels.
    auto one_p = prune_run(true, 1, false);
    auto one_f = prune_run(false, 1, false);
    Check(one_p.ok() && one_f.ok() &&
              one_p->distance_kernels_skipped == 0 &&
              one_p->distance_kernels_evaluated ==
                  one_f->distance_kernels_evaluated,
          "no bounds at iteration 0: pruning adds zero extra kernels",
          one_p.ok() && one_f.ok()
              ? StrFormat("%llu kernels either way",
                          static_cast<unsigned long long>(
                              one_p->distance_kernels_evaluated))
              : "error");
  }

  // --- PR 8: classifier family over the shared sparse core ----------------
  std::printf("\nClassifier family (Naive Bayes + k-NN):\n");
  {
    // Labeled twin of the Mix corpus: three planted marker classes in the
    // v3 label column.
    const std::string labeled_rel = "sc-labeled.pack";
    bool setup_ok = false;
    std::vector<std::string> labels;
    StatusOr<ops::TfidfResult> ltfidf = Status::Internal("unset");
    {
      parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
      env->SetExecutor(&exec);
      auto corpus = text::ReadCorpusPacked(env->corpus_disk(), *mix_rel);
      if (corpus.ok()) {
        text::AssignSyntheticLabels(&*corpus, 3, /*seed=*/29);
        if (text::WriteCorpusPacked(*corpus, env->corpus_disk(), labeled_rel)
                .ok()) {
          auto reader =
              io::PackedCorpusReader::Open(env->corpus_disk(), labeled_rel);
          if (reader.ok()) {
            ops::ExecContext ctx;
            ctx.executor = &exec;
            ctx.corpus_disk = env->corpus_disk();
            ltfidf = ops::TfidfInMemory(ctx, *reader);
            if (ltfidf.ok()) {
              for (size_t i = 0; i < reader->size(); ++i) {
                labels.push_back(reader->label(i));
              }
              setup_ok = true;
            }
          }
        }
      }
      env->SetExecutor(nullptr);
    }
    if (!setup_ok) {
      Check(false, "classifier fixture (labeled Mix twin) built", "error");
    } else {
      auto train_nb = [&](int workers) -> StatusOr<ops::NaiveBayesModel> {
        parallel::SimulatedExecutor exec(workers,
                                         parallel::MachineModel::Default());
        ops::ExecContext ctx;
        ctx.executor = &exec;
        return ops::TrainNaiveBayes(ctx, ltfidf->matrix, labels);
      };
      auto nb1 = train_nb(1);
      auto nb8 = train_nb(8);

      // Claim: NB training and prediction are schedule-invariant — the
      // merge discipline makes w=1 and w=8 produce the same bits.
      std::vector<uint32_t> pred1, pred8;
      if (nb1.ok() && nb8.ok()) {
        for (int workers : {1, 8}) {
          parallel::SimulatedExecutor exec(workers,
                                           parallel::MachineModel::Default());
          ops::ExecContext ctx;
          ctx.executor = &exec;
          (workers == 1 ? pred1 : pred8) =
              ops::PredictNaiveBayes(ctx, *nb8, ltfidf->matrix);
        }
      }
      Check(nb1.ok() && nb8.ok() && *nb1 == *nb8 && !pred1.empty() &&
                pred1 == pred8,
            "Naive Bayes bits invariant to worker count",
            nb1.ok() && nb8.ok()
                ? StrFormat("%llu docs trained, %zu classes, %zu predictions",
                            static_cast<unsigned long long>(
                                nb8->documents_trained),
                            nb8->num_classes(), pred8.size())
                : (nb1.ok() ? nb8.status() : nb1.status()).ToString());

      // Claim: the planted class structure is learnable — training
      // accuracy on the marker classes is near-perfect.
      if (nb8.ok() && !pred8.empty()) {
        uint64_t labeled = 0, correct = 0;
        for (size_t i = 0; i < pred8.size(); ++i) {
          if (labels[i].empty()) continue;
          ++labeled;
          if (pred8[i] < nb8->num_classes() &&
              nb8->labels[pred8[i]] == labels[i]) {
            ++correct;
          }
        }
        double acc = labeled > 0
                         ? static_cast<double>(correct) /
                               static_cast<double>(labeled)
                         : 0.0;
        Check(labeled > 0 && acc > 0.9,
              "NB recovers the planted classes (accuracy > 0.9)",
              StrFormat("%llu/%llu correct (%.1f%%)",
                        static_cast<unsigned long long>(correct),
                        static_cast<unsigned long long>(labeled),
                        100.0 * acc));
      } else {
        Check(false, "NB recovers the planted classes (accuracy > 0.9)",
              "no model");
      }

      // Claim: k-NN prediction (bounded worst-at-top heap, document-id
      // tie-breaks) is invariant to worker count.
      ops::KnnOptions knn_opts;
      knn_opts.k = 5;
      StatusOr<ops::KnnModel> knn = Status::Internal("unset");
      std::vector<uint32_t> kpred1, kpred8;
      {
        for (int workers : {1, 8}) {
          parallel::SimulatedExecutor exec(workers,
                                           parallel::MachineModel::Default());
          ops::ExecContext ctx;
          ctx.executor = &exec;
          if (workers == 1) {
            knn = ops::TrainKnn(ctx, ltfidf->matrix, labels, knn_opts);
            if (!knn.ok()) break;
          }
          (workers == 1 ? kpred1 : kpred8) =
              ops::PredictKnn(ctx, *knn, ltfidf->matrix);
        }
      }
      Check(knn.ok() && !kpred1.empty() && kpred1 == kpred8,
            "k-NN (k=5) bits invariant to worker count",
            knn.ok() ? StrFormat("%zu training rows, %zu predictions",
                                 knn->train.num_rows(), kpred8.size())
                     : knn.status().ToString());

      // Claim: both model artifacts round-trip bit-exactly through their
      // text serializations (the checkpoint/registry contract).
      bool nb_roundtrip = false, knn_roundtrip = false;
      if (nb8.ok()) {
        auto parsed = ops::ParseNaiveBayesModel(
            ops::SerializeNaiveBayesModel(*nb8), "scorecard");
        nb_roundtrip = parsed.ok() && *parsed == *nb8;
      }
      if (knn.ok()) {
        auto parsed =
            ops::ParseKnnModel(ops::SerializeKnnModel(*knn), "scorecard");
        knn_roundtrip = parsed.ok() && *parsed == *knn;
      }
      Check(nb_roundtrip && knn_roundtrip,
            "classifier artifacts round-trip bit-exactly",
            StrFormat("nb=%s knn=%s", nb_roundtrip ? "ok" : "DIFFERS",
                      knn_roundtrip ? "ok" : "DIFFERS"));
    }
  }

  // --- out-of-core streaming --------------------------------------------
  {
    ops::KMeansOptions kopts;
    kopts.k = static_cast<int>(flags.GetInt("clusters"));
    kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
    kopts.stop_on_convergence = false;

    auto inmem_run = [&]() -> StatusOr<ops::KMeansResult> {
      parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
      ops::ExecContext ctx;
      ctx.executor = &exec;
      return ops::SparseKMeans(ctx, mix_tfidf->matrix, kopts);
    };
    auto stream_run = [&](uint64_t window_bytes, io::PrefetchStats* stats)
        -> StatusOr<ops::KMeansResult> {
      parallel::SimulatedExecutor exec(8, parallel::MachineModel::Default());
      env->corpus_disk()->set_executor(&exec);
      ops::ExecContext ctx;
      ctx.executor = &exec;
      ctx.corpus_disk = env->corpus_disk();
      ops::StreamingOptions sopts;
      sopts.window_bytes = window_bytes;
      io::PrefetchStats fit_stats;
      auto model =
          ops::StreamingTfidfFit(ctx, *mix_reader, {}, sopts, &fit_stats);
      StatusOr<ops::KMeansResult> result =
          model.ok() ? ops::StreamingSparseKMeans(ctx, *model, *mix_reader,
                                                  kopts, sopts, stats)
                     : model.status();
      env->corpus_disk()->set_executor(nullptr);
      if (result.ok() && stats != nullptr) {
        stats->high_water_bytes =
            std::max(stats->high_water_bytes, fit_stats.high_water_bytes);
      }
      return result;
    };

    // Claim: streaming through bounded windows reproduces the in-memory
    // clustering bit for bit, and the corpus-resident high-water mark
    // stays within the two-window memory budget the window was sized for.
    auto golden = inmem_run();
    const uint64_t window = 256 * 1024;
    io::PrefetchStats small_stats, large_stats;
    auto small = stream_run(window, &small_stats);
    auto large = stream_run(4 * window, &large_stats);
    const bool identical =
        golden.ok() && small.ok() && large.ok() &&
        small->assignment == golden->assignment &&
        small->centroids == golden->centroids &&
        small->inertia_history == golden->inertia_history &&
        large->assignment == golden->assignment &&
        large->centroids == golden->centroids &&
        large->inertia_history == golden->inertia_history;
    Check(identical,
          "streamed TF/IDF->K-means bit-identical to in-memory",
          golden.ok() && small.ok() && large.ok()
              ? StrFormat("%zu docs at %s and %s windows",
                          golden->assignment.size(),
                          HumanBytes(window).c_str(),
                          HumanBytes(4 * window).c_str())
              : "error");
    Check(small.ok() && small_stats.high_water_bytes <= 2 * window &&
              small_stats.windows_prefetched > 0,
          "corpus residency bounded by the two-window budget",
          small.ok()
              ? StrFormat("high water %s <= %s, %llu windows prefetched",
                          HumanBytes(small_stats.high_water_bytes).c_str(),
                          HumanBytes(2 * window).c_str(),
                          static_cast<unsigned long long>(
                              small_stats.windows_prefetched))
              : "error");

    // Claim: the optimizer flips the TF/IDF edge to streaming only when
    // the memory budget drops below the estimated matrix footprint.
    core::WorkloadStats wstats;
    wstats.documents = 23432;
    wstats.total_tokens = 9'000'000;
    wstats.distinct_words = 184743;
    wstats.avg_distinct_per_doc = 200.0;
    core::CostModel cost_model(parallel::MachineModel::Default(), wstats);
    core::Workflow wf;
    int src = wf.AddSource(core::Dataset(core::CorpusRef{*mix_rel}),
                           "corpus");
    auto tnode = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
    ops::KMeansOptions pk;
    pk.k = 8;
    pk.max_iterations = 6;
    auto knode =
        wf.Add(std::make_unique<core::KMeansOperator>(pk), {*tnode});
    bool flip_ok = false;
    if (tnode.ok() && knode.ok()) {
      const uint64_t footprint = cost_model.EstimateMatrixBytes();
      core::OptimizerOptions oopts;
      oopts.workers = 8;
      oopts.mem_budget_bytes = footprint / 4;
      bool tight = core::OptimizeWorkflow(wf, cost_model, oopts)
                       .nodes[static_cast<size_t>(*tnode)]
                       .stream_corpus;
      oopts.mem_budget_bytes = footprint * 2;
      bool roomy = core::OptimizeWorkflow(wf, cost_model, oopts)
                       .nodes[static_cast<size_t>(*tnode)]
                       .stream_corpus;
      flip_ok = tight && !roomy;
    }
    Check(flip_ok,
          "optimizer streams the TF/IDF edge only under a tight budget",
          StrFormat("footprint %s: stream below, materialize above",
                    HumanBytes(cost_model.EstimateMatrixBytes()).c_str()));
  }

  std::printf("\n%d/%d claims reproduced at --scale=%.3g\n",
              g_checks - g_failures, g_checks, flags.GetDouble("scale"));
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
