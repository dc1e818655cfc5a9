// Figure 3 — execution time of the TF/IDF -> K-Means workflow on the NSF
// Abstracts input, executed as *discrete* operators communicating through
// an ARFF file on the (simulated) local hard disk, versus a *merged*
// operator that hands the TF/IDF scores over in memory. Stacked phase
// breakdown at 1/4/8/12/16 threads.
//
// Paper shape: at 1 thread the discrete workflow is ~36.9% slower than
// merged; at 16 threads the (serial, unparallelizable) I/O phases dominate
// and discrete is ~3.84x slower.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/optimizer.h"
#include "core/report.h"
#include "core/standard_ops.h"
#include "core/workflow_executor.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("fig3_workflow_fusion",
                "regenerates Figure 3 (discrete vs merged workflow)");
  AddCommonFlags(flags);
  flags.DefineString("corpus", "nsf", "corpus: nsf | mix");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Figure 3: discrete vs merged TF/IDF->K-means workflow",
              flags);

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

  text::CorpusProfile base = flags.GetString("corpus") == "mix"
                                 ? text::CorpusProfile::Mix()
                                 : text::CorpusProfile::NsfAbstracts();
  text::CorpusProfile profile = env->ScaleProfile(base);
  auto rel = env->EnsureCorpus(profile);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }

  auto make_workflow = [&](int kmeans_iters, int clusters) {
    core::Workflow wf;
    int src = wf.AddSource(core::Dataset(core::CorpusRef{*rel}), "corpus");
    auto tfidf = wf.Add(std::make_unique<core::TfidfOperator>(), {src});
    ops::KMeansOptions kopts;
    kopts.k = clusters;
    kopts.max_iterations = kmeans_iters;
    kopts.stop_on_convergence = false;
    auto kmeans =
        wf.Add(std::make_unique<core::KMeansOperator>(kopts), {*tfidf});
    (void)kmeans;
    return wf;
  };

  const std::vector<std::string> phase_order = {
      "input+wc", "df-merge", "tfidf-output", "kmeans-input",
      "transform", "kmeans",  "output"};

  std::vector<core::BreakdownColumn> columns;
  double merged_total_1 = 0, discrete_total_1 = 0;
  double merged_total_hi = 0, discrete_total_hi = 0;
  int hi_threads = (*threads_or).back();

  for (int threads : *threads_or) {
    for (bool discrete : {true, false}) {
      core::Workflow wf =
          make_workflow(static_cast<int>(flags.GetInt("kmeans_iters")),
                        static_cast<int>(flags.GetInt("clusters")));
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        return 2;
      }
      env->SetExecutor(exec.get());

      core::ExecutionPlan plan;
      plan.workers = threads;
      plan.nodes.resize(wf.size());
      // The paper's per-document word count.
      for (core::NodePlan& np : plan.nodes) {
        np.dict_backend = containers::DictBackend::kOpenHash;
      }
      if (discrete) {
        plan.nodes[1].output_boundary = core::Boundary::kMaterialized;
      }
      plan.nodes[2].output_boundary = core::Boundary::kMaterialized;

      core::RunEnv run_env;
      run_env.executor = exec.get();
      run_env.corpus_disk = env->corpus_disk();
      run_env.scratch_disk = env->scratch_disk();

      auto result = core::RunWorkflow(wf, plan, run_env);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      core::BreakdownColumn col;
      col.label = std::string(discrete ? "discrete" : "merged") + "@" +
                  std::to_string(threads);
      col.phases = result->phases;
      columns.push_back(std::move(col));

      double total = result->phases.TotalSeconds();
      if (threads == 1) (discrete ? discrete_total_1 : merged_total_1) = total;
      if (threads == hi_threads) {
        (discrete ? discrete_total_hi : merged_total_hi) = total;
      }
    }
  }

  std::printf("\n[%s] execution time breakdown (seconds, executor clock)\n\n",
              profile.name.c_str());
  std::printf("%s\n", core::FormatPhaseBreakdown(columns, phase_order).c_str());

  if (merged_total_1 > 0 && merged_total_hi > 0) {
    std::printf("I/O overhead of the discrete workflow: +%.1f%% at 1 thread, "
                "%.2fx at %d threads\n",
                (discrete_total_1 / merged_total_1 - 1.0) * 100.0,
                discrete_total_hi / merged_total_hi, hi_threads);
    std::printf("paper (full scale): +36.9%% at 1 thread, 3.84x at 16 "
                "threads\n");
  }
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
