// Ablation — buffer recycling in K-means (§3.1 optimisation (ii): "we do
// not create new objects during the iterations of the K-means algorithm").
// Runs the same clustering with recycled accumulators vs fresh allocations
// every iteration and reports the slowdown of the naive mode.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("ablation_recycling",
                "K-means with vs without buffer recycling (§3.1)");
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
  PrintBanner("Ablation: K-means buffer recycling", flags);

  auto env_or = BenchEnv::Create(flags);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  auto& env = *env_or;

  text::CorpusProfile profile =
      env->ScaleProfile(text::CorpusProfile::Mix());
  auto rel = env->EnsureCorpus(profile);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }
  env->SetExecutor(nullptr);
  parallel::SerialExecutor setup_exec;
  ops::ExecContext setup_ctx;
  setup_ctx.executor = &setup_exec;
  auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  setup_ctx.corpus_disk = env->corpus_disk();
  auto tfidf = ops::TfidfInMemory(setup_ctx, *reader);
  if (!tfidf.ok()) {
    std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
    return 1;
  }

  auto threads_or = ParseIntList(flags.GetString("threads"));
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n", threads_or.status().ToString().c_str());
    return 2;
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"threads", "recycled", "fresh-alloc", "slowdown"});
  for (int threads : *threads_or) {
    double times[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        return 2;
      }
      env->SetExecutor(exec.get());
      for (int rep = 0; rep < flags.GetInt("repeats"); ++rep) {
        PhaseTimer phases;
        ops::ExecContext ctx;
        ctx.serial_merge = flags.GetBool("serial-merge");
        ctx.executor = exec.get();
        ctx.phases = &phases;
        ops::KMeansOptions kopts;
        kopts.k = static_cast<int>(flags.GetInt("clusters"));
        kopts.max_iterations = static_cast<int>(flags.GetInt("kmeans_iters"));
        kopts.stop_on_convergence = false;
        kopts.recycle_buffers = (mode == 0);
        auto result = ops::SparseKMeans(ctx, tfidf->matrix, kopts);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        double t = phases.Seconds("kmeans");
        if (rep == 0 || t < times[mode]) times[mode] = t;
      }
      env->SetExecutor(nullptr);
    }
    rows.push_back({std::to_string(threads),
                    HumanDuration(times[0]), HumanDuration(times[1]),
                    StrFormat("%.2fx", times[1] / times[0])});
  }

  std::printf("\n%s\n", core::FormatTable(rows).c_str());
  std::printf("expected shape: fresh allocation of worker accumulators "
              "(k x vocabulary\ndoubles per worker, per iteration) costs a "
              "constant factor that grows with\nthe worker count.\n");
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
