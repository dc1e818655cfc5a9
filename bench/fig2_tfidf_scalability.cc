// Figure 2 — "Self-relative parallel scalability of the TF/IDF operator":
// speedup vs thread count on both corpora for the full discrete TF/IDF
// operator (parallel input + word count, then serial scoring + ARFF
// output — "the ARFF format does not facilitate parallel output").
//
// Paper shape: ~6x (Mix) and ~7x (NSF Abstracts) at 16 threads; the serial
// output phase and storage bandwidth bound the curves below linear.

#include <cstdio>

#include "bench_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("fig2_tfidf_scalability",
                "regenerates Figure 2 (TF/IDF self-relative speedup)");
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
  PrintBanner("Figure 2: TF/IDF self-relative speedup", flags);

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

  std::vector<core::SpeedupSeries> series;
  for (const text::CorpusProfile& base :
       {text::CorpusProfile::NsfAbstracts(), text::CorpusProfile::Mix()}) {
    text::CorpusProfile profile = env->ScaleProfile(base);
    auto rel = env->EnsureCorpus(profile);
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }

    env->SetExecutor(nullptr);
    core::SpeedupSeries curve;
    curve.label = base.name;
    for (int threads : *threads_or) {
      auto exec = MakeBenchExecutor(flags, threads);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        return 2;
      }
      env->SetExecutor(exec.get());
      PhaseTimer phases;
      ops::ExecContext ctx;
      // The paper's per-document word count, whose merge the
      // --serial-merge/--flat-parallelism flags schedule.
      ctx.dict_backend = containers::DictBackend::kOpenHash;
      ctx.serial_merge = flags.GetBool("serial-merge");
      ctx.flat_parallelism = flags.GetBool("flat-parallelism");
      ctx.executor = exec.get();
      ctx.corpus_disk = env->corpus_disk();
      ctx.scratch_disk = env->scratch_disk();
      ctx.phases = &phases;
      Status run = ops::TfidfToArff(ctx, *reader, "fig2_tfidf.arff");
      if (!run.ok()) {
        std::fprintf(stderr, "%s\n", run.ToString().c_str());
        return 1;
      }
      curve.points.push_back({threads, phases.TotalSeconds()});
      if (threads == (*threads_or).front() ||
          threads == (*threads_or).back()) {
        std::printf("  [%s, %2d threads] input+wc %.3fs, df-merge %.3fs, "
                    "tfidf-output %.3fs\n",
                    profile.name.c_str(), threads,
                    phases.Seconds("input+wc"), phases.Seconds("df-merge"),
                    phases.Seconds("tfidf-output"));
      }
      // The executor dies at the end of this iteration; never leave the
      // disks pointing at it.
      env->SetExecutor(nullptr);
    }
    series.push_back(std::move(curve));
  }

  std::printf("\n%s\n", core::FormatSpeedupTable(series).c_str());
  std::printf("paper (16 threads, full-scale corpora): Mix ~6x, NSF "
              "Abstracts ~7x;\nexpected shape: near-linear at low counts, "
              "flattening as the serial ARFF\noutput phase becomes the "
              "bottleneck (Amdahl).\n");
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
