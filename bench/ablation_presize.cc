// Ablation — per-document hash-table pre-sizing (§3.4: "the unordered map
// is pre-sized to hold 4K items to minimize resizing overhead"). Sweeps
// the pre-size and reports input+wc time and dictionary footprint for the
// hash backends: pre-sizing trades rehash work for memory.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/report.h"
#include "io/packed_corpus.h"
#include "ops/tfidf.h"
#include "parallel/executor.h"

namespace hpa::bench {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("ablation_presize",
                "per-document table pre-size sweep (§3.4)");
  AddCommonFlags(flags);
  flags.DefineString("presizes", "0,64,1024,4096",
                     "comma-separated per-document pre-sizes to sweep");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  PrintBanner("Ablation: per-document dictionary pre-sizing", flags);

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
  auto presizes_or = ParseIntList(flags.GetString("presizes"), 0);
  if (!presizes_or.ok()) {
    std::fprintf(stderr, "%s\n", presizes_or.status().ToString().c_str());
    return 2;
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"backend", "presize", "input+wc", "df-merge", "transform",
                  "dict bytes"});

  for (containers::DictBackend backend :
       {containers::DictBackend::kStdUnorderedMap,
        containers::DictBackend::kOpenHash}) {
    for (int presize : *presizes_or) {
      auto exec = MakeBenchExecutor(flags, 1);
      if (exec == nullptr) {
        std::fprintf(stderr, "unknown --executor\n");
        return 2;
      }
      env->SetExecutor(exec.get());
      PhaseTimer phases;
      ops::ExecContext ctx;
      ctx.serial_merge = flags.GetBool("serial-merge");
      ctx.flat_parallelism = flags.GetBool("flat-parallelism");
      ctx.executor = exec.get();
      ctx.corpus_disk = env->corpus_disk();
      ctx.dict_backend = backend;
      ctx.per_doc_dict_presize = static_cast<size_t>(presize);
      ctx.phases = &phases;
      auto reader = io::PackedCorpusReader::Open(env->corpus_disk(), *rel);
      if (!reader.ok()) {
        std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
        return 1;
      }
      auto tfidf = ops::TfidfInMemory(ctx, *reader);
      if (!tfidf.ok()) {
        std::fprintf(stderr, "%s\n", tfidf.status().ToString().c_str());
        return 1;
      }
      rows.push_back({std::string(containers::DictBackendName(backend)),
                      std::to_string(presize),
                      HumanDuration(phases.Seconds("input+wc")),
                      HumanDuration(phases.Seconds("df-merge")),
                      HumanDuration(phases.Seconds("transform")),
                      HumanBytes(tfidf->dict_bytes)});
    }
  }

  std::printf("\n%s\n", core::FormatTable(rows).c_str());
  std::printf("note: the paper's 4K pre-size removes rehash storms from "
              "input+wc but\nmultiplies the dictionary footprint — the "
              "memory side of Figure 4.\n");
  return 0;
}

}  // namespace
}  // namespace hpa::bench

int main(int argc, char** argv) { return hpa::bench::Run(argc, argv); }
