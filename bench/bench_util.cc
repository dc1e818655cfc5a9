#include "bench_util.h"

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/file_io.h"
#include "text/corpus_io.h"

namespace hpa::bench {

void AddCommonFlags(FlagSet& flags) {
  flags.DefineDouble("scale", 0.05,
                     "corpus scale factor vs the paper's Table 1 (1.0 = "
                     "full size)");
  flags.DefineDouble("vocab_exp", 1.0,
                     "vocabulary scaling exponent: 1.0 = proportional "
                     "miniature (preserves the docs:vocabulary ratio the "
                     "scalability shapes depend on), 0.7 = Heaps'-law "
                     "subsampling");
  flags.DefineString("executor", "simulated",
                     "executor kind: simulated | threads | serial");
  flags.DefineString("threads", "1,2,4,8,12,16",
                     "comma-separated worker counts to sweep");
  flags.DefineString("workdir", "",
                     "workspace directory (default: <tmp>/hpa_bench)");
  flags.DefineInt("kmeans_iters", 5, "fixed K-means iteration count");
  flags.DefineInt("repeats", 3,
                  "repetitions per configuration; the minimum time is "
                  "reported (noise suppression)");
  flags.DefineInt("clusters", 8, "number of K-means clusters (paper: 8)");
  flags.DefineBool("serial-merge", false,
                   "fold reductions serially on one worker (the paper-era "
                   "structure) instead of the parallel sharded/tree merges; "
                   "results are byte-identical either way");
  flags.DefineBool("flat-parallelism", false,
                   "keep every parallel region flat (barrier-per-stride "
                   "tree reductions, serial vocabulary sort) instead of "
                   "the nested work-stealing spawn paths; results are "
                   "byte-identical either way");
  flags.DefineBool("no-prune", false,
                   "disable triangle-inequality pruning of the K-means "
                   "assignment step (full n*k kernel scan every "
                   "iteration); results are bit-identical either way");
  flags.DefineDouble("fault-rate", 0.0,
                     "injected transient I/O error probability per read "
                     "request (0 disables fault injection)");
  flags.DefineDouble("fault-corruption", 0.0,
                     "injected payload-corruption probability per read "
                     "request (detected by the checksummed formats)");
  flags.DefineInt("fault-seed", 1,
                  "fault-schedule seed; the same seed faults the same "
                  "requests regardless of worker count");
  flags.DefineString("fault-policy", "retry-skip",
                     "what to do after the retry budget: fail-fast | "
                     "retry-skip (quarantine the item and continue)");
  flags.DefineInt("crash-after-node", -1,
                  "deterministically abort the workflow right after this "
                  "node id completes (and its checkpoint commits); -1 "
                  "disables the crash hook");
  flags.DefineString("checkpoint-dir", "",
                     "scratch-relative directory for workflow checkpoint "
                     "manifests; empty disables checkpoint/restart");
  flags.DefineInt("mem-budget", 0,
                  "memory ceiling in MiB for data-resident state; the "
                  "optimizer streams edges whose in-memory footprint "
                  "would bust it and streaming operators bound their "
                  "window high-water below it; 0 = unlimited");
}

io::FaultProfile FaultProfileFromFlags(const FlagSet& flags) {
  io::FaultProfile profile;
  profile.transient_rate = flags.GetDouble("fault-rate");
  profile.corruption_rate = flags.GetDouble("fault-corruption");
  profile.seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
  return profile;
}

StatusOr<uint64_t> MemBudgetFromFlags(const FlagSet& flags) {
  int mib = flags.GetInt("mem-budget");
  if (mib < 0) {
    return Status::InvalidArgument(
        "--mem-budget must be >= 0 MiB, got " + std::to_string(mib));
  }
  return static_cast<uint64_t>(mib) * 1024 * 1024;
}

StatusOr<FaultPolicy> FaultPolicyFromFlags(const FlagSet& flags) {
  FaultPolicy policy;
  const std::string text = flags.GetString("fault-policy");
  if (!ParseFaultPolicy(text, &policy)) {
    return Status::InvalidArgument("--fault-policy must be fail-fast or "
                                   "retry-skip, got '" +
                                   text + "'");
  }
  return policy;
}

StatusOr<std::unique_ptr<BenchEnv>> BenchEnv::Create(const FlagSet& flags) {
  auto env = std::unique_ptr<BenchEnv>(new BenchEnv());
  env->scale_ = flags.GetDouble("scale");
  if (env->scale_ <= 0.0 || env->scale_ > 1.0) {
    return Status::InvalidArgument("--scale must be in (0, 1]");
  }
  env->vocab_exp_ = flags.GetDouble("vocab_exp");
  if (env->vocab_exp_ <= 0.0 || env->vocab_exp_ > 1.5) {
    return Status::InvalidArgument("--vocab_exp must be in (0, 1.5]");
  }
  env->workdir_ = flags.GetString("workdir");
  if (env->workdir_.empty()) {
    env->workdir_ =
        (std::filesystem::temp_directory_path() / "hpa_bench").string();
  }
  HPA_RETURN_IF_ERROR(io::MakeDirs(env->workdir_ + "/corpora"));
  HPA_RETURN_IF_ERROR(io::MakeDirs(env->workdir_ + "/scratch"));

  env->corpus_disk_ = std::make_unique<io::SimDisk>(
      io::DiskOptions::CorpusStore(), env->workdir_ + "/corpora", nullptr);
  env->scratch_disk_ = std::make_unique<io::SimDisk>(
      io::DiskOptions::LocalHdd(), env->workdir_ + "/scratch", nullptr);
  return env;
}

BenchEnv::~BenchEnv() = default;

StatusOr<std::string> BenchEnv::EnsureCorpus(
    const text::CorpusProfile& profile) {
  // Cache key: profile identity (name is already scale-suffixed) + seed +
  // document count, which pins the generated content.
  std::string key = profile.name;
  for (char& c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  // The "_c1" suffix marks the checksummed (v2) container format: bumping
  // it invalidates caches packed without per-document CRCs.
  std::string rel = StrFormat(
      "%s_s%llu_d%llu_v%llu_c1.pack", key.c_str(),
      static_cast<unsigned long long>(profile.seed),
      static_cast<unsigned long long>(profile.num_documents),
      static_cast<unsigned long long>(profile.target_distinct_words));
  if (corpus_disk_->Exists(rel)) return rel;

  HPA_LOG(kInfo, "generating corpus '%s' (%llu docs, target %s)...",
          profile.name.c_str(),
          static_cast<unsigned long long>(profile.num_documents),
          HumanBytes(profile.target_bytes).c_str());
  text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
  // Generation is setup, not measurement: write with no executor attached.
  parallel::Executor* saved = corpus_disk_->executor();
  corpus_disk_->set_executor(nullptr);
  Status s = text::WriteCorpusPacked(corpus, corpus_disk_.get(), rel);
  corpus_disk_->set_executor(saved);
  HPA_RETURN_IF_ERROR(s);
  HPA_LOG(kInfo, "corpus '%s' cached at %s (%s)", profile.name.c_str(),
          rel.c_str(), HumanBytes(corpus.TotalBytes()).c_str());
  return rel;
}

void BenchEnv::SetExecutor(parallel::Executor* executor) {
  corpus_disk_->set_executor(executor);
  scratch_disk_->set_executor(executor);
}

Status BenchEnv::ApplyFaultFlags(const FlagSet& flags) {
  HPA_ASSIGN_OR_RETURN(fault_policy_, FaultPolicyFromFlags(flags));
  io::FaultProfile profile = FaultProfileFromFlags(flags);
  if (!profile.Enabled()) return Status::OK();
  fault_injector_ = std::make_unique<io::FaultInjector>(profile);
  corpus_disk_->set_fault_injector(fault_injector_.get());
  // Recovery machinery on for both devices once any fault rate is nonzero.
  corpus_disk_->set_retry_policy(RetryPolicy{});
  scratch_disk_->set_retry_policy(RetryPolicy{});
  return Status::OK();
}

std::unique_ptr<parallel::Executor> MakeBenchExecutor(const FlagSet& flags,
                                                      int threads) {
  return parallel::MakeExecutor(flags.GetString("executor"), threads);
}

StatusOr<std::vector<int>> ParseIntList(const std::string& text,
                                        int min_value) {
  std::vector<int> out;
  for (std::string_view part : Split(text, ',')) {
    int64_t v = 0;
    if (!ParseInt64(part, &v) || v < min_value) {
      return Status::InvalidArgument("bad thread list entry '" +
                                     std::string(part) + "'");
    }
    out.push_back(static_cast<int>(v));
  }
  if (out.empty()) return Status::InvalidArgument("empty thread list");
  return out;
}

void PrintBanner(const std::string& title, const FlagSet& flags) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", title.c_str());
  std::printf("  scale=%.3g  executor=%s  threads=%s\n",
              flags.GetDouble("scale"),
              flags.GetString("executor").c_str(),
              flags.GetString("threads").c_str());
  std::printf("==============================================================="
              "=\n");
}

}  // namespace hpa::bench
