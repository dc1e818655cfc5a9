// Real-clock benchmark of the TF/IDF -> K-means system: three fixed
// workloads on real threads, timed from outside the library with host
// clocks only (steady_clock wall time, getrusage CPU time), every output
// verified. See README.md in this directory for the workloads, metrics and
// how to run it; `run.py` builds this binary and invokes it.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_stats.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/standard_ops.h"
#include "core/workflow.h"
#include "core/workflow_executor.h"
#include "inputs.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "ops/kmeans.h"
#include "ops/streaming.h"
#include "ops/tfidf.h"
#include "ops/word_count.h"
#include "parallel/thread_pool.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace hpa::perfbench {
namespace {

// --- Fixed workload parameters ---------------------------------------------

constexpr int kWorkers = 4;
constexpr int kClusters = 8;
constexpr int kIterations = 5;
/// Window budget of the streamed plan (about 16 windows over the corpus).
constexpr uint64_t kWindowBytes = 1ull << 20;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Held-out request bodies; one closed-loop pass scores each once.
constexpr size_t kRequestBodies = 4096;
/// Open-loop requests (two passes over the bodies): about 80 samples lie
/// beyond the nearest-rank p99.
constexpr size_t kOpenLoopRequests = 8192;
/// Open-loop Poisson arrival rate, requests per second: about half the
/// closed-loop capacity measured at 4 workers on the reference host (a
/// 4-core Xeon), fixed here so every commit is offered the same load.
constexpr double kOpenLoopRate = 16000.0;
constexpr const char* kCorpusPath = "corpus.pack";
constexpr const char* kArffPath = "tfidf.arff";
constexpr double kMiB = 1024.0 * 1024.0;
/// Inertia tolerance between worker counts (see ClusteringDiff).
constexpr uint64_t kInertiaUlps = 16;

// --- Metric catalogue ------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed in the result line of an untraced run (--trace 0).
constexpr MetricSpec kEndToEnd[] = {
    {"job_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Printed in the summary of an untraced run but not in its result line:
/// they exist only on the serving workload, or are zero on a healthy run.
constexpr MetricSpec kSummaryOnly[] = {
    {"serve_rps", "req/s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"error_rate", "ratio"},
};

/// Printed in the result line of a traced run (--trace 1). A layer the
/// workload never calls reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"word_count.wall_s", "s"},
    {"word_count.cpu_s", "s"},
    {"word_count.idle_s", "s"},
    {"word_count.tokens", "count"},
    {"word_count.dict_mb", "MiB"},
    {"tfidf.wall_s", "s"},
    {"tfidf.cpu_s", "s"},
    {"tfidf.idle_s", "s"},
    {"tfidf.nnz", "count"},
    {"tfidf.terms", "count"},
    {"arff.write_s", "s"},
    {"arff.read_s", "s"},
    {"arff.idle_s", "s"},
    {"arff.mb", "MiB"},
    {"kmeans.wall_s", "s"},
    {"kmeans.cpu_s", "s"},
    {"kmeans.idle_s", "s"},
    {"kmeans.kernels", "count"},
    {"kmeans.skip_ratio", "ratio"},
    {"streaming.fit_s", "s"},
    {"streaming.kmeans_s", "s"},
    {"streaming.cpu_s", "s"},
    {"streaming.windows", "count"},
    {"streaming.high_water_mb", "MiB"},
    {"io.corpus_read_mb", "MiB"},
    {"io.scratch_written_mb", "MiB"},
    {"io.modeled_s", "s"},
    {"parallel.regions", "count"},
    {"parallel.tasks", "count"},
    {"parallel.steals", "count"},
    {"parallel.job_1w_s", "s"},
    {"serve.batch_us", "us"},
    {"serve.batch_size", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.vectorize_us", "us"},
    {"serve.classify_us", "us"},
    {"serve.row_nnz", "count"},
    {"serve.rps", "req/s"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.p99_beyond", "count"},
    {"loadgen.late_ms", "ms"},
    {"self.core_s", "s"},
    {"self.ops_s", "s"},
    {"self.io_s", "s"},
    {"self.serve_s", "s"},
    {"trace.total_s", "s"},
    {"trace.overhead_s", "s"},
};

// --- Host clocks and facts -------------------------------------------------

/// Process CPU seconds (user + system, all threads).
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    size_t b = model.find_first_not_of(' ');
    size_t e = model.find_last_not_of(' ');
    if (b != std::string::npos) return model.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

long LastLevelCacheBytes() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? bytes : 0;
}

// --- Run state -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
};

/// Attempted/failed operations and why each failure happened.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Timing samples and single values, by metric name, plus the span tree
/// of the last traced run.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::map<std::string, std::string> record;
  std::vector<Span> spans;

  void Add(const std::string& name, double v) { samples[name].push_back(v); }
  double Med(const std::string& name) const {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : Median(it->second);
  }
};

/// The run's workspace: a corpus store and a single-channel scratch disk
/// (the paper's local hard disk), both backed by directories under it.
struct Env {
  std::string root;
  std::unique_ptr<io::SimDisk> corpus_disk;
  std::unique_ptr<io::SimDisk> scratch_disk;

  void Attach(parallel::Executor* exec) {
    corpus_disk->set_executor(exec);
    scratch_disk->set_executor(exec);
  }
};

ops::KMeansOptions BenchKMeans() {
  ops::KMeansOptions k;
  k.k = kClusters;
  k.max_iterations = kIterations;
  k.stop_on_convergence = false;
  return k;
}

ops::ExecContext MakeContext(parallel::Executor& exec, Env& env,
                             PhaseTimer* phases) {
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ctx.corpus_disk = env.corpus_disk.get();
  ctx.scratch_disk = env.scratch_disk.get();
  ctx.phases = phases;
  return ctx;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Empty when `a` and `b` agree; otherwise what differs. Assignments and
/// iteration counts must always match exactly. The inertia must match bit
/// for bit at equal worker counts; across worker counts its reduction runs
/// over a different chunk grid, so it may differ in the last few ulps.
std::string ClusteringDiff(const ops::KMeansResult& a,
                           const ops::KMeansResult& b, bool same_workers) {
  if (a.iterations != b.iterations) return "iteration counts differ";
  if (a.assignment.size() != b.assignment.size()) return "row counts differ";
  size_t rows = 0;
  for (size_t i = 0; i < a.assignment.size(); ++i) {
    rows += a.assignment[i] != b.assignment[i];
  }
  if (rows > 0) return std::to_string(rows) + " assignments differ";
  const uint64_t ulps = DoubleBits(a.inertia) > DoubleBits(b.inertia)
                            ? DoubleBits(a.inertia) - DoubleBits(b.inertia)
                            : DoubleBits(b.inertia) - DoubleBits(a.inertia);
  if (ulps > (same_workers ? 0 : kInertiaUlps)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "inertia differs (%.17g vs %.17g)",
                  a.inertia, b.inertia);
    return buf;
  }
  return "";
}

std::string ClusteringDigest(const ops::KMeansResult& r) {
  uint32_t crc = Crc32(std::string_view(
      reinterpret_cast<const char*>(r.assignment.data()),
      r.assignment.size() * sizeof(uint32_t)));
  uint64_t bits = DoubleBits(r.inertia);
  crc = Crc32(std::string_view(reinterpret_cast<const char*>(&bits),
                               sizeof(bits)),
              crc);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

// --- Set-up ----------------------------------------------------------------

/// CRC-32 of a workspace file, streamed in chunks so the check does not
/// raise the process's peak RSS.
StatusOr<uint32_t> FileCrc(const std::string& path) {
  HPA_ASSIGN_OR_RETURN(uint64_t size, io::FileSize(path));
  uint32_t crc = 0;
  constexpr uint64_t kChunk = 4ull << 20;
  for (uint64_t off = 0; off < size; off += kChunk) {
    HPA_ASSIGN_OR_RETURN(std::string chunk,
                         io::ReadFileRange(path, off, std::min(kChunk, size - off)));
    crc = Crc32(chunk, crc);
  }
  return crc;
}

/// Runs `fn` in a forked child and waits for it, so the memory it touches
/// never counts towards this process's peak RSS. Call it only while this
/// process runs no other thread.
Status RunInChild(const std::string& what, const std::function<Status()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const Status s = fn();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", what.c_str(), s.ToString().c_str());
    }
    std::fflush(stderr);
    _exit(s.ok() ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal(what + " failed");
  }
  return Status::OK();
}

/// Generates and packs the training corpus kSetupReps times, each in a
/// child process (RunInChild). Records setup_s samples and fails the run
/// if two generations differ in any byte.
/// `after_generate`, when set, runs inside each timed repetition after the
/// corpus exists (the serving workload's request bodies and its
/// fit/publish/load); `extra_inputs` are inputs it generated, checked for
/// byte identity across repetitions like the corpus.
Status SetupCorpus(const Options& opt, Env& env, Report& rep, Outcome& out,
                   const std::function<Status()>& after_generate = {},
                   const std::vector<std::string>* extra_inputs = nullptr) {
  const text::CorpusProfile profile = BenchProfile(opt.seed);
  std::optional<uint32_t> first_crc;
  for (int r = 0; r < kSetupReps; ++r) {
    if (env.corpus_disk->Exists(kCorpusPath)) {
      HPA_RETURN_IF_ERROR(env.corpus_disk->Remove(kCorpusPath));
    }
    const double start = WallSeconds();
    HPA_RETURN_IF_ERROR(RunInChild("corpus generation", [&] {
      return GenerateCorpus(profile, env.corpus_disk.get(), kCorpusPath)
          .status();
    }));
    if (after_generate) HPA_RETURN_IF_ERROR(after_generate());
    rep.Add("setup_s", WallSeconds() - start);

    HPA_ASSIGN_OR_RETURN(uint32_t crc,
                         FileCrc(env.corpus_disk->AbsPath(kCorpusPath)));
    if (extra_inputs != nullptr) {
      for (const std::string& input : *extra_inputs) crc = Crc32(input, crc);
    }
    ++out.attempted;
    if (!first_crc) {
      first_crc = crc;
    } else if (crc != *first_crc) {
      out.Fail("generated corpus differs between set-ups of one seed");
    }
  }
  HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                        env.corpus_disk.get(), kCorpusPath));
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", first_crc.value_or(0));
  rep.record["inputs_crc32"] = crc_hex;
  rep.record["corpus_mb"] =
      std::to_string(static_cast<double>(reader.total_body_bytes()) / kMiB);
  rep.record["docs"] = std::to_string(reader.size());
  rep.record["vocabulary_target"] =
      std::to_string(profile.target_distinct_words);
  return Status::OK();
}

/// Wall and CPU seconds of a stand-alone word count.
struct WordCountCost {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Stand-alone word count over the corpus: its layer metrics, and the
/// dictionary size and distinct-word count for the run record.
Status StandaloneWordCount(parallel::ThreadPoolExecutor& exec, Env& env,
                           Report& rep, WordCountCost* cost) {
  env.Attach(&exec);
  PhaseTimer phases;
  ops::ExecContext ctx = MakeContext(exec, env, &phases);
  HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                        env.corpus_disk.get(), kCorpusPath));
  const double c0 = CpuSeconds();
  const double w0 = WallSeconds();
  auto wc = ops::RunWordCount<containers::DictBackend::kOpenHash>(ctx, reader);
  const double wall = WallSeconds() - w0;
  const double cpu = CpuSeconds() - c0;
  env.Attach(nullptr);
  HPA_RETURN_IF_ERROR(wc.status());
  if (cost != nullptr) *cost = WordCountCost{wall, cpu};
  const double dict_mb = static_cast<double>(wc->ApproxDictBytes()) / kMiB;
  rep.Add("word_count.wall_s", wall);
  rep.Add("word_count.cpu_s", cpu);
  rep.Add("word_count.idle_s", exec.num_workers() * wall - cpu);
  rep.Add("word_count.tokens", static_cast<double>(wc->total_tokens));
  rep.Add("word_count.dict_mb", dict_mb);
  rep.record["word_count.dict_mb"] = std::to_string(dict_mb);
  rep.record["vocabulary"] = std::to_string(wc->doc_freq.size());
  rep.record["tokens"] = std::to_string(wc->total_tokens);
  return Status::OK();
}

// --- Workflow workloads ----------------------------------------------------

enum class Mode { kFused, kDiscrete, kStream };

/// One untraced workflow run through core::RunWorkflow, the way a user of
/// the library runs it. The plan is fixed by the benchmark.
StatusOr<ops::KMeansResult> RunJob(Mode mode, parallel::Executor& exec,
                                   Env& env) {
  core::Workflow wf;
  int src = wf.AddSource(core::Dataset(core::CorpusRef{kCorpusPath}), "corpus");
  HPA_ASSIGN_OR_RETURN(int tfidf,
                       wf.Add(std::make_unique<core::TfidfOperator>(), {src}));
  HPA_RETURN_IF_ERROR(
      wf.Add(std::make_unique<core::KMeansOperator>(BenchKMeans()), {tfidf})
          .status());
  core::ExecutionPlan plan;
  plan.workers = exec.num_workers();
  plan.nodes.resize(wf.size());
  if (mode == Mode::kDiscrete) {
    plan.nodes[static_cast<size_t>(tfidf)].output_boundary =
        core::Boundary::kMaterialized;
  } else if (mode == Mode::kStream) {
    plan.nodes[static_cast<size_t>(tfidf)].stream_corpus = true;
    plan.nodes[static_cast<size_t>(tfidf)].window_bytes = kWindowBytes;
  }
  core::RunEnv run_env;
  run_env.executor = &exec;
  run_env.corpus_disk = env.corpus_disk.get();
  run_env.scratch_disk = env.scratch_disk.get();
  env.Attach(&exec);
  auto result = core::RunWorkflow(wf, plan, run_env);
  env.Attach(nullptr);
  HPA_RETURN_IF_ERROR(result.status());
  auto* clustering = std::get_if<core::Clustering>(&result->outputs.at(0));
  if (clustering == nullptr) return Status::Internal("no clustering output");
  return std::move(clustering->kmeans);
}

/// Wall and CPU cost of one traced call.
struct CallCost {
  double wall = 0.0;
  double cpu = 0.0;
  int span = -1;
};

template <typename Fn>
auto TracedCall(Tracer& tracer, const char* name, const char* layer,
                CallCost* cost, Fn fn) {
  const double c0 = CpuSeconds();
  cost->span = tracer.Begin(name, layer);
  auto result = fn();
  tracer.End(cost->span);
  cost->cpu = CpuSeconds() - c0;
  cost->wall = tracer.span(cost->span).seconds();
  return result;
}

/// Adds the root span's per-layer self times and total to `rep`, and
/// fails the run if they do not sum to the total.
void RecordSelfTimes(const Tracer& tracer, int root, Report& rep,
                     Outcome& out) {
  std::map<std::string, double> layers = LayerSelfSeconds(tracer.spans(), root);
  double sum = 0.0;
  for (const char* layer : {"core", "ops", "io", "serve"}) {
    rep.Add(std::string("self.") + layer + "_s", layers[layer]);
    sum += layers[layer];
  }
  const double total = tracer.span(root).seconds();
  rep.Add("trace.total_s", total);
  rep.spans = tracer.spans();
  ++out.attempted;
  if (layers.size() > 4 || std::abs(sum - total) > 1e-9 * (1.0 + total)) {
    out.Fail("layer self times do not sum to the traced total");
  }
}

/// Counter snapshot taken around a traced job.
struct Counters {
  uint64_t corpus_read = 0;
  uint64_t scratch_written = 0;
  double modeled = 0.0;
  parallel::SchedulerStats sched;

  static Counters Take(Env& env, parallel::ThreadPoolExecutor& exec) {
    Counters c;
    c.corpus_read = env.corpus_disk->total_bytes_read();
    c.scratch_written = env.scratch_disk->total_bytes_written();
    c.modeled = exec.charged_io_seconds();
    c.sched = exec.scheduler_stats();
    return c;
  }
};

void RecordCounterDeltas(const Counters& a, const Counters& b, Report& rep) {
  rep.Add("io.corpus_read_mb",
          static_cast<double>(b.corpus_read - a.corpus_read) / kMiB);
  rep.Add("io.scratch_written_mb",
          static_cast<double>(b.scratch_written - a.scratch_written) / kMiB);
  // Modeled device seconds: reported on their own, never added to a wall
  // time.
  rep.Add("io.modeled_s", b.modeled - a.modeled);
  rep.Add("parallel.regions",
          static_cast<double>(b.sched.regions - a.sched.regions));
  rep.Add("parallel.tasks",
          static_cast<double>(b.sched.tasks_spawned - a.sched.tasks_spawned));
  rep.Add("parallel.steals",
          static_cast<double>(b.sched.steals - a.sched.steals));
}

void RecordKMeans(const CallCost& c, int workers, const ops::KMeansResult& r,
                  Report& rep) {
  rep.Add("kmeans.wall_s", c.wall);
  rep.Add("kmeans.cpu_s", c.cpu);
  rep.Add("kmeans.idle_s", workers * c.wall - c.cpu);
  rep.Add("kmeans.kernels", static_cast<double>(r.distance_kernels_evaluated));
  const double all = static_cast<double>(r.distance_kernels_evaluated +
                                         r.distance_kernels_skipped);
  rep.Add("kmeans.skip_ratio",
          all > 0 ? static_cast<double>(r.distance_kernels_skipped) / all : 0.0);
}

/// One traced workflow run: the same library calls
/// core::RunWorkflow makes for this plan, each wrapped in a span, plus the
/// layer counters around the whole job.
StatusOr<ops::KMeansResult> RunTracedJob(Mode mode,
                                         parallel::ThreadPoolExecutor& exec,
                                         Env& env, Report& rep, Outcome& out) {
  Tracer tracer;
  const int workers = exec.num_workers();
  WordCountCost wc_alone;
  if (mode == Mode::kDiscrete) {
    // The word count inside ops::TfidfToArff cannot be timed from outside
    // the call, so it is timed alone first and subtracted from it.
    HPA_RETURN_IF_ERROR(StandaloneWordCount(exec, env, rep, &wc_alone));
  }
  env.Attach(&exec);
  PhaseTimer phases;
  ops::ExecContext ctx = MakeContext(exec, env, &phases);
  const Counters before = Counters::Take(env, exec);
  const int root = tracer.Begin("job", "core");
  auto open = [&] {
    CallCost c;
    return TracedCall(tracer, "io::PackedCorpusReader::Open", "io", &c, [&] {
      return io::PackedCorpusReader::Open(env.corpus_disk.get(), kCorpusPath);
    });
  };
  StatusOr<ops::KMeansResult> result = [&]() -> StatusOr<ops::KMeansResult> {
    HPA_ASSIGN_OR_RETURN(auto reader, open());
    if (mode == Mode::kFused) {
      CallCost wc_cost, tf_cost, km_cost;
      HPA_ASSIGN_OR_RETURN(
          auto wc, TracedCall(tracer, "ops::RunWordCount", "ops", &wc_cost, [&] {
            return ops::RunWordCount<containers::DictBackend::kOpenHash>(ctx,
                                                                        reader);
          }));
      const double tokens = static_cast<double>(wc.total_tokens);
      ops::TfidfResult tf =
          TracedCall(tracer, "ops::TfidfTransformT", "ops", &tf_cost, [&] {
            return ops::TfidfTransformT<containers::DictBackend::kOpenHash>(
                ctx, std::move(wc));
          });
      HPA_ASSIGN_OR_RETURN(
          auto km, TracedCall(tracer, "ops::SparseKMeans", "ops", &km_cost, [&] {
            return ops::SparseKMeans(ctx, tf.matrix, BenchKMeans());
          }));
      rep.Add("word_count.wall_s", wc_cost.wall);
      rep.Add("word_count.cpu_s", wc_cost.cpu);
      rep.Add("word_count.idle_s", workers * wc_cost.wall - wc_cost.cpu);
      rep.Add("word_count.tokens", tokens);
      rep.Add("word_count.dict_mb", static_cast<double>(tf.dict_bytes) / kMiB);
      rep.Add("tfidf.wall_s", tf_cost.wall);
      rep.Add("tfidf.cpu_s", tf_cost.cpu);
      rep.Add("tfidf.idle_s", workers * tf_cost.wall - tf_cost.cpu);
      rep.Add("tfidf.nnz", static_cast<double>(tf.matrix.TotalNnz()));
      rep.Add("tfidf.terms", static_cast<double>(tf.terms.size()));
      RecordKMeans(km_cost, workers, km, rep);
      return km;
    }
    if (mode == Mode::kDiscrete) {
      CallCost write_cost, read_cost, km_cost;
      HPA_RETURN_IF_ERROR(
          TracedCall(tracer, "ops::TfidfToArff", "io", &write_cost, [&] {
            return ops::TfidfToArff(ctx, reader, kArffPath);
          }));
      // Attribute the word-count share of the call to the ops layer.
      const Span& w = tracer.span(write_cost.span);
      tracer.Record("ops::RunWordCount (timed alone)", "ops", w.start,
                    w.start + std::min(wc_alone.wall, w.seconds()),
                    write_cost.span);
      HPA_ASSIGN_OR_RETURN(
          auto matrix,
          TracedCall(tracer, "ops::ReadTfidfArff", "io", &read_cost,
                     [&] { return ops::ReadTfidfArff(ctx, kArffPath); }));
      HPA_ASSIGN_OR_RETURN(
          auto km, TracedCall(tracer, "ops::SparseKMeans", "ops", &km_cost, [&] {
            return ops::SparseKMeans(ctx, matrix, BenchKMeans());
          }));
      const double write_s = write_cost.wall - wc_alone.wall;
      rep.Add("arff.write_s", write_s);
      rep.Add("arff.read_s", read_cost.wall);
      rep.Add("arff.idle_s", workers * (write_s + read_cost.wall) -
                                 (write_cost.cpu - wc_alone.cpu + read_cost.cpu));
      HPA_ASSIGN_OR_RETURN(uint64_t arff_bytes,
                           env.scratch_disk->FileSize(kArffPath));
      rep.Add("arff.mb", static_cast<double>(arff_bytes) / kMiB);
      RecordKMeans(km_cost, workers, km, rep);
      return km;
    }
    // Streamed: fit through windows, then the windowed K-means re-opens
    // the corpus the model names, as the K-means operator does.
    ops::StreamingOptions sopts;
    sopts.window_bytes = kWindowBytes;
    io::PrefetchStats fit_stats, km_stats;
    CallCost fit_cost, km_cost;
    HPA_ASSIGN_OR_RETURN(
        auto model,
        TracedCall(tracer, "ops::StreamingTfidfFit", "ops", &fit_cost, [&] {
          return ops::StreamingTfidfFit(ctx, reader, {}, sopts, &fit_stats);
        }));
    HPA_ASSIGN_OR_RETURN(auto reader2, open());
    ops::StreamingOptions kopts;
    kopts.window_bytes = model.window_bytes;
    kopts.prefetch = model.prefetch;
    HPA_ASSIGN_OR_RETURN(
        auto km,
        TracedCall(tracer, "ops::StreamingSparseKMeans", "ops", &km_cost, [&] {
          return ops::StreamingSparseKMeans(ctx, model, reader2, BenchKMeans(),
                                            kopts, &km_stats);
        }));
    rep.Add("word_count.tokens", static_cast<double>(model.total_tokens));
    rep.Add("word_count.dict_mb", static_cast<double>(model.dict_bytes) / kMiB);
    rep.Add("streaming.fit_s", fit_cost.wall);
    rep.Add("streaming.kmeans_s", km_cost.wall);
    rep.Add("streaming.cpu_s", fit_cost.cpu + km_cost.cpu);
    rep.Add("streaming.windows",
            static_cast<double>(fit_stats.windows_fetched +
                                km_stats.windows_fetched));
    rep.Add("streaming.high_water_mb",
            static_cast<double>(std::max(fit_stats.high_water_bytes,
                                         km_stats.high_water_bytes)) /
                kMiB);
    rep.Add("kmeans.kernels", static_cast<double>(km.distance_kernels_evaluated));
    return km;
  }();
  tracer.End(root);
  const Counters after = Counters::Take(env, exec);
  env.Attach(nullptr);
  if (result.ok()) {
    RecordCounterDeltas(before, after, rep);
    RecordSelfTimes(tracer, root, rep, out);
  }
  return result;
}

Status RunWorkflowWorkload(Mode mode, const Options& opt, Env& env,
                           Report& rep, Outcome& out) {
  HPA_RETURN_IF_ERROR(SetupCorpus(opt, env, rep, out));
  parallel::ThreadPoolExecutor exec(kWorkers);
  rep.record["workers"] = std::to_string(kWorkers);

  // Every run, of any plan, must give the first run's assignments, and
  // its inertia bits at equal worker counts.
  std::optional<ops::KMeansResult> first;
  auto check = [&](StatusOr<ops::KMeansResult> r, const char* what,
                   bool same_workers) {
    ++out.attempted;
    if (!r.ok()) {
      out.Fail(std::string(what) + ": " + r.status().ToString());
    } else if (!first) {
      first = std::move(*r);
    } else if (std::string diff = ClusteringDiff(*r, *first, same_workers);
               !diff.empty()) {
      out.Fail(std::string(what) + " differs from the first run: " + diff);
    }
  };
  auto timed = [&](const char* metric) {
    const double t0 = WallSeconds();
    auto r = RunJob(mode, exec, env);
    rep.Add(metric, WallSeconds() - t0);
    check(std::move(r), metric, true);
    // Peak RSS of one workflow run on its inputs. Read later, it would
    // also count the allocator's slow growth over dozens of repetitions,
    // which depends on how many jobs fit into the run.
    if (rep.values.count("peak_rss_mb") == 0) {
      rep.values["peak_rss_mb"] = PeakRssMiB();
    }
  };

  // The fused workload also runs the fused plan on a 1-worker pool (the
  // single-threaded baseline, timed as parallel.job_1w_s when traced) and
  // the discrete plan, which is not a workload of its own: its serial ARFF
  // formatting and parsing swing with the host's single-thread speed by
  // more than a bound can absorb. Traced, its io.arff layer is measured
  // here.
  std::optional<parallel::ThreadPoolExecutor> exec1;
  if (mode == Mode::kFused) exec1.emplace(1);
  auto single_worker = [&](const char* metric) {
    const double t0 = WallSeconds();
    auto r = RunJob(Mode::kFused, *exec1, env);
    if (metric != nullptr) rep.Add(metric, WallSeconds() - t0);
    check(std::move(r), "1-worker run", false);
  };
  auto traced_discrete = [&] {
    // Its own report: only the io.arff metrics are the discrete plan's.
    Report side;
    auto r = RunTracedJob(Mode::kDiscrete, exec, env, side, out);
    for (const char* name :
         {"arff.write_s", "arff.read_s", "arff.idle_s", "arff.mb"}) {
      for (double v : side.samples[name]) rep.Add(name, v);
    }
    check(std::move(r), "traced discrete run", true);
  };

  // Warm-up run: first-touch page faults and allocator growth land here.
  // The streamed plan skips it: its footprint is a few windows, and one
  // run costs as much as the rest of the measurement.
  if (mode != Mode::kStream) timed("warm-up_s");
  const double deadline = WallSeconds() + opt.seconds;
  do {
    timed(opt.trace ? "untraced_job_s" : "job_s");
    if (opt.trace) {
      check(RunTracedJob(mode, exec, env, rep, out), "traced run", true);
      if (mode == Mode::kFused) {
        single_worker("parallel.job_1w_s");
        traced_discrete();
      }
    }
  } while (WallSeconds() < deadline);

  // Cross-plan checks.
  if (mode != Mode::kFused) {
    check(RunJob(Mode::kFused, exec, env), "fused 4-worker run", true);
  } else if (!opt.trace) {
    single_worker(nullptr);
    check(RunJob(Mode::kDiscrete, exec, env), "discrete run", true);
  }
  if (first) rep.record["clustering_digest"] = ClusteringDigest(*first);
  if (!opt.trace) {
    HPA_RETURN_IF_ERROR(StandaloneWordCount(exec, env, rep, nullptr));
  }
  return Status::OK();
}

// --- Serving workload ------------------------------------------------------

struct Expected {
  uint32_t cluster = 0;
  uint64_t distance_bits = 0;
};

/// Checks one response against the serial classification of its body.
void CheckResponse(const serve::Response& r, const std::vector<Expected>& want,
                   size_t bodies, Outcome& out) {
  ++out.attempted;
  if (r.outcome != serve::RequestOutcome::kOk) {
    out.Fail("request " + std::to_string(r.id) + ": " +
             std::string(serve::RequestOutcomeName(r.outcome)));
    return;
  }
  const Expected& e = want[r.id % bodies];
  if (r.cluster != e.cluster || DoubleBits(r.distance) != e.distance_bits) {
    out.Fail("request " + std::to_string(r.id) +
             ": response differs from serial Classify");
  }
}

/// One closed-loop pass: every body scored once, one batch outstanding at
/// a time. Returns the pass's wall seconds. With a tracer, Poll and Drain
/// calls are spans under a root and batch metrics are recorded.
double ClosedLoop(parallel::ThreadPoolExecutor& exec,
                  const serve::ModelHandle& model,
                  const std::vector<std::string>& bodies,
                  const std::vector<Expected>& want, Outcome& out,
                  Tracer* tracer, Report* rep) {
  ops::ExecContext ctx;
  ctx.executor = &exec;
  serve::ServerOptions options;
  serve::ServeMetrics metrics(exec.num_workers());
  serve::AnalyticsServer server(ctx, &model, options, &metrics);
  const size_t n = bodies.size();
  std::vector<double> batch_us;
  const Counters before{0, 0, 0.0, exec.scheduler_stats()};
  const double start = WallSeconds();
  const int root = tracer != nullptr ? tracer->Begin("closed-loop", "core") : -1;
  auto deliver = [&](std::vector<serve::Response> responses, int span) {
    if (span >= 0) {
      tracer->End(span);
      if (!responses.empty()) {
        batch_us.push_back(tracer->span(span).seconds() * 1e6);
      }
    }
    for (const serve::Response& r : responses) {
      CheckResponse(r, want, n, out);
    }
  };
  for (size_t i = 0; i < n; i += options.max_batch) {
    const size_t end = std::min(n, i + options.max_batch);
    for (size_t j = i; j < end; ++j) {
      Status s = server.Submit(j, bodies[j]);
      if (!s.ok()) {
        ++out.attempted;
        out.Fail("request " + std::to_string(j) + " rejected");
      }
    }
    if (end - i < options.max_batch) break;  // partial tail: Drain flushes it
    int span = tracer != nullptr ? tracer->Begin("serve::Poll", "serve") : -1;
    deliver(server.Poll(), span);
  }
  int span = tracer != nullptr ? tracer->Begin("serve::Drain", "serve") : -1;
  deliver(server.Drain(), span);
  if (tracer != nullptr) tracer->End(root);
  const double seconds = WallSeconds() - start;
  if (rep != nullptr) {
    Counters after{0, 0, 0.0, exec.scheduler_stats()};
    RecordCounterDeltas(before, after, *rep);
    serve::ServeMetrics::Snapshot snap = metrics.Scrape();
    rep->Add("serve.batch_us", Median(batch_us));
    rep->Add("serve.batch_size", snap.mean_batch_occupancy);
    rep->Add("serve.rejected", static_cast<double>(snap.rejected));
  }
  return seconds;
}

/// Open-loop adapters over the real server and the host clock.
struct HostClock {
  double Now() const { return WallSeconds(); }
  void WaitUntil(double t) const {
    while (WallSeconds() < t) {
    }
  }
};

struct ServerLoad {
  serve::AnalyticsServer& server;
  const std::vector<std::string>& bodies;
  size_t capacity;
  std::vector<serve::Response> responses;
  std::vector<double> batch_seconds;  ///< per request: its batch's Poll time
  std::vector<size_t> rejected;

  bool CanAdmit() const { return server.queue_depth() < capacity; }
  bool Busy() const { return server.queue_depth() > 0 || !rejected.empty(); }
  void Submit(size_t i) {
    if (!server.Submit(i, bodies[i % bodies.size()]).ok()) rejected.push_back(i);
  }
  std::vector<size_t> Collect(std::vector<serve::Response> batch, double secs) {
    std::vector<size_t> ids;
    ids.swap(rejected);
    for (serve::Response& r : batch) {
      ids.push_back(r.id);
      batch_seconds[r.id] = secs;
      responses.push_back(std::move(r));
    }
    return ids;
  }
  std::vector<size_t> Poll() {
    const double t0 = WallSeconds();
    auto batch = server.Poll();
    return Collect(std::move(batch), WallSeconds() - t0);
  }
  std::vector<size_t> Drain() {
    const double t0 = WallSeconds();
    auto batch = server.Drain();
    return Collect(std::move(batch), WallSeconds() - t0);
  }
};

/// Open loop at kOpenLoopRate with seeded Poisson arrivals; latency is
/// charged from each request's due time.
void OpenLoop(parallel::ThreadPoolExecutor& exec,
              const serve::ModelHandle& model,
              const std::vector<std::string>& bodies,
              const std::vector<Expected>& want, uint64_t seed, Report& rep,
              Outcome& out) {
  ops::ExecContext ctx;
  ctx.executor = &exec;
  serve::ServerOptions options;
  serve::ServeMetrics metrics(exec.num_workers());
  serve::AnalyticsServer server(ctx, &model, options, &metrics);
  Rng rng(DeriveSeed(seed, 3));
  std::vector<double> due = PoissonSchedule(
      kOpenLoopRequests, kOpenLoopRate, [&] { return 1.0 - rng.NextDouble(); });
  ServerLoad load{server, bodies, options.queue_capacity, {}, {}, {}};
  load.batch_seconds.assign(kOpenLoopRequests, 0.0);
  HostClock clock;
  OpenLoopTimes times = RunOpenLoop(due, clock, load);

  std::vector<bool> answered(kOpenLoopRequests, false);
  for (const serve::Response& r : load.responses) {
    answered[r.id] = true;
    CheckResponse(r, want, bodies.size(), out);
  }
  for (size_t i = 0; i < kOpenLoopRequests; ++i) {
    if (!answered[i]) {
      ++out.attempted;
      out.Fail("request " + std::to_string(i) + " rejected or unanswered");
    }
  }
  std::vector<double> latency_ms = times.Latency();
  std::vector<double> queue_ms(latency_ms.size());
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    latency_ms[i] *= 1e3;
    queue_ms[i] = latency_ms[i] - load.batch_seconds[i] * 1e3;
  }
  std::vector<double> late = times.Late();
  double late_sum = 0.0;
  for (double l : late) late_sum += l;
  const Percentile p50 = NearestRank(latency_ms, 0.50);
  const Percentile p99 = NearestRank(latency_ms, 0.99);
  rep.Add("p50_ms", p50.value);
  rep.Add("p99_ms", p99.value);
  rep.Add("serve.p50_ms", p50.value);
  rep.Add("serve.p99_ms", p99.value);
  rep.Add("serve.p99_beyond", static_cast<double>(p99.beyond));
  rep.Add("serve.queue_ms", Median(queue_ms));
  rep.Add("loadgen.late_ms", late_sum / static_cast<double>(late.size()) * 1e3);
  if (p99.beyond < 10) out.Fail("fewer than 10 samples beyond p99");
}

Status RunServeWorkload(const Options& opt, Env& env, Report& rep,
                        Outcome& out) {
  const text::CorpusProfile profile = BenchProfile(opt.seed);
  serve::ModelConfig config;
  config.clusters = kClusters;
  std::unique_ptr<serve::ModelHandle> model;
  std::vector<std::string> bodies;

  // Set-up: generate the corpus, generate the request bodies, fit and
  // publish a model, load it back — all timed as setup_s. The fit runs in
  // a child like generation: its matrix is set-up memory, not the serving
  // process's.
  auto fit_and_load = [&]() -> Status {
    bodies = GenerateRequestBodies(profile, opt.seed, kRequestBodies);
    const std::string dir = "models";
    const std::string abs = env.scratch_disk->AbsPath(dir);
    if (io::FileExists(abs)) HPA_RETURN_IF_ERROR(io::RemoveDirRecursive(abs));
    serve::ModelRegistry registry(env.scratch_disk.get(), dir);
    HPA_RETURN_IF_ERROR(RunInChild("model fit", [&]() -> Status {
      parallel::ThreadPoolExecutor exec(kWorkers);
      env.Attach(&exec);
      ops::ExecContext ctx = MakeContext(exec, env, nullptr);
      HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                            env.corpus_disk.get(), kCorpusPath));
      return registry.Fit(ctx, reader, config, BenchKMeans()).status();
    }));
    HPA_ASSIGN_OR_RETURN(auto loaded, registry.Load(config));
    model = std::make_unique<serve::ModelHandle>(std::move(loaded));
    return Status::OK();
  };
  HPA_RETURN_IF_ERROR(SetupCorpus(opt, env, rep, out, fit_and_load, &bodies));
  rep.record["model_terms"] = std::to_string(model->vectorizer().vocabulary_size());

  // Reference answers: serial Classify of every body (verification, not
  // timed).
  std::vector<Expected> want(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    double d = 0.0;
    want[i].cluster = model->Classify(bodies[i], &d);
    want[i].distance_bits = DoubleBits(d);
  }

  parallel::ThreadPoolExecutor exec4(kWorkers);
  rep.record["workers"] = std::to_string(kWorkers);
  ClosedLoop(exec4, *model, bodies, want, out, nullptr, nullptr);  // warm-up
  const double deadline = WallSeconds() + opt.seconds;
  do {
    rep.Add(opt.trace ? "untraced_job_s" : "job_s",
            ClosedLoop(exec4, *model, bodies, want, out, nullptr, nullptr));
    if (opt.trace) {
      Tracer tracer;
      ClosedLoop(exec4, *model, bodies, want, out, &tracer, &rep);
      RecordSelfTimes(tracer, 0, rep, out);
    }
  } while (WallSeconds() < deadline);
  const double pass_s = rep.Med(opt.trace ? "untraced_job_s" : "job_s");
  rep.Add("serve_rps", static_cast<double>(bodies.size()) / pass_s);
  rep.Add("serve.rps", static_cast<double>(bodies.size()) / pass_s);
  OpenLoop(exec4, *model, bodies, want, opt.seed, rep, out);
  rep.values["peak_rss_mb"] = PeakRssMiB();

  if (opt.trace) {
    // Serial scoring cost per request, split into its two halves.
    Tracer tracer;
    CallCost vec_cost, cls_cost;
    double nnz = TracedCall(tracer, "serve::ModelHandle::Vectorize", "serve",
                            &vec_cost, [&] {
                              double total = 0.0;
                              for (const std::string& b : bodies) {
                                total += static_cast<double>(
                                    model->Vectorize(b).nnz());
                              }
                              return total;
                            });
    TracedCall(tracer, "serve::ModelHandle::Classify", "serve", &cls_cost, [&] {
      uint64_t sink = 0;
      for (const std::string& b : bodies) sink += model->Classify(b);
      return sink;
    });
    const double n = static_cast<double>(bodies.size());
    rep.Add("serve.vectorize_us", vec_cost.wall / n * 1e6);
    rep.Add("serve.classify_us", cls_cost.wall / n * 1e6);
    rep.Add("serve.row_nnz", nnz / n);
  }
  // The fit's word count, timed alone: the layer that moves setup_s here.
  return StandaloneWordCount(exec4, env, rep, nullptr);
}

// --- Output ----------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Final value of a metric: a single measured value, else the median of
/// its samples, else 0 (a layer this workload never calls).
double Value(const Report& rep, const std::string& name) {
  auto v = rep.values.find(name);
  if (v != rep.values.end()) return v->second;
  return rep.Med(name);
}

size_t SampleCount(const Report& rep, const std::string& name) {
  auto it = rep.samples.find(name);
  return it == rep.samples.end() ? (rep.values.count(name) ? 1 : 0)
                                 : it->second.size();
}

void PrintSummary(const Options& opt, const Report& rep, const Outcome& out) {
  std::printf("workload %s  seed %" PRIu64 "  %s\n", opt.workload.c_str(),
              opt.seed, opt.trace ? "traced" : "untraced");
  std::printf("%-26s %-7s %16s %8s\n", "metric", "unit", "value", "samples");
  auto row = [&](const MetricSpec& m) {
    std::printf("%-26s %-7s %16.6f %8zu\n", m.name, m.unit, Value(rep, m.name),
                SampleCount(rep, m.name));
  };
  if (!opt.trace) {
    for (const MetricSpec& m : kEndToEnd) row(m);
    for (const MetricSpec& m : kSummaryOnly) {
      if (SampleCount(rep, m.name) > 0 || std::string(m.name) == "error_rate") {
        row(m);
      }
    }
  } else {
    for (const MetricSpec& m : kPerLayer) row(m);
  }
  for (const std::string& e : out.errors) std::printf("FAILED: %s\n", e.c_str());
}

/// The last traced run's span tree. Spans with the same name under the
/// same parent fold into one line with their count.
void PrintSpans(const std::vector<Span>& spans) {
  struct Line {
    std::string label;
    std::string layer;
    size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  const std::vector<double> self = SelfSeconds(spans);
  std::vector<std::string> path(spans.size());
  std::map<std::string, size_t> index;
  std::vector<Line> lines;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string parent =
        s.parent >= 0 ? path[static_cast<size_t>(s.parent)] : "";
    path[i] = parent + "/" + s.name;
    auto [it, fresh] = index.emplace(path[i], lines.size());
    if (fresh) {
      const size_t depth = static_cast<size_t>(
          std::count(parent.begin(), parent.end(), '/'));
      lines.push_back(Line{std::string(2 * depth, ' ') + s.name, s.layer});
    }
    Line& line = lines[it->second];
    ++line.count;
    line.total += s.seconds();
    line.self += self[i];
  }
  std::printf("%-44s %-6s %6s %12s %12s\n", "span", "layer", "count",
              "total_ms", "self_ms");
  for (const Line& l : lines) {
    std::printf("%-44s %-6s %6zu %12.3f %12.3f\n", l.label.c_str(),
                l.layer.c_str(), l.count, l.total * 1e3, l.self * 1e3);
  }
}

void PrintRecord(const Options& opt, const Report& rep) {
  std::string line = "{\"record\": {";
  auto field = [&](const std::string& k, const std::string& v, bool quote) {
    if (line.back() != '{') line += ", ";
    line += "\"" + k + "\": ";
    line += quote ? "\"" + JsonEscape(v) + "\"" : v;
  };
  field("workload", opt.workload, true);
  field("seed", std::to_string(opt.seed), false);
  field("trace", opt.trace ? "1" : "0", false);
  field("commit", opt.commit, true);
  field("build_type", PERFBENCH_BUILD_TYPE, true);
  field("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  field("cpu_model", CpuModel(), true);
  field("llc_bytes", std::to_string(LastLevelCacheBytes()), false);
  field("corpus_scale", Number(kCorpusScale), false);
  field("kmeans_k", std::to_string(kClusters), false);
  field("kmeans_iterations", std::to_string(kIterations), false);
  field("window_bytes", std::to_string(kWindowBytes), false);
  field("open_loop_rate", Number(kOpenLoopRate), false);
  for (const auto& [k, v] : rep.record) field(k, v, true);
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintResult(const Options& opt, const Report& rep, const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + std::string(m.name) + "\": {\"value\": " +
            Number(Value(rep, m.name)) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// --- Entry -----------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hpa_perfbench --workload fused|stream|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--commit ID]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + arg).c_str());
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || opt.seconds <= 0) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--commit") {
      opt.commit = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.workdir.empty()) return Usage("--workdir is required");

  Env env;
  env.root = opt.workdir;
  if (io::FileExists(env.root)) {
    if (!io::RemoveDirRecursive(env.root).ok()) return Usage("bad --workdir");
  }
  if (!io::MakeDirs(env.root + "/corpus").ok() ||
      !io::MakeDirs(env.root + "/scratch").ok()) {
    return Usage("cannot create --workdir");
  }
  env.corpus_disk = std::make_unique<io::SimDisk>(
      io::DiskOptions::CorpusStore(), env.root + "/corpus", nullptr);
  env.scratch_disk = std::make_unique<io::SimDisk>(
      io::DiskOptions::LocalHdd(), env.root + "/scratch", nullptr);

  Report rep;
  Outcome out;
  Status status;
  if (opt.workload == "fused") {
    status = RunWorkflowWorkload(Mode::kFused, opt, env, rep, out);
  } else if (opt.workload == "stream") {
    status = RunWorkflowWorkload(Mode::kStream, opt, env, rep, out);
  } else if (opt.workload == "serve") {
    status = RunServeWorkload(opt, env, rep, out);
  } else {
    return Usage("unknown --workload");
  }
  (void)io::RemoveDirRecursive(env.root);
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (opt.trace) {
    rep.values["trace.overhead_s"] =
        rep.Med("trace.total_s") - rep.Med("untraced_job_s");
  }
  rep.values["error_rate"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  if (opt.trace) PrintSpans(rep.spans);
  PrintSummary(opt, rep, out);
  PrintRecord(opt, rep);
  PrintResult(opt, rep, out);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hpa::perfbench

int main(int argc, char** argv) { return hpa::perfbench::Main(argc, argv); }
