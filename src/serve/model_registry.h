#ifndef HPA_SERVE_MODEL_REGISTRY_H_
#define HPA_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/status.h"
#include "containers/sparse_vector.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "ops/exec_context.h"
#include "ops/kmeans.h"
#include "ops/naive_bayes.h"
#include "ops/tfidf.h"
#include "ops/tfidf_vectorizer.h"
#include "text/tokenizer.h"

/// \file
/// Versioned registry of fitted serving artifacts: the frozen vocabulary +
/// document frequencies (the TF/IDF model) and the final K-means centroid
/// matrix. Fit once with the batch workflow, snapshot, classify forever.
///
/// Snapshots reuse the checkpoint discipline (core/checkpoint.h): every
/// artifact is CRC-32'd, the per-version *manifest* is the commit record
/// listing artifact paths, sizes, and checksums, and all files go through
/// the disk's atomic whole-file path (temp + rename) — a crash mid-publish
/// leaves either no manifest or a complete one, never a torn version. The
/// `latest` pointer is written only after the manifest commits.
///
///   hpa-model-registry v1
///   version <V>
///   fingerprint <hex64>        — ModelFingerprint of the fit config
///   tfidf <path> <bytes> <crc32 hex8>
///   centroids <path> <bytes> <crc32 hex8>
///   terms <T>
///   clusters <K>
///   documents <N>
///   end
///
/// The registry is kind-heterogeneous: a directory may interleave K-means
/// and Naive Bayes versions. The "centroids" manifest line names the
/// *scorer* artifact slot whatever the kind — for kNaiveBayes versions the
/// file holds a serialized "hpa-nb-model v1" and the "clusters" count is
/// the class count — so GC, torn-publish repair, and quarantine treat
/// every version identically. The artifact content is self-describing by
/// header line, and the kind is part of the config fingerprint, so a
/// loader can never mistake one kind for the other.
///
/// The fingerprint covers everything that determines what a score vector
/// *means*: tokenizer shape, stemming, TF/IDF weighting options, and the
/// cluster count — plus, for non-K-means kinds, the kind tag and its
/// hyperparameters (appended only for those kinds, so every pre-existing
/// K-means fingerprint is unchanged). Load() recomputes it from the
/// caller's serving config
/// and rejects the snapshot (kFailedPrecondition) on any drift — a model
/// fitted with stemming is never silently served without it. Artifacts
/// whose bytes fail the manifest CRC are rejected as kCorruption; nothing
/// is ever silently loaded.
///
/// Centroid floats are serialized as IEEE-754 bit patterns (8 hex digits
/// each), so a reloaded model classifies bit-identically to the fitted
/// in-memory handle — the round-trip guarantee the serve tests pin down.

namespace hpa::serve {

/// Refcounted pin table guarding live-routed registry versions against
/// GC compaction. Retain-N protects only the newest N intact versions;
/// a router serving a 90/10 split (or a rollout holding a parked
/// stable) references versions retain-N would happily remove. Each
/// route pins its version for the route's lifetime; RegistryGc::Run
/// consults the set (GcOptions::pins) and skips pinned versions during
/// compaction — quarantine of genuinely corrupt versions still applies,
/// pinning protects bytes from *removal*, not from being wrong.
///
/// Refcounted, not boolean: two routers (live + replay twin) may pin
/// the same version independently, and the version stays protected
/// until the last one unpins. Same threading contract as the rest of
/// the serving layer: driven from one thread, not synchronized.
class VersionPinSet {
 public:
  /// Increments `version`'s pin count (version 0 is ignored — it is the
  /// "never scored" sentinel, not a registry version).
  void Pin(uint64_t version);

  /// Decrements; the entry disappears at zero. Unpinning an unpinned
  /// version is a no-op (destructor-ordering tolerance).
  void Unpin(uint64_t version);

  bool IsPinned(uint64_t version) const;

  /// Pin count for `version` (0 = unpinned).
  uint64_t PinCount(uint64_t version) const;

  /// Pinned versions, ascending (the GC report's audit view).
  std::vector<uint64_t> Pinned() const;

  size_t size() const { return counts_.size(); }

 private:
  std::map<uint64_t, uint64_t> counts_;
};

/// What a served model *is*. A registry directory may hold versions of
/// different kinds side by side (heterogeneous serving); the kind is part
/// of the config fingerprint, so a K-means consumer can never load a
/// Naive Bayes snapshot by accident.
enum class ModelKind {
  kKMeans,      ///< nearest-centroid scorer (unsupervised fit)
  kNaiveBayes,  ///< multinomial NB classifier (labeled-corpus fit)
};

std::string_view ModelKindName(ModelKind kind);

/// Everything that must match between fit time and serving time.
struct ModelConfig {
  text::TokenizerOptions tokenizer;

  /// Porter-stem tokens (must match the fit's ExecContext::stem_tokens).
  bool stem_tokens = false;

  ops::TfidfOptions tfidf;

  /// Number of K-means clusters (the paper uses 8; kKMeans only).
  int clusters = 8;

  /// Kind of scorer this config fits and serves.
  ModelKind kind = ModelKind::kKMeans;

  /// NB smoothing (kNaiveBayes only).
  double nb_alpha = 1.0;
};

/// Stable identity of `config` (StableHash64 over its canonical text).
uint64_t ModelFingerprint(const ModelConfig& config);

/// A loaded model: frozen vectorizer + a scorer of the config's kind
/// (dense centroids, or a Naive Bayes model), ready to score.
/// Immutable after construction; safe to share across parallel chunks.
class ModelHandle {
 public:
  /// K-means handle (kind = kKMeans).
  ModelHandle(uint64_t version, ModelConfig config,
              ops::TfidfVectorizer vectorizer,
              std::vector<std::vector<float>> centroids);

  /// Naive Bayes handle (kind = kNaiveBayes).
  ModelHandle(uint64_t version, ModelConfig config,
              ops::TfidfVectorizer vectorizer, ops::NaiveBayesModel nb);

  /// Scores `body` with the frozen vocabulary and returns the nearest
  /// centroid (kKMeans; ties to the lowest index) or the predicted class
  /// id (kNaiveBayes; ties to the lowest id). `distance_out`, if
  /// non-null, receives the squared L2 distance for kKMeans and 0.0 for
  /// kNaiveBayes. Pure: it scores into a recycled per-thread scratch and
  /// row that carry nothing between calls, so batched and one-at-a-time
  /// calls are bit-identical, and a warm call does not allocate.
  uint32_t Classify(std::string_view body, double* distance_out = nullptr) const;

  /// The TF/IDF score vector alone (what Classify computes internally).
  containers::SparseVector Vectorize(std::string_view body) const;

  uint64_t version() const { return version_; }
  uint64_t fingerprint() const { return fingerprint_; }
  ModelKind kind() const { return config_.kind; }
  const ModelConfig& config() const { return config_; }
  const ops::TfidfVectorizer& vectorizer() const { return vectorizer_; }
  const std::vector<std::vector<float>>& centroids() const {
    return centroids_;
  }
  /// The NB scorer (empty-default for kKMeans handles).
  const ops::NaiveBayesModel& nb_model() const { return nb_; }

 private:
  uint64_t version_;
  uint64_t fingerprint_;
  ModelConfig config_;
  ops::TfidfVectorizer vectorizer_;
  std::vector<std::vector<float>> centroids_;
  /// The centroids and their ||c||², tiled once at construction
  /// (rebuilding either per call would dominate the classify cost at
  /// serving rates).
  ops::CentroidTile tile_;
  ops::NaiveBayesModel nb_;
};

/// Versioned snapshot store rooted at `dir` on one disk. Versions are
/// dense from 1; publishing never mutates an existing version's files.
class ModelRegistry {
 public:
  ModelRegistry(io::SimDisk* disk, std::string dir);

  /// Fits the fused workflow on `corpus` under `config` — TF/IDF
  /// transform, then the scorer the config's kind names (sparse K-means,
  /// or Naive Bayes trained on the corpus's v3 label column) — publishes
  /// the artifacts as the next version, and returns the live handle. The
  /// context's tokenizer/stemming fields are overridden from `config` so
  /// the snapshot's fingerprint is the truth about how the model was
  /// fitted; `kmeans.k` is likewise forced to `config.clusters`
  /// (kNaiveBayes ignores `kmeans` and fails kInvalidArgument on an
  /// unlabeled corpus).
  StatusOr<ModelHandle> Fit(const ops::ExecContext& ctx,
                            const io::PackedCorpusReader& corpus,
                            const ModelConfig& config,
                            ops::KMeansOptions kmeans = {});

  /// Loads `version` (0 = latest), validating the manifest, the config
  /// fingerprint, and every artifact CRC. kNotFound when the version (or
  /// any registry state) does not exist, kFailedPrecondition when
  /// `config` differs from the fit config or the version carries a GC
  /// quarantine marker, kCorruption on bad bytes, kUnavailable when the
  /// attached load breaker is open.
  StatusOr<ModelHandle> Load(const ModelConfig& config,
                             uint64_t version = 0) const;

  /// Highest published version, or kNotFound for an empty registry.
  StatusOr<uint64_t> LatestVersion() const;

  /// Highest published version whose fit config fingerprint matches
  /// `config`, or kNotFound when no version of that identity exists. The
  /// per-kind latest pointer for heterogeneous registries: the global
  /// `latest` may belong to another kind after an interleaved publish, so
  /// kind-specific consumers (a hot-swap poller serving NB while K-means
  /// versions land) resolve their own lineage through this instead.
  /// Quarantined and torn versions are skipped, not errors.
  StatusOr<uint64_t> LatestVersionMatching(const ModelConfig& config) const;

  /// Circuit breaker consulted by Load (not owned; null = no breaker).
  /// A registry whose backing store is corrupting or erroring repeatedly
  /// then sheds load attempts for the breaker's open window instead of
  /// re-reading (and re-CRC-ing) doomed artifacts on every poll tick.
  /// Breaker time comes from the disk's executor clock (0.0 when the
  /// disk has no executor attached).
  void set_load_breaker(CircuitBreaker* breaker) { load_breaker_ = breaker; }
  CircuitBreaker* load_breaker() const { return load_breaker_; }

  /// Crash hook for the torn-publish tests and the chaos harness, in the
  /// spirit of ExecContext::crash_after_node: when >= 0, Publish aborts
  /// (Status kInternal) immediately after completing step N of its
  /// commit sequence — 0 = tfidf artifact written, 1 = centroid artifact
  /// written, 2 = manifest committed, 3 = latest pointer moved (i.e. a
  /// crash after a fully successful publish). Deterministic, no signals,
  /// virtual-clock friendly. -1 disables.
  void set_crash_after_publish_step(int step) {
    crash_after_publish_step_ = step;
  }

  const std::string& dir() const { return dir_; }

  // Path helpers shared with RegistryGc (all relative to the disk root).
  std::string ManifestPath(uint64_t version) const;
  std::string TfidfPath(uint64_t version) const;
  std::string CentroidsPath(uint64_t version) const;
  std::string QuarantinePath(uint64_t version) const;
  std::string LatestPath() const;

 private:
  /// Load minus the breaker wrapper (the actual manifest/CRC work).
  StatusOr<ModelHandle> LoadUnguarded(const ModelConfig& config,
                                      uint64_t version) const;

  /// Writes artifacts, then the manifest, then the latest pointer.
  /// `scorer_bytes` is the serialized scorer artifact — "hpa-centroids
  /// v1" or "hpa-nb-model v1", both self-describing by header line — and
  /// `scorer_count` its cluster/class count for the manifest.
  Status Publish(uint64_t version, const ModelConfig& config,
                 const ops::TfidfVectorizer& vectorizer,
                 const std::string& scorer_bytes, size_t scorer_count,
                 uint64_t num_documents);

  io::SimDisk* disk_;
  std::string dir_;
  CircuitBreaker* load_breaker_ = nullptr;
  int crash_after_publish_step_ = -1;
};

}  // namespace hpa::serve

#endif  // HPA_SERVE_MODEL_REGISTRY_H_
