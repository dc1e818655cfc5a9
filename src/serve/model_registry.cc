#include "serve/model_registry.h"

#include <charconv>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/string_util.h"
#include "io/file_io.h"

namespace hpa::serve {

void VersionPinSet::Pin(uint64_t version) {
  if (version == 0) return;
  ++counts_[version];
}

void VersionPinSet::Unpin(uint64_t version) {
  auto it = counts_.find(version);
  if (it == counts_.end()) return;
  if (--it->second == 0) counts_.erase(it);
}

bool VersionPinSet::IsPinned(uint64_t version) const {
  return counts_.count(version) > 0;
}

uint64_t VersionPinSet::PinCount(uint64_t version) const {
  auto it = counts_.find(version);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<uint64_t> VersionPinSet::Pinned() const {
  std::vector<uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& [version, count] : counts_) out.push_back(version);
  return out;
}

namespace {

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out, /*base=*/16);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseHex32(std::string_view s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseHex64(s, &v) || v > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Canonical one-line-per-field text hashed by ModelFingerprint. Doubles
/// are printed with %.17g so distinct values never collide textually.
/// The kind line (and its hyperparameters) is appended only for
/// non-K-means kinds, so every fingerprint computed before the family
/// grew — all of them K-means — is unchanged.
std::string CanonicalConfigText(const ModelConfig& c) {
  std::string text = StrFormat(
      "hpa-model-config v1\n"
      "tokenizer %llu %llu %d\n"
      "stem %d\n"
      "tfidf %u %.17g %d %d\n"
      "clusters %d\n",
      static_cast<unsigned long long>(c.tokenizer.min_token_length),
      static_cast<unsigned long long>(c.tokenizer.max_token_length),
      c.tokenizer.lowercase ? 1 : 0, c.stem_tokens ? 1 : 0, c.tfidf.min_df,
      c.tfidf.max_df_ratio, c.tfidf.sublinear_tf ? 1 : 0,
      c.tfidf.normalize ? 1 : 0, c.clusters);
  if (c.kind != ModelKind::kKMeans) {
    text += StrFormat("kind %s\nalpha %.17g\n",
                      std::string(ModelKindName(c.kind)).c_str(), c.nb_alpha);
  }
  return text;
}

/// IEEE-754 bit-exact centroid serialization ("hpa-centroids v1").
std::string SerializeCentroids(
    const std::vector<std::vector<float>>& centroids) {
  size_t cols = centroids.empty() ? 0 : centroids[0].size();
  std::string out = "hpa-centroids v1\nclusters ";
  AppendUint(out, centroids.size());
  out += "\ncols ";
  AppendUint(out, cols);
  out += '\n';
  for (const auto& row : centroids) {
    for (size_t i = 0; i < row.size(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, &row[i], sizeof(bits));
      if (i > 0) out += ' ';
      out += StrFormat("%08x", bits);
    }
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<std::vector<float>>> ParseCentroids(
    std::string_view text, const std::string& path) {
  std::vector<std::string_view> lines = Split(text, '\n');
  if (lines.size() < 3 || Trim(lines[0]) != "hpa-centroids v1") {
    return Status::Corruption("bad centroid header in " + path);
  }
  int64_t clusters = 0;
  int64_t cols = 0;
  if (!StartsWith(lines[1], "clusters ") ||
      !ParseInt64(lines[1].substr(9), &clusters) || clusters < 1) {
    return Status::Corruption("bad clusters line in " + path);
  }
  if (!StartsWith(lines[2], "cols ") ||
      !ParseInt64(lines[2].substr(5), &cols) || cols < 0 ||
      lines.size() < 3 + static_cast<size_t>(clusters)) {
    return Status::Corruption("bad cols line in " + path);
  }
  std::vector<std::vector<float>> centroids(
      static_cast<size_t>(clusters),
      std::vector<float>(static_cast<size_t>(cols), 0.0f));
  for (int64_t c = 0; c < clusters; ++c) {
    std::vector<std::string_view> words =
        Split(Trim(lines[3 + static_cast<size_t>(c)]), ' ');
    if (cols == 0) continue;
    if (words.size() != static_cast<size_t>(cols)) {
      return Status::Corruption(
          StrFormat("centroid %lld has %zu values, want %lld in %s",
                    static_cast<long long>(c), words.size(),
                    static_cast<long long>(cols), path.c_str()));
    }
    for (int64_t i = 0; i < cols; ++i) {
      uint32_t bits = 0;
      if (!ParseHex32(words[static_cast<size_t>(i)], &bits)) {
        return Status::Corruption(
            StrFormat("bad centroid value %lld/%lld in %s",
                      static_cast<long long>(c), static_cast<long long>(i),
                      path.c_str()));
      }
      float v = 0.0f;
      std::memcpy(&v, &bits, sizeof(v));
      centroids[static_cast<size_t>(c)][static_cast<size_t>(i)] = v;
    }
  }
  return centroids;
}

}  // namespace

std::string_view ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kKMeans:
      return "kmeans";
    case ModelKind::kNaiveBayes:
      return "nb";
  }
  return "unknown";
}

uint64_t ModelFingerprint(const ModelConfig& config) {
  return StableHash64(CanonicalConfigText(config));
}

ModelHandle::ModelHandle(uint64_t version, ModelConfig config,
                         ops::TfidfVectorizer vectorizer,
                         std::vector<std::vector<float>> centroids)
    : version_(version),
      fingerprint_(ModelFingerprint(config)),
      config_(std::move(config)),
      vectorizer_(std::move(vectorizer)),
      centroids_(std::move(centroids)),
      tile_(centroids_, ops::CentroidSquaredNorms(centroids_)) {
  config_.kind = ModelKind::kKMeans;
}

ModelHandle::ModelHandle(uint64_t version, ModelConfig config,
                         ops::TfidfVectorizer vectorizer,
                         ops::NaiveBayesModel nb)
    : version_(version),
      fingerprint_(ModelFingerprint(config)),
      config_(std::move(config)),
      vectorizer_(std::move(vectorizer)),
      nb_(std::move(nb)) {
  config_.kind = ModelKind::kNaiveBayes;
}

containers::SparseVector ModelHandle::Vectorize(std::string_view body) const {
  return vectorizer_.Score(body, config_.tokenizer, config_.stem_tokens);
}

uint32_t ModelHandle::Classify(std::string_view body,
                               double* distance_out) const {
  // Recycled per serving thread, as streaming's window scorer does: no
  // allocation per request once they have warmed up.
  thread_local ops::TfidfVectorizer::Scratch scratch;
  thread_local containers::SparseVector v;
  vectorizer_.Score(body, config_.tokenizer, config_.stem_tokens, scratch, v);
  if (config_.kind == ModelKind::kNaiveBayes) {
    if (distance_out != nullptr) *distance_out = 0.0;
    return nb_.Predict(v);
  }
  double best_d = 0.0;
  // Shared exact-kernel helper — the same scan (and tie-break order) the
  // K-means assignment step falls back to when a bound test fails.
  int best = ops::NearestCentroid(v, v.SquaredL2Norm(), tile_, &best_d);
  if (distance_out != nullptr) *distance_out = best_d;
  return static_cast<uint32_t>(best);
}

ModelRegistry::ModelRegistry(io::SimDisk* disk, std::string dir)
    : disk_(disk), dir_(std::move(dir)) {
  // SimDisk paths map onto a backing directory tree; the registry keeps
  // its artifacts under a subdirectory, which must exist before the first
  // temp-file write.
  (void)io::MakeDirs(disk_->root() + "/" + dir_);
}

std::string ModelRegistry::ManifestPath(uint64_t version) const {
  return StrFormat("%s/model-%llu.manifest", dir_.c_str(),
                   static_cast<unsigned long long>(version));
}

std::string ModelRegistry::TfidfPath(uint64_t version) const {
  return StrFormat("%s/model-%llu.tfidf", dir_.c_str(),
                   static_cast<unsigned long long>(version));
}

std::string ModelRegistry::CentroidsPath(uint64_t version) const {
  return StrFormat("%s/model-%llu.centroids", dir_.c_str(),
                   static_cast<unsigned long long>(version));
}

std::string ModelRegistry::QuarantinePath(uint64_t version) const {
  return StrFormat("%s/model-%llu.quarantined", dir_.c_str(),
                   static_cast<unsigned long long>(version));
}

std::string ModelRegistry::LatestPath() const { return dir_ + "/latest"; }

StatusOr<uint64_t> ModelRegistry::LatestVersion() const {
  if (!disk_->Exists(LatestPath())) {
    return Status::NotFound("model registry " + dir_ + " is empty");
  }
  HPA_ASSIGN_OR_RETURN(std::string text, disk_->ReadFile(LatestPath()));
  int64_t v = 0;
  if (!ParseInt64(Trim(text), &v) || v < 1) {
    return Status::Corruption("bad latest pointer in " + dir_);
  }
  return static_cast<uint64_t>(v);
}

StatusOr<uint64_t> ModelRegistry::LatestVersionMatching(
    const ModelConfig& config) const {
  HPA_ASSIGN_OR_RETURN(uint64_t latest, LatestVersion());
  const std::string want =
      StrFormat("fingerprint %016llx",
                static_cast<unsigned long long>(ModelFingerprint(config)));
  // Downward scan from the global latest: versions are dense from 1, so
  // the first manifest carrying this config's fingerprint is the newest
  // of its kind. Unreadable or torn manifests are skipped — GC's
  // business, not this lookup's.
  for (uint64_t v = latest; v >= 1; --v) {
    if (disk_->Exists(QuarantinePath(v))) continue;
    if (!disk_->Exists(ManifestPath(v))) continue;
    StatusOr<std::string> text = disk_->ReadFile(ManifestPath(v));
    if (!text.ok()) continue;
    for (std::string_view line : Split(*text, '\n')) {
      if (Trim(line) == want) return v;
    }
  }
  return Status::NotFound(StrFormat(
      "no version matching fingerprint %016llx in %s",
      static_cast<unsigned long long>(ModelFingerprint(config)),
      dir_.c_str()));
}

StatusOr<ModelHandle> ModelRegistry::Fit(const ops::ExecContext& ctx,
                                         const io::PackedCorpusReader& corpus,
                                         const ModelConfig& config,
                                         ops::KMeansOptions kmeans) {
  if (config.clusters < 1) {
    return Status::InvalidArgument("ModelConfig.clusters must be >= 1");
  }
  // The snapshot records `config` as the model's identity, so the fit must
  // actually use it: override the context's text-processing knobs and the
  // cluster count rather than trusting the caller to keep them in sync.
  ops::ExecContext fit_ctx = ctx;
  fit_ctx.tokenizer = config.tokenizer;
  fit_ctx.stem_tokens = config.stem_tokens;
  kmeans.k = config.clusters;

  HPA_ASSIGN_OR_RETURN(ops::TfidfResult tfidf,
                       ops::TfidfInMemory(fit_ctx, corpus, config.tfidf));
  uint64_t num_documents = tfidf.num_documents();

  uint64_t version = 1;
  StatusOr<uint64_t> latest = LatestVersion();
  if (latest.ok()) {
    version = *latest + 1;
  } else if (latest.status().code() != StatusCode::kNotFound) {
    return latest.status();
  }

  if (config.kind == ModelKind::kNaiveBayes) {
    // Supervised fit: labels come off the corpus index (v3 label column);
    // row i of the TF/IDF matrix is document i by construction.
    std::vector<std::string> labels(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) labels[i] = corpus.label(i);
    ops::NaiveBayesOptions nb_options;
    nb_options.alpha = config.nb_alpha;
    HPA_ASSIGN_OR_RETURN(
        ops::NaiveBayesModel nb,
        ops::TrainNaiveBayes(fit_ctx, tfidf.matrix, labels, nb_options));
    ops::TfidfVectorizer vectorizer(tfidf, config.tfidf);
    HPA_RETURN_IF_ERROR(Publish(version, config, vectorizer,
                                ops::SerializeNaiveBayesModel(nb),
                                nb.num_classes(), num_documents));
    return ModelHandle(version, config, std::move(vectorizer),
                       std::move(nb));
  }

  HPA_ASSIGN_OR_RETURN(ops::KMeansResult clusters,
                       ops::SparseKMeans(fit_ctx, tfidf.matrix, kmeans));
  ops::TfidfVectorizer vectorizer(tfidf, config.tfidf);
  HPA_RETURN_IF_ERROR(Publish(version, config, vectorizer,
                              SerializeCentroids(clusters.centroids),
                              clusters.centroids.size(), num_documents));
  return ModelHandle(version, config, std::move(vectorizer),
                     std::move(clusters.centroids));
}

Status ModelRegistry::Publish(uint64_t version, const ModelConfig& config,
                              const ops::TfidfVectorizer& vectorizer,
                              const std::string& scorer_bytes,
                              size_t scorer_count, uint64_t num_documents) {
  std::string tfidf_path = TfidfPath(version);
  std::string cent_path = CentroidsPath(version);
  // Deterministic torn-publish hook: abort between commit-sequence steps
  // exactly where a real crash could land. Each step's writes are atomic
  // (temp + rename), so the abort point is the only degree of freedom.
  auto crash_after = [this](int step) {
    return crash_after_publish_step_ == step
               ? Status::Internal(StrFormat(
                     "injected crash after publish step %d", step))
               : Status::OK();
  };

  // Artifacts first. Save() goes through the atomic whole-file path; the
  // re-read below prices the CRC honestly on the simulated device and
  // checksums the exact bytes a future Load() will see.
  HPA_RETURN_IF_ERROR(vectorizer.Save(disk_, tfidf_path));
  HPA_ASSIGN_OR_RETURN(std::string tfidf_bytes, disk_->ReadFile(tfidf_path));
  HPA_RETURN_IF_ERROR(crash_after(0));

  HPA_RETURN_IF_ERROR(disk_->WriteFile(cent_path, scorer_bytes));
  HPA_RETURN_IF_ERROR(crash_after(1));

  // Manifest is the commit record: until it lands (atomically), the
  // version does not exist.
  std::string manifest = "hpa-model-registry v1\nversion ";
  AppendUint(manifest, version);
  manifest += StrFormat(
      "\nfingerprint %016llx\n",
      static_cast<unsigned long long>(ModelFingerprint(config)));
  manifest += StrFormat("tfidf %s %llu %08x\n", tfidf_path.c_str(),
                        static_cast<unsigned long long>(tfidf_bytes.size()),
                        Crc32(tfidf_bytes));
  manifest += StrFormat("centroids %s %llu %08x\n", cent_path.c_str(),
                        static_cast<unsigned long long>(scorer_bytes.size()),
                        Crc32(scorer_bytes));
  manifest += "terms ";
  AppendUint(manifest, vectorizer.vocabulary_size());
  manifest += "\nclusters ";
  AppendUint(manifest, scorer_count);
  manifest += "\ndocuments ";
  AppendUint(manifest, num_documents);
  manifest += "\nend\n";
  HPA_RETURN_IF_ERROR(disk_->WriteFile(ManifestPath(version), manifest));
  HPA_RETURN_IF_ERROR(crash_after(2));

  // The latest pointer moves only after the manifest commits; a crash
  // between the two leaves the new version loadable by explicit number.
  std::string latest;
  AppendUint(latest, version);
  latest += '\n';
  HPA_RETURN_IF_ERROR(disk_->WriteFile(LatestPath(), latest));
  return crash_after(3);
}

StatusOr<ModelHandle> ModelRegistry::Load(const ModelConfig& config,
                                          uint64_t version) const {
  if (load_breaker_ == nullptr) return LoadUnguarded(config, version);

  // Breaker time is the disk's executor clock; a detached disk serves a
  // frozen clock (0.0), which still yields deterministic transitions.
  double now =
      disk_->executor() != nullptr ? disk_->executor()->Now() : 0.0;
  uint64_t token = StableHash64(
      StrFormat("registry-load %s %llu", dir_.c_str(),
                static_cast<unsigned long long>(version)));
  if (!load_breaker_->Allow(token, now)) {
    return Status::Unavailable(StrFormat(
        "registry %s load breaker open until t=%.6f", dir_.c_str(),
        load_breaker_->open_until_sec()));
  }
  StatusOr<ModelHandle> result = LoadUnguarded(config, version);
  if (result.ok()) {
    load_breaker_->OnSuccess(now);
  } else {
    StatusCode code = result.status().code();
    // Only store-health failures trip the breaker. kNotFound (empty
    // registry) and kFailedPrecondition (config drift / quarantine) are
    // caller errors the store cannot heal from, so shedding future loads
    // would mask them rather than protect anything.
    if (code == StatusCode::kCorruption || code == StatusCode::kIoError) {
      load_breaker_->OnFailure(now);
    }
  }
  return result;
}

StatusOr<ModelHandle> ModelRegistry::LoadUnguarded(const ModelConfig& config,
                                                   uint64_t version) const {
  if (version == 0) {
    HPA_ASSIGN_OR_RETURN(version, LatestVersion());
  }
  if (disk_->Exists(QuarantinePath(version))) {
    return Status::FailedPrecondition(StrFormat(
        "model version %llu in %s is quarantined (see %s)",
        static_cast<unsigned long long>(version), dir_.c_str(),
        QuarantinePath(version).c_str()));
  }
  std::string manifest_path = ManifestPath(version);
  if (!disk_->Exists(manifest_path)) {
    return Status::NotFound(
        StrFormat("model version %llu not found in %s",
                  static_cast<unsigned long long>(version), dir_.c_str()));
  }
  HPA_ASSIGN_OR_RETURN(std::string text, disk_->ReadFile(manifest_path));
  std::vector<std::string_view> lines = Split(text, '\n');
  if (lines.size() < 9 || Trim(lines[0]) != "hpa-model-registry v1") {
    return Status::Corruption("bad registry manifest header in " +
                              manifest_path);
  }

  uint64_t fingerprint = 0;
  std::string tfidf_path;
  std::string cent_path;
  uint64_t tfidf_bytes_want = 0;
  uint64_t cent_bytes_want = 0;
  uint32_t tfidf_crc_want = 0;
  uint32_t cent_crc_want = 0;
  int64_t manifest_clusters = -1;
  bool saw_end = false;
  for (size_t i = 1; i < lines.size() && !saw_end; ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
    } else if (StartsWith(line, "fingerprint ")) {
      if (!ParseHex64(line.substr(12), &fingerprint)) {
        return Status::Corruption("bad fingerprint in " + manifest_path);
      }
    } else if (StartsWith(line, "tfidf ") || StartsWith(line, "centroids ")) {
      bool is_tfidf = StartsWith(line, "tfidf ");
      std::vector<std::string_view> parts = Split(line, ' ');
      int64_t bytes = 0;
      uint32_t crc = 0;
      if (parts.size() != 4 || !ParseInt64(parts[2], &bytes) || bytes < 0 ||
          !ParseHex32(parts[3], &crc)) {
        return Status::Corruption("bad artifact line in " + manifest_path);
      }
      if (is_tfidf) {
        tfidf_path = std::string(parts[1]);
        tfidf_bytes_want = static_cast<uint64_t>(bytes);
        tfidf_crc_want = crc;
      } else {
        cent_path = std::string(parts[1]);
        cent_bytes_want = static_cast<uint64_t>(bytes);
        cent_crc_want = crc;
      }
    } else if (StartsWith(line, "clusters ")) {
      if (!ParseInt64(line.substr(9), &manifest_clusters) ||
          manifest_clusters < 1) {
        return Status::Corruption("bad clusters line in " + manifest_path);
      }
    }
    // version/terms/documents lines are informational.
  }
  if (!saw_end || tfidf_path.empty() || cent_path.empty()) {
    return Status::Corruption("incomplete registry manifest " +
                              manifest_path);
  }

  // Config drift check before touching any artifact: serving with a
  // different tokenizer/weighting/cluster count than the fit silently
  // produces garbage scores, so it is an error, not a fallback.
  uint64_t want = ModelFingerprint(config);
  if (fingerprint != want) {
    return Status::FailedPrecondition(StrFormat(
        "model version %llu was fitted under fingerprint %016llx but the "
        "serving config hashes to %016llx (tokenizer/stem/tfidf/clusters "
        "drift); refusing to load",
        static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(want)));
  }

  HPA_ASSIGN_OR_RETURN(std::string tfidf_bytes, disk_->ReadFile(tfidf_path));
  if (tfidf_bytes.size() != tfidf_bytes_want ||
      Crc32(tfidf_bytes) != tfidf_crc_want) {
    return Status::Corruption("tfidf artifact failed checksum: " + tfidf_path);
  }
  HPA_ASSIGN_OR_RETURN(std::string cent_bytes, disk_->ReadFile(cent_path));
  if (cent_bytes.size() != cent_bytes_want ||
      Crc32(cent_bytes) != cent_crc_want) {
    return Status::Corruption("centroid artifact failed checksum: " +
                              cent_path);
  }

  HPA_ASSIGN_OR_RETURN(ops::TfidfVectorizer vectorizer,
                       ops::TfidfVectorizer::Load(disk_, tfidf_path,
                                                  config.tfidf));
  // The fingerprint check above already proved the version's kind is the
  // config's kind; the scorer artifact parse is the belt to that brace.
  if (config.kind == ModelKind::kNaiveBayes) {
    HPA_ASSIGN_OR_RETURN(ops::NaiveBayesModel nb,
                         ops::ParseNaiveBayesModel(cent_bytes, cent_path));
    if (manifest_clusters >= 0 &&
        nb.num_classes() != static_cast<size_t>(manifest_clusters)) {
      return Status::Corruption("class count disagrees with manifest in " +
                                cent_path);
    }
    return ModelHandle(version, config, std::move(vectorizer),
                       std::move(nb));
  }
  HPA_ASSIGN_OR_RETURN(std::vector<std::vector<float>> centroids,
                       ParseCentroids(cent_bytes, cent_path));
  if (manifest_clusters >= 0 &&
      centroids.size() != static_cast<size_t>(manifest_clusters)) {
    return Status::Corruption("centroid count disagrees with manifest in " +
                              cent_path);
  }
  return ModelHandle(version, config, std::move(vectorizer),
                     std::move(centroids));
}

}  // namespace hpa::serve
