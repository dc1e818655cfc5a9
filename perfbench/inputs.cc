#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "text/corpus_io.h"

namespace hpa::perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 sm(seed ^ (stream * 0x9E3779B97F4A7C15ULL));
  return sm.Next();
}

text::CorpusProfile BenchProfile(uint64_t seed, double scale) {
  text::CorpusProfile profile =
      text::CorpusProfile::NsfAbstracts().Scaled(scale);
  profile.seed = DeriveSeed(seed, 1);
  return profile;
}

StatusOr<CorpusInputs> GenerateCorpus(const text::CorpusProfile& profile,
                                      io::SimDisk* disk,
                                      const std::string& rel_path) {
  CorpusInputs out;
  text::Corpus corpus = text::SynthCorpusGenerator(profile).Generate();
  out.body_bytes = corpus.TotalBytes();
  out.documents = corpus.size();
  HPA_RETURN_IF_ERROR(text::WriteCorpusPacked(corpus, disk, rel_path));
  return out;
}

std::vector<std::string> GenerateRequestBodies(
    const text::CorpusProfile& profile, uint64_t seed, size_t n) {
  // Word strings come from the training generator, so rank r is the same
  // word on both sides; ranks past the training vocabulary are unseen.
  const text::SynthCorpusGenerator words_of(profile);
  const uint64_t vocab = std::max<uint64_t>(1, profile.target_distinct_words);
  const uint64_t extended = vocab + vocab / 4;
  std::vector<std::string> words;
  words.reserve(extended);
  for (uint64_t r = 0; r < extended; ++r) words.push_back(words_of.WordForRank(r));

  ZipfSampler zipf(extended, profile.zipf_skew);
  Rng rng(DeriveSeed(seed, 2));

  // Same length model as the generator: log-normal token counts whose
  // mean reproduces the profile's bytes per document.
  double sampled_len = 0.0;
  const int kCalibration = 20000;
  for (int i = 0; i < kCalibration; ++i) {
    sampled_len += static_cast<double>(words[zipf.Sample(rng)].size());
  }
  const double bytes_per_token = sampled_len / kCalibration + 1.0;
  const double mean_tokens = std::max(
      1.0, static_cast<double>(profile.target_bytes) /
               static_cast<double>(std::max<uint64_t>(1, profile.num_documents)) /
               bytes_per_token);
  const double sigma = profile.doc_length_sigma;
  const double mu = std::log(mean_tokens) - sigma * sigma / 2.0;

  std::vector<std::string> bodies(n);
  for (std::string& body : bodies) {
    const uint64_t tokens =
        static_cast<uint64_t>(std::max(1.0, rng.NextLogNormal(mu, sigma)));
    body.reserve(static_cast<size_t>(tokens * bytes_per_token) + 16);
    uint64_t sentence_left = 8 + rng.NextBounded(12);
    for (uint64_t t = 0; t < tokens; ++t) {
      body += words[zipf.Sample(rng)];
      if (--sentence_left == 0) {
        body += ".\n";
        sentence_left = 8 + rng.NextBounded(12);
      } else {
        body += ' ';
      }
    }
  }
  return bodies;
}

}  // namespace hpa::perfbench
