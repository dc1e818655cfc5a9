#ifndef HPA_PERFBENCH_INPUTS_H_
#define HPA_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/sim_disk.h"
#include "text/synth_corpus.h"

/// \file
/// Benchmark inputs, derived from the workload seed alone: the training
/// corpus (NSF Abstracts profile at x0.05, packed onto the corpus disk) and
/// the held-out request bodies the serving workload scores. The same seed
/// gives byte-identical inputs.

namespace hpa::perfbench {

/// Scale of the NSF Abstracts profile every workload uses: about 5.1k
/// documents, 16 MB of text and 13.4k distinct words. Small enough that a
/// run takes many job samples, so the median of a run is robust to the
/// multi-second slowdowns a shared host shows.
inline constexpr double kCorpusScale = 0.05;

/// Independent sub-seed `stream` of the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// The training-corpus profile for `seed` at `scale`.
text::CorpusProfile BenchProfile(uint64_t seed, double scale = kCorpusScale);

/// What GenerateCorpus produced.
struct CorpusInputs {
  uint64_t body_bytes = 0;  ///< summed document body bytes
  size_t documents = 0;
};

/// Generates the corpus for `profile` and packs it at `rel_path` on
/// `disk`. Nothing is charged to the disk's executor (none should be
/// attached); the in-memory text is freed before returning.
StatusOr<CorpusInputs> GenerateCorpus(const text::CorpusProfile& profile,
                                      io::SimDisk* disk,
                                      const std::string& rel_path);

/// `n` held-out request bodies: documents drawn from `profile`'s Zipf word
/// distribution and length model under a different seed, over a
/// vocabulary 25% larger than the training corpus's, so roughly one
/// distinct word in five never occurred in training.
std::vector<std::string> GenerateRequestBodies(
    const text::CorpusProfile& profile, uint64_t seed, size_t n);

}  // namespace hpa::perfbench

#endif  // HPA_PERFBENCH_INPUTS_H_
