#ifndef HPA_IO_PACKED_CORPUS_H_
#define HPA_IO_PACKED_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/sim_disk.h"

/// \file
/// Single-file corpus container: many small documents packed into one file
/// with a trailing index, so a 100k-document corpus does not need 100k
/// inodes while still supporting *independent per-document reads* — the
/// unit of parallel input in §3.2 ("reading independent files
/// concurrently").
///
/// Layout (v2, magic "HPACORP2"):
///   [body 0][body 1]...[body n-1]
///   index: n records of (name_len u32, name bytes, offset u64, length u64,
///                        crc32 u32)
///   footer: index_offset u64, doc_count u64, magic
///
/// The per-document CRC-32 lets ReadBody detect payload corruption (bit
/// flips, torn transfers) instead of feeding bad bytes to the operators; a
/// mismatch triggers a bounded re-read per the disk's retry policy and
/// surfaces as kCorruption only if it persists. v1 files ("HPACORP1",
/// no crc field) remain readable with verification disabled.
///
/// v3 ("HPACORP3") is the labeled-corpus variant: each index record gains
/// a (label_len u32, label bytes) pair after the name, carrying the class
/// label for supervised operators (Naive Bayes / k-NN training). The
/// writer emits v3 only when at least one document has a non-empty label,
/// so unlabeled corpora stay byte-identical to v2 and every pre-existing
/// file remains readable. Labels live in the index, not the payload:
/// training operators read them for free at Open() time without touching
/// document bodies.

namespace hpa::io {

/// Streams documents into a packed corpus file on a SimDisk.
class PackedCorpusWriter {
 public:
  /// Creates/truncates `rel_path` on `disk`.
  static StatusOr<PackedCorpusWriter> Create(SimDisk* disk,
                                             const std::string& rel_path);

  PackedCorpusWriter(PackedCorpusWriter&&) = default;
  PackedCorpusWriter& operator=(PackedCorpusWriter&&) = default;

  /// Appends one document. A non-empty `label` marks the corpus as
  /// labeled: Finalize() then writes the v3 format carrying one label per
  /// document (empty for documents added without one).
  Status Add(std::string_view name, std::string_view body,
             std::string_view label = {});

  /// Writes the index + footer and closes the file. Must be called exactly
  /// once; Add() is invalid afterwards.
  Status Finalize();

  uint64_t documents_added() const { return index_.size(); }

 private:
  struct IndexEntry {
    std::string name;
    std::string label;
    uint64_t offset;
    uint64_t length;
    uint32_t crc;
  };

  explicit PackedCorpusWriter(std::unique_ptr<SimWriter> writer)
      : writer_(std::move(writer)) {}

  std::unique_ptr<SimWriter> writer_;
  std::vector<IndexEntry> index_;
  uint64_t position_ = 0;
  bool finalized_ = false;
  bool any_label_ = false;
};

/// Random-access reader over a packed corpus file.
///
/// Opening loads only the index and keeps the corpus file open for the
/// reader's lifetime; document bodies are fetched individually with
/// ranged reads through that handle (each charged as one device request),
/// so a parallel loop over documents issues genuinely concurrent requests.
class PackedCorpusReader {
 public:
  /// Opens `rel_path` on `disk`, validating magic and index bounds.
  static StatusOr<PackedCorpusReader> Open(SimDisk* disk,
                                           const std::string& rel_path);

  PackedCorpusReader(PackedCorpusReader&&) = default;
  PackedCorpusReader& operator=(PackedCorpusReader&&) = default;

  /// Number of documents in the corpus.
  size_t size() const { return entries_.size(); }

  /// Name of document `i`.
  const std::string& name(size_t i) const { return entries_[i].name; }

  /// Class label of document `i` (empty for v1/v2 files and for unlabeled
  /// documents in a v3 file).
  const std::string& label(size_t i) const { return entries_[i].label; }

  /// Body length of document `i`, without reading it.
  uint64_t body_length(size_t i) const { return entries_[i].length; }

  /// Byte offset of document `i`'s body within the packed file. Bodies are
  /// laid out contiguously in document order, so a window of consecutive
  /// documents spans one contiguous byte range — the unit of the windowed
  /// reader's ranged prefetch.
  uint64_t body_offset(size_t i) const { return entries_[i].offset; }

  /// Stored CRC-32 of document `i`'s body (meaningless for v1 files; check
  /// has_checksums()). Lets window-level readers validate per-document
  /// slices of a bulk ranged read without re-fetching.
  uint32_t body_crc(size_t i) const { return entries_[i].crc; }

  /// Path of the packed file relative to the disk root.
  const std::string& rel_path() const { return rel_path_; }

  /// Reads the body of document `i` into `out`, reusing its capacity (one
  /// simulated device request, one `pread`). For v2 files the payload CRC
  /// is verified; a mismatch triggers a bounded re-read per the disk's
  /// retry policy (backoff charged to the clock) and returns kCorruption
  /// only if every attempt mismatches. `out` is unspecified on error.
  /// Safe to call concurrently from parallel-region bodies.
  Status ReadBody(size_t i, std::string* out) const;

  /// ReadBody into a fresh string.
  StatusOr<std::string> ReadBody(size_t i) const;

  /// True for v2+ files carrying per-document checksums.
  bool has_checksums() const { return has_checksums_; }

  /// True for v3 files carrying a label column.
  bool has_labels() const { return has_labels_; }

  /// The disk this reader reads from (callers consult its retry policy
  /// when attributing quarantine attempt counts).
  SimDisk* disk() const { return disk_; }

  /// Sum of all body lengths.
  uint64_t total_body_bytes() const;

 private:
  struct Entry {
    std::string name;
    std::string label;
    uint64_t offset;
    uint64_t length;
    uint32_t crc;
  };

  PackedCorpusReader(SimDisk* disk, std::string rel_path,
                     RandomAccessFile file, std::vector<Entry> entries,
                     bool has_checksums, bool has_labels)
      : disk_(disk), rel_path_(std::move(rel_path)), file_(std::move(file)),
        entries_(std::move(entries)), has_checksums_(has_checksums),
        has_labels_(has_labels) {}

  SimDisk* disk_;
  std::string rel_path_;
  RandomAccessFile file_;
  std::vector<Entry> entries_;
  bool has_checksums_;
  bool has_labels_;
};

}  // namespace hpa::io

#endif  // HPA_IO_PACKED_CORPUS_H_
