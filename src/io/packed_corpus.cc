#include "io/packed_corpus.h"

#include <cstring>

#include "common/checksum.h"

namespace hpa::io {

namespace {

// v2 adds a u32 CRC-32 per index entry; v3 adds a label column for
// supervised operators. v1/v2 files stay readable.
constexpr char kMagicV1[8] = {'H', 'P', 'A', 'C', 'O', 'R', 'P', '1'};
constexpr char kMagicV2[8] = {'H', 'P', 'A', 'C', 'O', 'R', 'P', '2'};
constexpr char kMagicV3[8] = {'H', 'P', 'A', 'C', 'O', 'R', 'P', '3'};
constexpr size_t kFooterBytes = 8 + 8 + 8;  // index_offset, doc_count, magic

void AppendU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

bool ReadU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (*pos + 4 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool ReadU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

}  // namespace

StatusOr<PackedCorpusWriter> PackedCorpusWriter::Create(
    SimDisk* disk, const std::string& rel_path) {
  HPA_ASSIGN_OR_RETURN(auto writer, disk->OpenWriter(rel_path));
  return PackedCorpusWriter(std::move(writer));
}

Status PackedCorpusWriter::Add(std::string_view name, std::string_view body,
                               std::string_view label) {
  if (finalized_) {
    return Status::FailedPrecondition("corpus already finalized");
  }
  HPA_RETURN_IF_ERROR(writer_->Append(body));
  index_.push_back(IndexEntry{std::string(name), std::string(label),
                              position_, body.size(), Crc32(body)});
  position_ += body.size();
  if (!label.empty()) any_label_ = true;
  return Status::OK();
}

Status PackedCorpusWriter::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("corpus already finalized");
  }
  finalized_ = true;
  uint64_t index_offset = position_;
  std::string blob;
  for (const IndexEntry& e : index_) {
    AppendU32(blob, static_cast<uint32_t>(e.name.size()));
    blob.append(e.name);
    if (any_label_) {
      AppendU32(blob, static_cast<uint32_t>(e.label.size()));
      blob.append(e.label);
    }
    AppendU64(blob, e.offset);
    AppendU64(blob, e.length);
    AppendU32(blob, e.crc);
  }
  AppendU64(blob, index_offset);
  AppendU64(blob, index_.size());
  blob.append(any_label_ ? kMagicV3 : kMagicV2, sizeof(kMagicV2));
  HPA_RETURN_IF_ERROR(writer_->Append(blob));
  return writer_->Close();
}

StatusOr<PackedCorpusReader> PackedCorpusReader::Open(
    SimDisk* disk, const std::string& rel_path) {
  HPA_ASSIGN_OR_RETURN(uint64_t file_size, disk->FileSize(rel_path));
  if (file_size < kFooterBytes) {
    return Status::Corruption("packed corpus too small: " + rel_path);
  }
  HPA_ASSIGN_OR_RETURN(
      std::string footer,
      disk->ReadRange(rel_path, file_size - kFooterBytes, kFooterBytes));
  bool has_checksums;
  bool has_labels = false;
  if (std::memcmp(footer.data() + 16, kMagicV3, sizeof(kMagicV3)) == 0) {
    has_checksums = true;
    has_labels = true;
  } else if (std::memcmp(footer.data() + 16, kMagicV2, sizeof(kMagicV2)) ==
             0) {
    has_checksums = true;
  } else if (std::memcmp(footer.data() + 16, kMagicV1, sizeof(kMagicV1)) ==
             0) {
    has_checksums = false;
  } else {
    return Status::Corruption("bad magic in packed corpus: " + rel_path);
  }
  size_t pos = 0;
  uint64_t index_offset = 0, doc_count = 0;
  ReadU64(footer, &pos, &index_offset);
  ReadU64(footer, &pos, &doc_count);
  if (index_offset > file_size - kFooterBytes) {
    return Status::Corruption("index offset out of bounds: " + rel_path);
  }

  HPA_ASSIGN_OR_RETURN(
      std::string index_blob,
      disk->ReadRange(rel_path, index_offset,
                      file_size - kFooterBytes - index_offset));
  std::vector<Entry> entries;
  entries.reserve(doc_count);
  pos = 0;
  for (uint64_t i = 0; i < doc_count; ++i) {
    uint32_t name_len = 0;
    if (!ReadU32(index_blob, &pos, &name_len) ||
        pos + name_len > index_blob.size()) {
      return Status::Corruption("truncated index entry in " + rel_path);
    }
    Entry e;
    e.name.assign(index_blob.data() + pos, name_len);
    pos += name_len;
    if (has_labels) {
      uint32_t label_len = 0;
      if (!ReadU32(index_blob, &pos, &label_len) ||
          pos + label_len > index_blob.size()) {
        return Status::Corruption("truncated index entry in " + rel_path);
      }
      e.label.assign(index_blob.data() + pos, label_len);
      pos += label_len;
    }
    if (!ReadU64(index_blob, &pos, &e.offset) ||
        !ReadU64(index_blob, &pos, &e.length)) {
      return Status::Corruption("truncated index entry in " + rel_path);
    }
    e.crc = 0;
    if (has_checksums && !ReadU32(index_blob, &pos, &e.crc)) {
      return Status::Corruption("truncated index entry in " + rel_path);
    }
    if (e.offset + e.length > index_offset) {
      return Status::Corruption("document range out of bounds in " +
                                rel_path);
    }
    entries.push_back(std::move(e));
  }
  HPA_ASSIGN_OR_RETURN(RandomAccessFile file,
                       RandomAccessFile::Open(disk->AbsPath(rel_path)));
  return PackedCorpusReader(disk, rel_path, std::move(file),
                            std::move(entries), has_checksums, has_labels);
}

StatusOr<std::string> PackedCorpusReader::ReadBody(size_t i) const {
  std::string body;
  if (i < entries_.size()) body.reserve(entries_[i].length);  // no slack
  HPA_RETURN_IF_ERROR(ReadBody(i, &body));
  return body;
}

Status PackedCorpusReader::ReadBody(size_t i, std::string* out) const {
  if (i >= entries_.size()) {
    return Status::OutOfRange("document index " + std::to_string(i) +
                              " out of range (corpus has " +
                              std::to_string(entries_.size()) + ")");
  }
  const Entry& e = entries_[i];
  const RetryPolicy& retry = disk_->retry_policy();
  const int max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  const uint64_t token = StableHash64(rel_path_) + e.offset;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      // A checksum-triggered re-read is priced like any other retry.
      disk_->NoteRetry(retry.BackoffSeconds(attempt - 1, token));
    }
    // attempt_base shifts the fault injector's attempt numbering so the
    // re-read is a genuinely new attempt, not a replay of the first.
    HPA_RETURN_IF_ERROR(disk_->ReadRange(file_, rel_path_, e.offset,
                                         e.length, out,
                                         /*attempt_base=*/attempt));
    if (!has_checksums_ || Crc32(*out) == e.crc) return Status::OK();
    if (attempt + 1 >= max_attempts) {
      return Status::Corruption("checksum mismatch for document '" + e.name +
                                "' in " + rel_path_ + " after " +
                                std::to_string(attempt + 1) + " attempt(s)");
    }
  }
}

uint64_t PackedCorpusReader::total_body_bytes() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) total += e.length;
  return total;
}

}  // namespace hpa::io
