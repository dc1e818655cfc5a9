#ifndef HPA_IO_FILE_IO_H_
#define HPA_IO_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/retry.h"
#include "common/status.h"

/// \file
/// Plain (un-simulated) file helpers used by SimDisk's backing store and by
/// utilities that read real corpora from disk.

namespace hpa::io {

/// Reads the entire file at `path` into a string.
StatusOr<std::string> ReadWholeFile(const std::string& path);

/// Like ReadWholeFile but retries transient failures per `retry`. Backoff is
/// accounted (not slept): real-file retries here are immediate, and callers
/// that simulate time charge the backoff themselves via SimDisk. If
/// `attempts` is non-null it receives the number of tries performed.
StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const RetryPolicy& retry,
                                    int* attempts = nullptr);

/// A file held open for positional reads, closed on destruction. Reads
/// are `pread`s, so one handle serves concurrent readers.
class RandomAccessFile {
 public:
  /// Opens `path` read-only.
  static StatusOr<RandomAccessFile> Open(const std::string& path);

  RandomAccessFile(RandomAccessFile&& other) noexcept;
  RandomAccessFile& operator=(RandomAccessFile&& other) noexcept;
  ~RandomAccessFile();

  /// Reads `length` bytes at `offset` into `out`, resized to `length` with
  /// ResizeBuffer (its capacity is reused). Fails with OutOfRange if the
  /// file is shorter than `offset + length`.
  Status ReadAt(uint64_t offset, uint64_t length, std::string* out) const;

 private:
  RandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Reads `length` bytes starting at `offset`. Fails with OutOfRange if the
/// file is shorter than `offset + length`.
StatusOr<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length);

/// ReadFileRange into `out`, resized to `length` with ResizeBuffer (its
/// capacity is reused).
Status ReadFileRange(const std::string& path, uint64_t offset,
                     uint64_t length, std::string* out);

/// Range read with bounded retry (see the retrying ReadWholeFile overload).
StatusOr<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length, const RetryPolicy& retry,
                                    int* attempts = nullptr);

/// Creates/truncates the file at `path` with `contents`, atomically: the
/// bytes are written to a sibling temp file which is then renamed over
/// `path`, so a crash mid-write never leaves a truncated file at `path` —
/// readers see either the old contents or the new, never a prefix. Parent
/// directories must exist.
Status WriteWholeFile(const std::string& path, std::string_view contents);

/// Appends `contents` to the file at `path`, creating it if absent.
/// NOT atomic: a crash mid-append can leave a partial record at the tail.
/// Use only for logs and other formats whose readers tolerate a torn tail;
/// durable artifacts should be rewritten via WriteWholeFile.
Status AppendToFile(const std::string& path, std::string_view contents);

/// Size in bytes of the file at `path`.
StatusOr<uint64_t> FileSize(const std::string& path);

/// True iff a regular file exists at `path`.
bool FileExists(const std::string& path);

/// Deletes the file if it exists (missing file is not an error).
Status RemoveFile(const std::string& path);

/// Recursively creates `dir` (and parents) if absent.
Status MakeDirs(const std::string& dir);

/// Creates a unique fresh directory under the system temp dir, named
/// `<prefix>XXXXXX`. Caller owns cleanup.
StatusOr<std::string> MakeTempDir(const std::string& prefix);

/// Recursively removes `dir` and its contents.
Status RemoveDirRecursive(const std::string& dir);

}  // namespace hpa::io

#endif  // HPA_IO_FILE_IO_H_
