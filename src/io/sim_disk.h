#ifndef HPA_IO_SIM_DISK_H_
#define HPA_IO_SIM_DISK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/retry.h"
#include "common/status.h"
#include "io/fault_injection.h"
#include "io/file_io.h"
#include "parallel/executor.h"

/// \file
/// Simulated storage device. All data is really written to / read from a
/// backing directory (so correctness is end-to-end testable), while the
/// *time* each operation would take on the modelled device — first-byte
/// latency plus bytes over bandwidth — is charged to the executor's
/// (virtual) clock. The device's `channels` parameter caps how many
/// requests can proceed concurrently, which is what makes a single-channel
/// "local hard disk" the Figure-3 bottleneck while a multi-channel corpus
/// store still rewards parallel input (§3.2).

namespace hpa::io {

/// Device performance characteristics.
struct DiskOptions {
  /// Sustained sequential throughput.
  double bandwidth_bytes_per_sec = 120.0e6;

  /// Fixed cost per request (seek + first byte).
  double latency_sec = 0.008;

  /// Concurrent request capacity (1 = strictly serial device).
  int channels = 1;

  /// HDD-class profile: the paper's "local hard disk" for intermediates.
  static DiskOptions LocalHdd() { return DiskOptions{}; }

  /// Multi-channel profile for the source corpus store. The per-request
  /// latency models the open+seek cost of reading many independent
  /// document files, which is what makes the paper's phase-1 input
  /// expensive serially but rewarding to parallelize (§3.2).
  static DiskOptions CorpusStore() {
    DiskOptions o;
    o.bandwidth_bytes_per_sec = 600.0e6;
    o.latency_sec = 0.0005;
    o.channels = 16;
    return o;
  }
};

class SimWriter;
class SimReader;

/// A simulated disk rooted at a real backing directory.
///
/// Thread-compatible like `Executor`: operations may be issued from inside
/// parallel-region bodies (the time is then attributed to the issuing
/// worker/chunk), matching how operators overlap I/O with compute.
class SimDisk {
 public:
  /// \param options device model
  /// \param root existing backing directory for file contents
  /// \param executor clock to charge; may be null (no time accounting)
  SimDisk(const DiskOptions& options, std::string root,
          parallel::Executor* executor);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Re-points time charging at a different executor (each experiment run
  /// constructs its own executor but can reuse the disk + backing files).
  void set_executor(parallel::Executor* executor) { executor_ = executor; }
  parallel::Executor* executor() const { return executor_; }

  const DiskOptions& options() const { return options_; }
  const std::string& root() const { return root_; }

  /// Attaches a fault injector consulted before every read request (not
  /// owned; may be null = no faults). Injected latency is charged to the
  /// executor's clock like any other device time.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Retry policy applied to read requests that fail (injected or real
  /// transient errors). Defaults to NoRetry, which preserves the exact
  /// pre-fault-tolerance behavior. Backoff waits are charged to the
  /// executor's clock — recovery costs simulated time, not wall time.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Charges one backoff wait to the clock and counts the retry. Also used
  /// by readers (e.g. PackedCorpus) that re-read after a checksum mismatch.
  void NoteRetry(double backoff_sec);

  /// Lifetime count of retry attempts performed through this disk.
  uint64_t total_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Writes a whole file; charges one request plus the byte cost.
  Status WriteFile(const std::string& rel_path, std::string_view contents);

  /// Appends to a file, creating it if absent; charges one request plus
  /// the byte cost.
  Status AppendFile(const std::string& rel_path, std::string_view contents);

  /// Reads a whole file; charges one request plus the byte cost.
  /// See ReadRange for the meaning of `attempt_base`.
  StatusOr<std::string> ReadFile(const std::string& rel_path,
                                 int attempt_base = 0);

  /// Reads `length` bytes at `offset`; charges one request plus byte cost.
  /// `attempt_base` offsets the attempt numbers seen by the fault injector:
  /// a caller that re-reads after detecting corruption passes its own retry
  /// count so the injected-fault decision can differ from the first read
  /// (decisions are pure functions of (request, attempt)).
  StatusOr<std::string> ReadRange(const std::string& rel_path,
                                  uint64_t offset, uint64_t length,
                                  int attempt_base = 0);

  /// ReadRange into `out`, reusing its capacity: a caller that reads
  /// similar-sized ranges over and over keeps one buffer instead of
  /// allocating a fresh one per request. `out` is unspecified on error.
  Status ReadRange(const std::string& rel_path, uint64_t offset,
                   uint64_t length, std::string* out, int attempt_base = 0);

  /// ReadRange through `file`, the caller's open handle on
  /// AbsPath(rel_path): the same request as the path form (fault identity,
  /// retries, charges and byte counts) without an open and close per
  /// call. Opening the handle is not a device request.
  Status ReadRange(const RandomAccessFile& file, const std::string& rel_path,
                   uint64_t offset, uint64_t length, std::string* out,
                   int attempt_base = 0);

  /// Opens a buffered, append-only stream writer. One request latency is
  /// charged at open; bytes are charged as they are appended.
  StatusOr<std::unique_ptr<SimWriter>> OpenWriter(const std::string& rel_path);

  /// Opens a whole-file stream reader (contents loaded eagerly; latency +
  /// bytes charged at open, matching a sequential scan).
  StatusOr<std::unique_ptr<SimReader>> OpenReader(const std::string& rel_path);

  bool Exists(const std::string& rel_path) const;
  StatusOr<uint64_t> FileSize(const std::string& rel_path) const;
  Status Remove(const std::string& rel_path);

  /// Lifetime byte counters (for reports). Safe to read concurrently.
  uint64_t total_bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

  /// Absolute backing path for `rel_path`.
  std::string AbsPath(const std::string& rel_path) const;

 private:
  friend class SimWriter;
  friend class SimReader;

  /// Charges `latency + bytes/bandwidth` to the executor, if any.
  void ChargeRequest(uint64_t bytes);
  /// Charges only the byte cost (for streaming appends after open).
  void ChargeBytes(uint64_t bytes);

  /// Shared read path: consults the fault injector per attempt, retries
  /// per `retry_policy_` (charging backoff to the clock), applies payload
  /// corruption / latency spikes to successful reads, and does the byte
  /// accounting. `read_fn` fills `out` with one attempt's payload.
  template <typename ReadFn>
  Status FaultAwareRead(std::string_view op, const std::string& rel_path,
                        uint64_t offset, int attempt_base, std::string* out,
                        const ReadFn& read_fn);

  DiskOptions options_;
  std::string root_;
  parallel::Executor* executor_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_policy_ = RetryPolicy::NoRetry();
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> retries_{0};
};

/// Buffered append-only writer on a SimDisk file.
///
/// Bytes accumulate in memory and are flushed to the backing file in large
/// blocks; simulated time is charged per appended byte regardless of when
/// the real flush happens.
class SimWriter {
 public:
  ~SimWriter();

  SimWriter(const SimWriter&) = delete;
  SimWriter& operator=(const SimWriter&) = delete;

  /// Appends bytes to the file.
  Status Append(std::string_view data);

  /// Flushes buffered bytes to the backing file.
  Status Flush();

  /// Flushes and finalizes. Must be called before destruction for the
  /// Status to be observable; the destructor flushes best-effort.
  Status Close();

  /// Bytes appended so far.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  friend class SimDisk;
  SimWriter(SimDisk* disk, std::string abs_path);

  SimDisk* disk_;
  std::string abs_path_;
  std::string buffer_;
  uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

/// Whole-file reader with line iteration.
class SimReader {
 public:
  /// Entire file contents.
  const std::string& contents() const { return contents_; }

  /// Returns the next line (without trailing newline) or false at EOF.
  bool NextLine(std::string_view* line);

  /// Resets line iteration to the start.
  void Rewind() { pos_ = 0; }

 private:
  friend class SimDisk;
  SimReader(std::string contents) : contents_(std::move(contents)) {}

  std::string contents_;
  size_t pos_ = 0;
};

}  // namespace hpa::io

#endif  // HPA_IO_SIM_DISK_H_
