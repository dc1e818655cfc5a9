#include "io/sim_disk.h"

#include <utility>

#include "common/checksum.h"
#include "common/string_util.h"
#include "io/file_io.h"

namespace hpa::io {

namespace {
// Flush threshold for buffered writers; large enough that the backing
// filesystem sees sequential block writes.
constexpr size_t kWriterFlushBytes = 1 << 20;
}  // namespace

SimDisk::SimDisk(const DiskOptions& options, std::string root,
                 parallel::Executor* executor)
    : options_(options), root_(std::move(root)), executor_(executor) {}

std::string SimDisk::AbsPath(const std::string& rel_path) const {
  return root_ + "/" + rel_path;
}

void SimDisk::ChargeRequest(uint64_t bytes) {
  if (executor_ == nullptr) return;
  double seconds = options_.latency_sec +
                   static_cast<double>(bytes) /
                       options_.bandwidth_bytes_per_sec;
  executor_->ChargeIoTime(seconds, options_.channels);
}

void SimDisk::ChargeBytes(uint64_t bytes) {
  if (executor_ == nullptr) return;
  double seconds =
      static_cast<double>(bytes) / options_.bandwidth_bytes_per_sec;
  executor_->ChargeIoTime(seconds, options_.channels);
}

void SimDisk::NoteRetry(double backoff_sec) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (executor_ != nullptr && backoff_sec > 0.0) {
    executor_->ChargeIoTime(backoff_sec, options_.channels);
  }
}

template <typename ReadFn>
Status SimDisk::FaultAwareRead(std::string_view op,
                               const std::string& rel_path, uint64_t offset,
                               int attempt_base, std::string* out,
                               const ReadFn& read_fn) {
  const uint64_t token = StableHash64(rel_path) + offset;
  return RetryCall(
      retry_policy_, token,
      [&](int attempt) -> Status {
        attempt += attempt_base;
        FaultDecision fault;
        if (injector_ != nullptr) {
          fault = injector_->Decide(op, rel_path, offset, attempt);
        }
        if (fault.kind == FaultKind::kTransient ||
            fault.kind == FaultKind::kPermanent) {
          // The failed request still costs a seek on the device.
          ChargeRequest(0);
          return Status::IoError(
              StrFormat("injected %s fault reading '%s' @%llu (attempt %d)",
                        std::string(FaultKindName(fault.kind)).c_str(),
                        rel_path.c_str(),
                        static_cast<unsigned long long>(offset), attempt));
        }
        HPA_RETURN_IF_ERROR(read_fn(out));
        if (fault.kind == FaultKind::kLatencySpike && executor_ != nullptr) {
          executor_->ChargeIoTime(fault.extra_latency_sec, options_.channels);
        }
        if (fault.kind == FaultKind::kCorruption) {
          // Silent on this layer; checksummed formats detect it downstream.
          FaultInjector::CorruptPayload(fault, out);
        }
        bytes_read_ += out->size();
        ChargeRequest(out->size());
        return Status::OK();
      },
      [&](double backoff_sec) { NoteRetry(backoff_sec); });
}

Status SimDisk::WriteFile(const std::string& rel_path,
                          std::string_view contents) {
  HPA_RETURN_IF_ERROR(WriteWholeFile(AbsPath(rel_path), contents));
  bytes_written_ += contents.size();
  ChargeRequest(contents.size());
  return Status::OK();
}

Status SimDisk::AppendFile(const std::string& rel_path,
                           std::string_view contents) {
  HPA_RETURN_IF_ERROR(AppendToFile(AbsPath(rel_path), contents));
  bytes_written_ += contents.size();
  ChargeRequest(contents.size());
  return Status::OK();
}

StatusOr<std::string> SimDisk::ReadFile(const std::string& rel_path,
                                        int attempt_base) {
  std::string contents;
  HPA_RETURN_IF_ERROR(FaultAwareRead(
      "read", rel_path, 0, attempt_base, &contents, [&](std::string* out) {
        HPA_ASSIGN_OR_RETURN(*out, ReadWholeFile(AbsPath(rel_path)));
        return Status::OK();
      }));
  return contents;
}

StatusOr<std::string> SimDisk::ReadRange(const std::string& rel_path,
                                         uint64_t offset, uint64_t length,
                                         int attempt_base) {
  std::string contents(length, '\0');  // exact: one-shot reads need no slack
  HPA_RETURN_IF_ERROR(
      ReadRange(rel_path, offset, length, &contents, attempt_base));
  return contents;
}

Status SimDisk::ReadRange(const std::string& rel_path, uint64_t offset,
                          uint64_t length, std::string* out,
                          int attempt_base) {
  return FaultAwareRead("range", rel_path, offset, attempt_base, out,
                        [&](std::string* buffer) {
                          return ReadFileRange(AbsPath(rel_path), offset,
                                               length, buffer);
                        });
}

Status SimDisk::ReadRange(const RandomAccessFile& file,
                          const std::string& rel_path, uint64_t offset,
                          uint64_t length, std::string* out,
                          int attempt_base) {
  return FaultAwareRead("range", rel_path, offset, attempt_base, out,
                        [&](std::string* buffer) {
                          return file.ReadAt(offset, length, buffer);
                        });
}

StatusOr<std::unique_ptr<SimWriter>> SimDisk::OpenWriter(
    const std::string& rel_path) {
  std::string abs = AbsPath(rel_path);
  // Truncate eagerly so a writer that never flushes still leaves an empty
  // file, as a real create would.
  HPA_RETURN_IF_ERROR(WriteWholeFile(abs, ""));
  ChargeRequest(0);  // open/seek cost
  return std::unique_ptr<SimWriter>(new SimWriter(this, std::move(abs)));
}

StatusOr<std::unique_ptr<SimReader>> SimDisk::OpenReader(
    const std::string& rel_path) {
  HPA_ASSIGN_OR_RETURN(std::string contents, ReadFile(rel_path));
  return std::unique_ptr<SimReader>(new SimReader(std::move(contents)));
}

bool SimDisk::Exists(const std::string& rel_path) const {
  return FileExists(AbsPath(rel_path));
}

StatusOr<uint64_t> SimDisk::FileSize(const std::string& rel_path) const {
  return io::FileSize(AbsPath(rel_path));
}

Status SimDisk::Remove(const std::string& rel_path) {
  return RemoveFile(AbsPath(rel_path));
}

SimWriter::SimWriter(SimDisk* disk, std::string abs_path)
    : disk_(disk), abs_path_(std::move(abs_path)) {}

SimWriter::~SimWriter() {
  if (!closed_) Close();  // best effort; errors unobservable here
}

Status SimWriter::Append(std::string_view data) {
  if (closed_) return Status::FailedPrecondition("writer already closed");
  buffer_.append(data);
  bytes_written_ += data.size();
  disk_->bytes_written_ += data.size();
  disk_->ChargeBytes(data.size());
  if (buffer_.size() >= kWriterFlushBytes) return Flush();
  return Status::OK();
}

Status SimWriter::Flush() {
  if (buffer_.empty()) return Status::OK();
  Status s = AppendToFile(abs_path_, buffer_);
  buffer_.clear();
  return s;
}

Status SimWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  return Flush();
}

bool SimReader::NextLine(std::string_view* line) {
  if (pos_ >= contents_.size()) return false;
  size_t nl = contents_.find('\n', pos_);
  if (nl == std::string::npos) {
    *line = std::string_view(contents_).substr(pos_);
    pos_ = contents_.size();
  } else {
    *line = std::string_view(contents_).substr(pos_, nl - pos_);
    pos_ = nl + 1;
  }
  return true;
}

}  // namespace hpa::io
