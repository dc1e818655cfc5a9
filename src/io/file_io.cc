#include "io/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/checksum.h"
#include "common/string_util.h"

namespace hpa::io {

namespace fs = std::filesystem;

namespace {
std::string ErrnoMessage(const std::string& context, const std::string& path) {
  return context + " '" + path + "': " + std::strerror(errno);
}
}  // namespace

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError(ErrnoMessage("open", path));
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError(ErrnoMessage("read", path));
  return out;
}

Status ReadFileRange(const std::string& path, uint64_t offset,
                     uint64_t length, std::string* out) {
  // One open/pread/close per call: no stdio buffer to allocate and fill,
  // and no seek — this runs once per document read of a packed corpus.
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
  ResizeBuffer(*out, length);
  uint64_t got = 0;
  Status status;
  while (got < length) {
    const ssize_t n = ::pread(fd, out->data() + got, length - got,
                              static_cast<off_t>(offset + got));
    if (n > 0) {
      got += static_cast<uint64_t>(n);
    } else if (n == 0) {
      break;  // end of file
    } else if (errno != EINTR) {
      status = Status::IoError(ErrnoMessage("read", path));
      break;
    }
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (got != length) {
    return Status::OutOfRange("short read from '" + path + "': wanted " +
                              std::to_string(length) + " bytes at offset " +
                              std::to_string(offset) + ", got " +
                              std::to_string(got));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length) {
  std::string out(length, '\0');  // exact: a one-shot read needs no slack
  HPA_RETURN_IF_ERROR(ReadFileRange(path, offset, length, &out));
  return out;
}

StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const RetryPolicy& retry, int* attempts) {
  return RetryCall(
      retry, StableHash64(path),
      [&](int) { return ReadWholeFile(path); }, [](double) {}, attempts);
}

StatusOr<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length, const RetryPolicy& retry,
                                    int* attempts) {
  return RetryCall(
      retry, StableHash64(path) + offset,
      [&](int) { return ReadFileRange(path, offset, length); }, [](double) {},
      attempts);
}

Status WriteWholeFile(const std::string& path, std::string_view contents) {
  // Write-then-rename: fs::rename over an existing file is atomic on POSIX,
  // so `path` never holds a partially written payload.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError(ErrnoMessage("create", tmp));
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool close_failed = std::fclose(f) != 0;
  if (written != contents.size() || close_failed) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::IoError(ErrnoMessage("write", tmp));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::IoError("rename '" + tmp + "' -> '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status AppendToFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::IoError(ErrnoMessage("open-append", path));
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool close_failed = std::fclose(f) != 0;
  if (written != contents.size() || close_failed) {
    return Status::IoError(ErrnoMessage("append", path));
  }
  return Status::OK();
}

StatusOr<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  if (ec) {
    return Status::IoError("stat '" + path + "': " + ec.message());
  }
  return size;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IoError("remove '" + path + "': " + ec.message());
  return Status::OK();
}

Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("mkdir '" + dir + "': " + ec.message());
  return Status::OK();
}

StatusOr<std::string> MakeTempDir(const std::string& prefix) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) return Status::IoError("temp dir: " + ec.message());
  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate =
        base / (prefix + std::to_string(std::rand() % 1000000));
    if (fs::create_directory(candidate, ec) && !ec) {
      return candidate.string();
    }
  }
  return Status::IoError("could not create a unique temp dir under " +
                         base.string());
}

Status RemoveDirRecursive(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) return Status::IoError("rmdir '" + dir + "': " + ec.message());
  return Status::OK();
}

}  // namespace hpa::io
