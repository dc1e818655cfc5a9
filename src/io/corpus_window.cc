#include "io/corpus_window.h"

#include <algorithm>

#include "common/checksum.h"

namespace hpa::io {

std::vector<CorpusWindow> PlanWindows(const PackedCorpusReader& corpus,
                                      uint64_t window_bytes) {
  std::vector<CorpusWindow> windows;
  const size_t n = corpus.size();
  if (n == 0) return windows;
  if (window_bytes == 0) window_bytes = ~0ULL;
  CorpusWindow current;
  current.begin_doc = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t len = corpus.body_length(i);
    bool fits = current.bytes + len <= window_bytes;
    // Always admit the first document of a window, even oversized ones.
    if (i > current.begin_doc && !fits) {
      current.end_doc = i;
      windows.push_back(current);
      current = CorpusWindow{};
      current.begin_doc = i;
    }
    current.bytes += len;
  }
  current.end_doc = n;
  windows.push_back(current);
  return windows;
}

WindowPrefetcher::WindowPrefetcher(const PackedCorpusReader* corpus,
                                   uint64_t window_bytes, bool prefetch)
    : corpus_(corpus), window_bytes_(window_bytes), prefetch_(prefetch),
      windows_(PlanWindows(*corpus, window_bytes)) {}

WindowPrefetcher::~WindowPrefetcher() {
  if (spill_disk_ != nullptr) (void)spill_disk_->Remove(spill_path_);
}

namespace {

/// Runs `fn` with `disk`'s clock detached: the lane model prices every
/// transfer itself, so the physical I/O must not charge a second time (the
/// same idiom BenchEnv uses for corpus generation).
template <typename Fn>
auto Detached(SimDisk* disk, Fn fn) {
  parallel::Executor* saved = disk->executor();
  disk->set_executor(nullptr);
  auto result = fn();
  disk->set_executor(saved);
  return result;
}

}  // namespace

void WindowPrefetcher::DropSlot(Slot* slot) {
  if (!slot->valid) return;
  resident_bytes_ = resident_bytes_ >= slot->resident_bytes
                        ? resident_bytes_ - slot->resident_bytes
                        : 0;
  slot->data.bulk.clear();
  slot->data.bodies.clear();
  slot->data.statuses.clear();
  slot->data.rereads.clear();
  slot->valid = false;
}

void WindowPrefetcher::Reset() {
  DropSlot(&slots_[0]);
  DropSlot(&slots_[1]);
  next_acquire_ = 0;
  spill_readable_ = spill_appended_;
}

Status WindowPrefetcher::AttachSpill(SimDisk* disk, std::string rel_path) {
  HPA_RETURN_IF_ERROR(
      Detached(disk, [&] { return disk->WriteFile(rel_path, ""); }));
  spill_disk_ = disk;
  spill_path_ = std::move(rel_path);
  segments_.assign(windows_.size(), Segment{});
  return Status::OK();
}

void WindowPrefetcher::AppendSpill(parallel::Executor* executor, size_t w,
                                   std::string_view segment) {
  spill_appended_ = true;
  const DiskOptions& opts = spill_disk_->options();
  const double cost =
      opts.latency_sec +
      static_cast<double>(segment.size()) / opts.bandwidth_bytes_per_sec;
  const double now = executor->Now();
  lane_free_ = std::max(now, lane_free_) + cost;
  stats_.lane_busy_seconds += cost;
  if (!prefetch_) {
    executor->ChargeIoTime(lane_free_ - now, 1);
    stats_.stall_seconds += lane_free_ - now;
  }
  Status written = Detached(spill_disk_, [&] {
    return spill_disk_->AppendFile(spill_path_, segment);
  });
  if (!written.ok()) return;  // the window re-scores from the corpus
  segments_[w] = Segment{spill_size_, segment.size()};
  spill_size_ += segment.size();
  stats_.spill_bytes_written += segment.size();
}

void WindowPrefetcher::FetchSpill(const Segment& segment, WindowData* out) {
  out->spilled = true;
  Status read = Detached(spill_disk_, [&] {
    return spill_disk_->ReadRange(spill_path_, segment.offset, segment.length,
                                  &out->bulk);
  });
  // An unreadable segment arrives empty, which no decoder accepts.
  if (!read.ok()) out->bulk.clear();
}

void WindowPrefetcher::Fetch(size_t w, WindowData* out) {
  const CorpusWindow& win = windows_[w];
  out->spilled = false;
  size_t count = win.end_doc - win.begin_doc;
  out->bodies.assign(count, std::string_view());
  out->statuses.assign(count, Status::OK());

  // One contiguous ranged read covers the whole window (bodies are laid out
  // in document order) into the slot's recycled buffer; the bodies are
  // views into it.
  uint64_t first = corpus_->body_offset(win.begin_doc);
  uint64_t last_off = corpus_->body_offset(win.end_doc - 1);
  uint64_t span = last_off + corpus_->body_length(win.end_doc - 1) - first;
  SimDisk* disk = corpus_->disk();
  Status bulk;
  if (span > 0) {
    bulk = Detached(disk, [&] {
      return disk->ReadRange(corpus_->rel_path(), first, span, &out->bulk);
    });
  }

  std::vector<size_t> reread_docs;
  for (size_t i = win.begin_doc; i < win.end_doc; ++i) {
    size_t local = i - win.begin_doc;
    if (bulk.ok()) {
      uint64_t off = corpus_->body_offset(i) - first;
      std::string_view slice(out->bulk.data() + off, corpus_->body_length(i));
      if (!corpus_->has_checksums() || Crc32(slice) == corpus_->body_crc(i)) {
        out->bodies[local] = slice;
        continue;
      }
      stats_.crc_reread_docs += 1;
    }
    // Bad slice (injected corruption, torn transfer) or failed bulk read:
    // fall back to the per-document path, which retries per the disk's
    // policy with the clock attached — recovery costs real (virtual) time,
    // exactly like the non-windowed reader.
    StatusOr<std::string> body = corpus_->ReadBody(i);
    if (body.ok()) {
      out->rereads.push_back(std::move(*body));
      reread_docs.push_back(local);
    } else {
      out->statuses[local] = body.status();
    }
  }
  // Views into `rereads` are taken once it stops growing.
  for (size_t r = 0; r < reread_docs.size(); ++r) {
    out->bodies[reread_docs[r]] = out->rereads[r];
  }
}

void WindowPrefetcher::Issue(parallel::Executor* executor, size_t w,
                             bool ahead) {
  Slot& slot = slots_[w % 2];
  if (slot.valid && slot.window_index == w) return;  // already issued
  DropSlot(&slot);

  const CorpusWindow& win = windows_[w];
  const bool spilled = spill_readable_ && segments_[w].length > 0;
  if (spill_readable_ && !spilled) stats_.spill_rescored_windows += 1;
  const DiskOptions& opts =
      spilled ? spill_disk_->options() : corpus_->disk()->options();
  const uint64_t bytes = spilled ? segments_[w].length : win.bytes;
  double issue_time = executor->Now();
  double cost = opts.latency_sec +
                static_cast<double>(bytes) / opts.bandwidth_bytes_per_sec;
  slot.ready_time = std::max(issue_time, lane_free_) + cost;
  lane_free_ = slot.ready_time;
  stats_.lane_busy_seconds += cost;
  if (spilled) {
    stats_.spill_bytes_read += bytes;
  } else {
    stats_.bytes_read += bytes;
  }
  if (ahead) {
    stats_.windows_prefetched += 1;
    stats_.bytes_read_ahead += bytes;
  }

  if (spilled) {
    FetchSpill(segments_[w], &slot.data);
  } else {
    Fetch(w, &slot.data);
  }
  slot.data.begin_doc = win.begin_doc;
  slot.data.end_doc = win.end_doc;
  slot.window_index = w;
  slot.resident_bytes = bytes;
  slot.valid = true;
  resident_bytes_ += bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, resident_bytes_);
}

void WindowPrefetcher::Await(parallel::Executor* executor, const Slot& slot) {
  double stall = slot.ready_time - executor->Now();
  if (stall > 0.0) {
    executor->ChargeIoTime(stall, 1);
    stats_.stall_seconds += stall;
  }
}

const WindowData& WindowPrefetcher::Acquire(parallel::Executor* executor,
                                            size_t w) {
  // In-order discipline: windows stream forward; Reset() rewinds.
  next_acquire_ = w + 1;
  if (w > 0) DropSlot(&slots_[(w - 1) % 2]);

  Slot& slot = slots_[w % 2];
  if (!slot.valid || slot.window_index != w) {
    Issue(executor, w, /*ahead=*/false);
  }
  Await(executor, slot);
  stats_.windows_fetched += 1;

  if (prefetch_ && w + 1 < windows_.size()) {
    Issue(executor, w + 1, /*ahead=*/true);
  }
  return slot.data;
}

const WindowData& WindowPrefetcher::AcquireCorpus(parallel::Executor* executor,
                                                  size_t w) {
  segments_[w] = Segment{};
  Slot& slot = slots_[w % 2];
  DropSlot(&slot);
  Issue(executor, w, /*ahead=*/false);
  Await(executor, slot);
  return slot.data;
}

}  // namespace hpa::io
