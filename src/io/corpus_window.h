#ifndef HPA_IO_CORPUS_WINDOW_H_
#define HPA_IO_CORPUS_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "parallel/executor.h"

/// \file
/// Windowed view over a PackedCorpusReader: the corpus becomes a sequence
/// of bounded-memory document windows, each one contiguous byte range of
/// the packed file fetched with a single ranged read and CRC-validated per
/// document. This is the I/O substrate of the semi-external execution mode:
/// operators hold at most two windows resident (the one they compute on and
/// the one the prefetcher reads ahead), so corpus size no longer bounds
/// memory.
///
/// The prefetcher models a dedicated I/O lane on the executor's virtual
/// clock: window reads queue on the lane (`ready = max(issue, lane_free) +
/// latency + bytes/bandwidth`), and Acquire() charges only the *stall* —
/// the part of the read not yet hidden behind compute — via
/// Executor::ChargeIoTime. With prefetch on, window w+1 is issued the
/// moment window w is acquired, so its transfer overlaps w's compute; with
/// prefetch off every window is issued at Acquire and the full read cost
/// stalls the clock. Both modes use the same lane arithmetic, which makes
/// the async-vs-sync comparison in `ablation_outofcore` apples-to-apples
/// and exactly replayable.
///
/// A multi-pass consumer can also attach a *spill*: one transient file on
/// another device (the scratch disk) to which it appends, per window, a
/// segment of bytes derived from that window — streamed K-means stores the
/// window's scored rows. Once a pass has appended segments, later passes
/// fetch each window's segment instead of its corpus bytes, on the same lane
/// and priced by the spill device's DiskOptions; a window without a usable
/// segment falls back to its corpus bytes. The spill is a cache: dropping a
/// segment never changes what the consumer computes, only what it reads.

namespace hpa::io {

/// One window: documents [begin_doc, end_doc), bodies contiguous on disk.
struct CorpusWindow {
  size_t begin_doc = 0;
  size_t end_doc = 0;  ///< exclusive
  uint64_t bytes = 0;  ///< sum of body lengths in the window
};

/// Splits `corpus` into contiguous windows of at most `window_bytes` of
/// body payload each. Every window holds at least one document, so a
/// single document larger than the budget gets a window of its own
/// (bounded memory then degrades gracefully to bounded-per-document).
/// `window_bytes == 0` means "one window spanning the whole corpus".
std::vector<CorpusWindow> PlanWindows(const PackedCorpusReader& corpus,
                                      uint64_t window_bytes);

/// Deterministic prefetch accounting, surfaced on phase counters and the
/// ablation JSON tails.
struct PrefetchStats {
  uint64_t windows_fetched = 0;      ///< windows handed to Acquire()
  uint64_t windows_prefetched = 0;   ///< of those, issued ahead of Acquire
  uint64_t bytes_read = 0;           ///< corpus payload bytes fetched
  uint64_t bytes_read_ahead = 0;     ///< corpus or segment bytes issued ahead
  double stall_seconds = 0.0;        ///< read time NOT hidden by compute
  double lane_busy_seconds = 0.0;    ///< modeled lane time, spill writes too
  uint64_t crc_reread_docs = 0;      ///< per-doc re-reads after a bad slice
  uint64_t high_water_bytes = 0;     ///< max window payload resident at once
  uint64_t spill_bytes_written = 0;  ///< segment bytes appended to the spill
  uint64_t spill_bytes_read = 0;     ///< segment bytes fetched back
  /// Windows a spilled pass fetched from the corpus instead: their segment
  /// was never written, or was dropped after failing to read or validate.
  uint64_t spill_rescored_windows = 0;

  /// Fraction of lane time hidden behind compute (0 when nothing was read).
  double OverlapRatio() const {
    if (lane_busy_seconds <= 0.0) return 0.0;
    double hidden = lane_busy_seconds - stall_seconds;
    if (hidden < 0.0) hidden = 0.0;
    return hidden / lane_busy_seconds;
  }

  /// Folds another pass's stats in: counters and times add, the high-water
  /// mark takes the max.
  void Add(const PrefetchStats& other) {
    windows_fetched += other.windows_fetched;
    windows_prefetched += other.windows_prefetched;
    bytes_read += other.bytes_read;
    bytes_read_ahead += other.bytes_read_ahead;
    stall_seconds += other.stall_seconds;
    lane_busy_seconds += other.lane_busy_seconds;
    crc_reread_docs += other.crc_reread_docs;
    spill_bytes_written += other.spill_bytes_written;
    spill_bytes_read += other.spill_bytes_read;
    spill_rescored_windows += other.spill_rescored_windows;
    high_water_bytes = std::max(high_water_bytes, other.high_water_bytes);
  }
};

/// Fetched window contents. For a corpus window, `statuses[i - begin_doc]`
/// is OK when `bodies[i - begin_doc]` views the validated payload of
/// document i — a slice of `bulk`, the window's single ranged read, or of
/// `rereads` for a document fetched again after a bad slice; otherwise it
/// carries the read/corruption error for quarantine. For a spilled window
/// `bulk` holds the window's spill segment as read (empty when the read
/// failed) and `bodies`/`statuses` are empty.
struct WindowData {
  size_t begin_doc = 0;
  size_t end_doc = 0;
  bool spilled = false;
  std::string bulk;
  std::vector<std::string_view> bodies;
  std::vector<hpa::Status> statuses;
  std::vector<std::string> rereads;
};

/// Double-buffered window reader with an optional depth-1 async prefetch
/// lane. Windows must be acquired in order 0..num_windows()-1 from OUTSIDE
/// any parallel region (Acquire charges stall time at top level, where the
/// simulated executor advances its clock directly); Reset() rewinds for
/// multi-pass consumers (one K-means iteration = one pass). Stats
/// accumulate across passes.
class WindowPrefetcher {
 public:
  /// `corpus` must outlive the prefetcher. `window_bytes == 0` spans the
  /// corpus with one window.
  WindowPrefetcher(const PackedCorpusReader* corpus, uint64_t window_bytes,
                   bool prefetch);
  /// Removes the spill file, if one was attached.
  ~WindowPrefetcher();

  WindowPrefetcher(const WindowPrefetcher&) = delete;
  WindowPrefetcher& operator=(const WindowPrefetcher&) = delete;

  size_t num_windows() const { return windows_.size(); }
  const CorpusWindow& window(size_t w) const { return windows_[w]; }
  uint64_t window_bytes() const { return window_bytes_; }
  bool prefetch_enabled() const { return prefetch_; }

  /// Fetches (or completes the prefetched read of) window `w`, charging
  /// any un-hidden read time to `executor`, and issues window w+1 on the
  /// lane when prefetch is on. Must be called in order; the previous
  /// window is released automatically.
  const WindowData& Acquire(parallel::Executor* executor, size_t w);

  /// Drops resident windows and rewinds to window 0 for another pass.
  /// Passes after one that appended spill segments fetch those segments.
  void Reset();

  /// Creates (truncating) the spill file `rel_path` on `disk`, which must
  /// outlive the prefetcher; the destructor removes it.
  Status AttachSpill(SimDisk* disk, std::string rel_path);

  /// Appends window `w`'s spill segment (after AttachSpill succeeded),
  /// modeled as one request on the lane, priced by the spill disk. With
  /// prefetch on it is write-behind (later reads queue behind it); off, it
  /// stalls the clock until done. A failed write leaves the window without
  /// a segment.
  void AppendSpill(parallel::Executor* executor, size_t w,
                   std::string_view segment);

  /// Drops window `w`'s spill segment (its bytes proved unusable) and
  /// fetches the window's corpus bytes instead, stalling until they land.
  /// `w` must be the window last acquired; it is not counted again in
  /// windows_fetched.
  const WindowData& AcquireCorpus(parallel::Executor* executor, size_t w);

  const PrefetchStats& stats() const { return stats_; }

 private:
  struct Slot {
    WindowData data;
    size_t window_index = 0;
    double ready_time = 0.0;
    uint64_t resident_bytes = 0;
    bool valid = false;
  };

  /// Where window w's segment lives in the spill file; length 0 = none.
  struct Segment {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Models the lane read and performs the actual transfer for window `w`:
  /// its spill segment when a spilled pass has one, else its corpus bytes.
  void Issue(parallel::Executor* executor, size_t w, bool ahead);
  /// Charges whatever of `slot`'s read is not yet hidden behind compute.
  void Await(parallel::Executor* executor, const Slot& slot);
  void Fetch(size_t w, WindowData* out);
  void FetchSpill(const Segment& segment, WindowData* out);
  void DropSlot(Slot* slot);

  const PackedCorpusReader* corpus_;
  uint64_t window_bytes_;
  bool prefetch_;
  std::vector<CorpusWindow> windows_;
  Slot slots_[2];  ///< slot for window w is slots_[w % 2]
  size_t next_acquire_ = 0;
  double lane_free_ = 0.0;
  uint64_t resident_bytes_ = 0;
  PrefetchStats stats_;

  SimDisk* spill_disk_ = nullptr;
  std::string spill_path_;
  uint64_t spill_size_ = 0;
  std::vector<Segment> segments_;
  bool spill_appended_ = false;  ///< AppendSpill was called
  bool spill_readable_ = false;  ///< a finished pass appended segments
};

}  // namespace hpa::io

#endif  // HPA_IO_CORPUS_WINDOW_H_
