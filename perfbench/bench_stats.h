#ifndef HPA_PERFBENCH_BENCH_STATS_H_
#define HPA_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file
/// The benchmark's own arithmetic, kept free of library dependencies so the
/// self-test can pin it down: medians and nearest-rank percentiles, the
/// span tree whose per-layer self times must sum to the traced total, and
/// the open-loop load generator's due-time accounting.

namespace hpa::perfbench {

/// Host monotonic clock in seconds. Every reported time is a difference of
/// two readings of this clock (or of process CPU time); the library's
/// executor clock is never read.
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty list.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// A nearest-rank percentile and the samples strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  size_t rank = 0;    ///< 1-based rank of the selected sample (0 = no data)
  size_t beyond = 0;  ///< samples ranked after it: the tail it summarizes
};

/// Nearest-rank percentile: rank = ceil(q * n), clamped to [1, n]. For
/// n = 1000 and q = 0.99 that is the 990th smallest sample with 10 samples
/// beyond it — the reporting rule for p99 is "at least 10 beyond".
inline Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  const size_t n = values.size();
  if (n == 0) return p;
  std::sort(values.begin(), values.end());
  // Round the product first so 0.99 * 1000 is rank 990, not 991.
  double scaled = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
  size_t rank = static_cast<size_t>(std::ceil(scaled));
  rank = std::clamp<size_t>(rank, 1, n);
  p.value = values[rank - 1];
  p.rank = rank;
  p.beyond = n - rank;
  return p;
}

/// One traced call: what was called, which layer it belongs to, when it
/// started and ended (host seconds), and the enclosing span (-1 = root).
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;

  double seconds() const { return end - start; }
};

/// Records a span tree. Begin/End nest like a call stack; Record adds a
/// span with explicit times (an attributed child whose time was measured
/// by a separate call, or a test fixture).
class Tracer {
 public:
  int Begin(std::string name, std::string layer) {
    int id = Record(std::move(name), std::move(layer), WallSeconds(), 0.0,
                    open_.empty() ? -1 : open_.back());
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end = WallSeconds();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  int Record(std::string name, std::string layer, double start, double end,
             int parent) {
    spans_.push_back(Span{std::move(name), std::move(layer), start, end,
                          parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children.
inline std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

/// Per-layer self seconds over the subtree rooted at `root`. By
/// construction the values sum to the root's duration.
inline std::map<std::string, double> LayerSelfSeconds(
    const std::vector<Span>& spans, int root) {
  std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Walk up to decide membership in the subtree (trees here are tiny).
    int at = static_cast<int>(i);
    while (at >= 0 && at != root) at = spans[static_cast<size_t>(at)].parent;
    if (at == root) layers[spans[i].layer] += self[i];
  }
  return layers;
}

/// Outcome of an open-loop run, one entry per scheduled request.
struct OpenLoopTimes {
  std::vector<double> due;   ///< scheduled send time
  std::vector<double> sent;  ///< when the generator actually submitted it
  std::vector<double> done;  ///< when its response came back

  /// Generator lateness: how long after its due time a request was sent.
  std::vector<double> Late() const {
    std::vector<double> out(due.size());
    for (size_t i = 0; i < due.size(); ++i) out[i] = sent[i] - due[i];
    return out;
  }

  /// Latency charged from the due time, so time a request spent waiting
  /// to be sent (behind a stalled loop) counts against the server.
  std::vector<double> Latency() const {
    std::vector<double> out(due.size());
    for (size_t i = 0; i < due.size(); ++i) out[i] = done[i] - due[i];
    return out;
  }
};

/// Poisson arrival schedule: `n` due times at mean rate `rate` per second,
/// starting at 0, from a uniform source in (0, 1].
template <typename Uniform>
std::vector<double> PoissonSchedule(size_t n, double rate, Uniform uniform) {
  std::vector<double> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    due[i] = t;
    t += -std::log(uniform()) / rate;
  }
  return due;
}

/// Single-threaded open-loop event loop. `clock` provides Now() and
/// WaitUntil(t); `server` provides CanAdmit(), Submit(i), Busy() and
/// Poll()/Drain() returning the indices of completed requests. Every
/// request due by now is submitted (admission permitting) before each
/// Poll; a request that could not be sent on time is sent late and its
/// lateness is recorded, never dropped. Times are relative to the
/// schedule's origin, which is the clock's reading at entry.
template <typename Clock, typename Server>
OpenLoopTimes RunOpenLoop(const std::vector<double>& due, Clock& clock,
                          Server& server) {
  OpenLoopTimes t;
  const size_t n = due.size();
  t.due = due;
  t.sent.assign(n, 0.0);
  t.done.assign(n, 0.0);
  const double origin = clock.Now();
  size_t next = 0;
  size_t completed = 0;
  auto finish = [&](const std::vector<size_t>& ids) {
    const double now = clock.Now() - origin;
    for (size_t id : ids) t.done[id] = now;
    completed += ids.size();
  };
  while (next < n) {
    double now = clock.Now() - origin;
    while (next < n && due[next] <= now && server.CanAdmit()) {
      t.sent[next] = now;
      server.Submit(next);
      ++next;
    }
    if (!server.Busy() && next < n && due[next] > now) {
      clock.WaitUntil(origin + due[next]);
      continue;
    }
    finish(server.Poll());
  }
  while (completed < n) {
    std::vector<size_t> ids = server.Drain();
    if (ids.empty()) break;  // unanswered requests keep done == 0
    finish(ids);
  }
  return t;
}

}  // namespace hpa::perfbench

#endif  // HPA_PERFBENCH_BENCH_STATS_H_
