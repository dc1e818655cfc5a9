// Tests of the benchmark's own logic: percentile selection, span self-time
// arithmetic, seed-determined inputs and open-loop due-time accounting.
// Exits non-zero on the first failed check. Writes only under
// ./perfbench_selftest_work in the current directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/random.h"
#include "common/string_util.h"
#include "inputs.h"
#include "io/file_io.h"
#include "io/sim_disk.h"

namespace hpa::perfbench {
namespace {

int checks = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    ++checks;                                                              \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Percentile p99 = NearestRank(v, 0.99);
  CHECK(p99.rank == 990);
  CHECK(p99.value == 990.0);
  CHECK(p99.beyond == 10);
  Percentile p50 = NearestRank(v, 0.50);
  CHECK(p50.value == 500.0 && p50.beyond == 500);

  std::vector<double> hundred(v.begin(), v.begin() + 100);  // 1000..901
  Percentile small = NearestRank(hundred, 0.99);
  CHECK(small.rank == 99 && small.beyond == 1 && small.value == 999.0);

  CHECK(NearestRank({7.0}, 0.99).rank == 1);
  CHECK(NearestRank({7.0}, 0.99).beyond == 0);
  CHECK(NearestRank({}, 0.5).rank == 0);
  CHECK(NearestRank({3.0, 1.0, 2.0}, 0.0).value == 1.0);  // rank clamps to 1

  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(Median({}) == 0.0);
}

void TestSelfTimes() {
  Tracer t;
  int root = t.Record("job", "core", 0.0, 10.0, -1);
  t.Record("a", "ops", 1.0, 4.0, root);
  int b = t.Record("b", "io", 5.0, 9.0, root);
  t.Record("b.child", "ops", 6.0, 7.0, b);
  t.Record("outside", "ops", 20.0, 25.0, -1);  // not under the root

  std::vector<double> self = SelfSeconds(t.spans());
  CHECK(Near(self[0], 3.0));  // 10 - 3 - 4
  CHECK(Near(self[1], 3.0));
  CHECK(Near(self[2], 3.0));  // 4 - 1
  CHECK(Near(self[3], 1.0));

  std::map<std::string, double> layers = LayerSelfSeconds(t.spans(), root);
  CHECK(layers.size() == 3);
  CHECK(Near(layers["core"], 3.0));
  CHECK(Near(layers["ops"], 4.0));  // a + b.child, not "outside"
  CHECK(Near(layers["io"], 3.0));
  CHECK(Near(layers["core"] + layers["ops"] + layers["io"], 10.0));

  // Begin/End nest like a call stack.
  Tracer live;
  int r = live.Begin("root", "core");
  int c = live.Begin("child", "ops");
  CHECK(live.span(c).parent == r);
  live.End(c);
  int d = live.Begin("sibling", "io");
  CHECK(live.span(d).parent == r);
  live.End(d);
  live.End(r);
  int after = live.Begin("next root", "core");
  CHECK(live.span(after).parent == -1);
  std::map<std::string, double> l = LayerSelfSeconds(live.spans(), r);
  CHECK(std::abs(l["core"] + l["ops"] + l["io"] - live.span(r).seconds()) <
        1e-12);
}

std::string ReadFileOrDie(const std::string& path) {
  auto bytes = io::ReadWholeFile(path);
  CHECK(bytes.ok());
  return *bytes;
}

void TestInputsDeterministic() {
  const std::string root = "perfbench_selftest_work";
  if (io::FileExists(root)) CHECK(io::RemoveDirRecursive(root).ok());
  CHECK(io::MakeDirs(root).ok());
  io::SimDisk disk(io::DiskOptions::CorpusStore(), root, nullptr);

  // A small slice of the benchmark profile keeps the test fast; the code
  // path is the one the benchmark runs.
  const double scale = 0.002;
  auto gen = [&](uint64_t seed, const std::string& path) {
    auto made = GenerateCorpus(BenchProfile(seed, scale), &disk, path);
    CHECK(made.ok());
    CHECK(made->documents > 0 && made->body_bytes > 0);
    return ReadFileOrDie(disk.AbsPath(path));
  };
  std::string first = gen(7, "a.pack");
  std::string again = gen(7, "b.pack");
  std::string other = gen(8, "c.pack");
  CHECK(first == again);
  CHECK(first != other);

  const text::CorpusProfile profile = BenchProfile(7, scale);
  std::vector<std::string> bodies = GenerateRequestBodies(profile, 7, 64);
  CHECK(bodies == GenerateRequestBodies(profile, 7, 64));
  CHECK(bodies != GenerateRequestBodies(profile, 8, 64));

  // Held-out bodies share the training vocabulary's head and also carry
  // words the training corpus never saw.
  text::SynthCorpusGenerator training(profile);
  std::set<std::string> vocab;
  for (uint64_t r = 0; r < profile.target_distinct_words; ++r) {
    vocab.insert(training.WordForRank(r));
  }
  size_t seen = 0, unseen = 0;
  for (const std::string& body : bodies) {
    for (std::string_view word : Split(body, ' ')) {
      std::string w(word);
      while (!w.empty() && (w.back() == '.' || w.back() == '\n')) w.pop_back();
      if (w.empty()) continue;
      (vocab.count(w) ? seen : unseen) += 1;
    }
  }
  CHECK(seen > 0);
  CHECK(unseen > 0);
  CHECK(unseen < seen);
  CHECK(io::RemoveDirRecursive(root).ok());
}

/// Virtual clock for the open-loop tests: time moves only when the loop
/// waits or the fake server works.
struct FakeClock {
  double now = 100.0;  // a non-zero origin: results must be origin-relative
  double Now() const { return now; }
  void WaitUntil(double t) {
    if (t > now) now = t;
  }
};

/// Serves up to 4 queued requests per Poll at 1 ms per batch; the first
/// Poll at or after `stall_at` (schedule time) takes `stall` longer, and
/// records the schedule-time window it blocked the loop for.
struct FakeServer {
  FakeClock& clock;
  double origin;
  double stall_at;
  double stall;
  std::deque<size_t> queue;
  double stall_begin = -1.0;
  double stall_end = -1.0;

  bool CanAdmit() const { return queue.size() < 64; }
  bool Busy() const { return !queue.empty(); }
  void Submit(size_t i) { queue.push_back(i); }
  std::vector<size_t> Poll() {
    if (queue.empty()) return {};
    double cost = 0.001;
    if (stall_begin < 0 && clock.now - origin >= stall_at) {
      stall_begin = clock.now - origin;
      stall_end = stall_begin + cost + stall;
      cost += stall;
    }
    clock.now += cost;
    std::vector<size_t> done;
    while (!queue.empty() && done.size() < 4) {
      done.push_back(queue.front());
      queue.pop_front();
    }
    return done;
  }
  std::vector<size_t> Drain() {
    std::vector<size_t> all;
    while (!queue.empty()) {
      for (size_t id : Poll()) all.push_back(id);
    }
    return all;
  }
};

void TestOpenLoopAccounting() {
  // One request every 0.5 ms for 50 ms: 2 per ms against a capacity of 4
  // per ms, so without the stall nothing queues for long.
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(0.0005 * i);

  FakeClock clock;
  FakeServer server{clock, clock.now, 0.010, 0.020, {}};
  OpenLoopTimes t = RunOpenLoop(due, clock, server);
  CHECK(server.stall_begin >= 0.010);

  const double eps = 1e-9;
  std::vector<double> late = t.Late();
  std::vector<double> latency = t.Latency();
  size_t behind = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    CHECK(t.sent[i] >= t.due[i] - eps);  // never sent early
    CHECK(t.done[i] > t.sent[i]);        // every request answered
    CHECK(Near(latency[i], t.done[i] - t.due[i]));
    if (t.due[i] > server.stall_begin + eps &&
        t.due[i] < server.stall_end - eps) {
      // Due while the stalled Poll blocked the loop: sent the moment it
      // returned, so the stall shows as lateness, and the request then
      // queues behind the backlog, so its latency exceeds its lateness.
      ++behind;
      CHECK(std::abs(t.sent[i] - server.stall_end) < eps);
      CHECK(std::abs(late[i] - (server.stall_end - t.due[i])) < eps);
      CHECK(latency[i] >= late[i] + 0.001 - eps);
    } else {
      CHECK(late[i] <= 0.001 + eps);  // at most one ordinary batch behind
    }
  }
  CHECK(behind >= 40);  // 2 requests per ms across the 21 ms stall

  // Latency percentiles expose the stall; without it the same schedule
  // has a short tail and no send later than one batch.
  CHECK(NearestRank(latency, 0.99).value > 0.015);
  FakeClock calm_clock;
  FakeServer calm{calm_clock, calm_clock.now, 1e9, 0.0, {}};
  OpenLoopTimes c = RunOpenLoop(due, calm_clock, calm);
  CHECK(NearestRank(c.Latency(), 0.99).value < 0.003);
  for (double l : c.Late()) CHECK(l <= 0.001 + eps);
}

void TestPoissonSchedule() {
  Rng a(5), b(5);
  auto ua = [&] { return 1.0 - a.NextDouble(); };
  auto ub = [&] { return 1.0 - b.NextDouble(); };
  std::vector<double> s1 = PoissonSchedule(20000, 1000.0, ua);
  std::vector<double> s2 = PoissonSchedule(20000, 1000.0, ub);
  CHECK(s1 == s2);
  CHECK(s1.front() == 0.0);
  for (size_t i = 1; i < s1.size(); ++i) CHECK(s1[i] >= s1[i - 1]);
  const double rate = static_cast<double>(s1.size() - 1) / s1.back();
  CHECK(rate > 950.0 && rate < 1050.0);
}

}  // namespace
}  // namespace hpa::perfbench

int main() {
  using namespace hpa::perfbench;
  TestPercentiles();
  TestSelfTimes();
  TestPoissonSchedule();
  TestOpenLoopAccounting();
  TestInputsDeterministic();
  std::printf("perfbench selftest: %d checks passed\n", checks);
  return 0;
}
