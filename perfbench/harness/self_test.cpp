// The benchmark's checks of its own statistics, run before every measurement.
// A failure marks the run incorrect.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

constexpr int64_t kMs = 1000000;
/// The fake clock's step: every read of it advances it by this much.
constexpr int64_t kTick = 1000;

/// Equal up to the fake clock's ticks (20 us), in ms.
bool near_ms(double ms, double want_ms) { return std::fabs(ms - want_ms) <= 0.02; }

/// A fake clock and a one-job FIFO server that is stalled for `stall_ns`
/// after drive()'s schedule starts and then takes 1 ms per request.  Every
/// read of the clock and every idle round advance it by one tick.
class StubLink final : public Link {
 public:
  StubLink(size_t conns, int64_t stall_ns)
      : done_at_(conns, 0), free_at_(start() + stall_ns) {}

  /// Where drive() starts its schedule: 1 ms after its first clock read.
  [[nodiscard]] static int64_t start() { return kTick + kMs; }

  [[nodiscard]] size_t connections() const override { return done_at_.size(); }
  [[nodiscard]] int64_t now() override { return clock_ += kTick; }
  bool send(size_t c, size_t) override {
    free_at_ = std::max(free_at_, clock_) + kMs;
    done_at_[c] = free_at_;
    return true;
  }
  bool poll(size_t c, bool*) override { return clock_ >= done_at_[c]; }
  void idle() override { clock_ += kTick; }

 private:
  int64_t clock_ = 0;
  std::vector<int64_t> done_at_;
  int64_t free_at_;
};

}  // namespace

std::vector<std::string> self_test(const Args& args) {
  std::vector<std::string> fails;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      fails.push_back(what);
    }
  };

  // Tail rule: the highest percentile with at least ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  const Tail t100 = tail_with_beyond(hundred);
  expect(t100.valid && near(t100.value, 90) && near(t100.percentile, 90) &&
             t100.samples == 100,
         "tail of 1..100 must be 90 at p90");
  const Tail t11 = tail_with_beyond({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11});
  expect(t11.valid && near(t11.value, 1) && near(t11.percentile, 100.0 / 11),
         "tail of 11 samples must be the minimum");
  expect(!tail_with_beyond({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).valid,
         "ten samples leave no percentile with ten beyond it");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5), "median");

  // Latency from due times, through drive() itself: a stub server that
  // stalls until 35 ms and then serves one request per ms, FIFO, while
  // requests fall due every 10 ms, charges the stall to every request
  // behind it.  With four connections the requests wait in the server; with
  // one they wait in the generator, which then sends them late.
  for (const size_t conns : {size_t{4}, size_t{1}}) {
    StubLink link(conns, 35 * kMs);
    std::vector<Timed> t(5);
    drive(link, 0, t.size(), 100.0, t);
    const double want_latency[] = {36, 27, 18, 9, 1};
    const double want_late_one_conn[] = {0, 26, 17, 8, 0};
    for (size_t i = 0; i < t.size(); ++i) {
      const int64_t due = StubLink::start() + static_cast<int64_t>(i) * 10 * kMs;
      const double want_late = conns == 1 ? want_late_one_conn[i] : 0.0;
      expect(t[i].due_ns == due && near_ms(t[i].latency_ms(), want_latency[i]) &&
                 near_ms(t[i].late_ms(), want_late),
             "open-loop due-time accounting, " + std::to_string(conns) + " connection(s), request " +
                 std::to_string(i));
    }
  }
  {
    // Closed loop on two connections: a request falls due when it is sent,
    // so its latency is its time in the server, where each request after
    // the first waits 1 ms for the other connection's; the wall time runs
    // from the first send to the last reply.
    StubLink link(2, 0);
    std::vector<Timed> t(6);
    const double wall_s = drive(link, 0, t.size(), 0.0, t);
    bool ok = near_ms(wall_s * 1e3, 6);
    for (size_t i = 0; i < t.size(); ++i) {
      ok = ok && t[i].due_ns == t[i].send_ns && near_ms(t[i].latency_ms(), i == 0 ? 1 : 2);
    }
    expect(ok, "closed-loop accounting");
  }
  std::vector<double> growing;
  for (int i = 1; i <= 100; ++i) {
    growing.push_back(i);
  }
  expect(last_over_first_tenth(growing) > 1.0, "a growing backlog must read > 1");

  // Failed-op counting.
  Tally tally;
  for (const bool ok : {true, false, true, true, false}) {
    tally.record(ok);
  }
  expect(tally.attempted == 5 && tally.failed == 2, "failed-op counting");

  // One seed yields the same op list twice, and another seed another list.
  const struct {
    const char* name;
    std::vector<std::string> (*ops)(uint64_t, int);
  } lists[] = {{"cold_profile", cold_profile_ops},
               {"sweep_campaign", sweep_campaign_ops},
               {"serve_mix", serve_mix_ops}};
  for (const auto& list : lists) {
    const std::vector<std::string> a = list.ops(args.seed, args.seconds);
    expect(!a.empty() && a == list.ops(args.seed, args.seconds),
           std::string(list.name) + ": one seed must give one op list");
    expect(a != list.ops(args.seed + 1, args.seconds),
           std::string(list.name) + ": another seed must give another op list");
  }
  return fails;
}

}  // namespace perfbench
