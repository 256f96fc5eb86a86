// Unit tests for the discrete-event loop, coroutine tasks, futures, RNG and
// stats accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"

using namespace sim::literals;

namespace {

TEST(TimeTest, LiteralsAndConversions) {
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_DOUBLE_EQ(sim::to_us(2500_ns), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_ms(1500_us), 1.5);
  EXPECT_EQ(sim::microseconds(2.5), 2500);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(sim::format_time(500_ns), "500 ns");
  EXPECT_EQ(sim::format_time(12500_ns), "12.500 us");
  EXPECT_EQ(sim::format_time(3100_us), "3.100 ms");
  EXPECT_EQ(sim::format_time(2_s), "2.000 s");
}

TEST(EventLoopTest, EventsFireInTimeOrder) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30_us, [&] { order.push_back(3); });
  loop.schedule_at(10_us, [&] { order.push_back(1); });
  loop.schedule_at(20_us, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30_us);
}

TEST(EventLoopTest, TiesBreakFifo) {
  sim::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, NestedSchedulingAdvancesTime) {
  sim::EventLoop loop;
  sim::Time inner_fired = -1;
  loop.schedule_at(10_us, [&] {
    loop.schedule_after(5_us, [&] { inner_fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner_fired, 15_us);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  sim::EventLoop loop;
  int fired = 0;
  loop.schedule_at(10_us, [&] { ++fired; });
  loop.schedule_at(20_us, [&] { ++fired; });
  loop.run_until(15_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15_us);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PastEventsClampToNow) {
  sim::EventLoop loop;
  loop.run_until(100_us);
  sim::Time fired = -1;
  loop.schedule_at(10_us, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, 100_us);
}

// ---- event-queue property test -------------------------------------------
//
// The ready queue's zero-delay lane, two wheel levels and overflow heap must
// pop exactly the stream a plain priority queue on (time, insertion index)
// pops. Each seed runs one random program through sim::EventLoop and through
// a std::priority_queue reference with the loop's clamping rules. Events
// schedule children at delays of 0, inside one bucket, inside the level-0
// horizon, inside the level-1 span, beyond it and in the past; absolute
// times on a coarse grid make distinct events tie; run_until deadlines
// interleave with pushes from outside any event.
//
// Once per program an EventSource joins, shaped like the storm's start
// feed (fabric/scale.cc): hops at the clock keyed by one block of seqs
// taken when it is attached, each of which runs its entry inline or keys
// the entry's start by a seq taken when the hop runs. The reference
// pushes the same keys. Hops tie at the clock with events scheduled before
// them (lower seqs) and after them (higher seqs), and starts tie on the
// grid with scheduled events either way, so the merge must break ties by
// seq.

constexpr sim::Time kBucket = sim::ReadyQueue::kBucketWidth;
constexpr sim::Time kHorizon = sim::ReadyQueue::kHorizon;
constexpr sim::Time kSpan = sim::ReadyQueue::kSpan;
constexpr int kMaxEvents = 3000;  // per seed

using Trace = std::vector<std::pair<int, sim::Time>>;  // (event id, now)

sim::Time random_delay(sim::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return 0;
    case 1:
      return rng.next_range(1, kBucket - 1);
    case 2:
      return rng.next_range(kBucket, kHorizon - 1);
    case 3:
      return rng.next_range(kHorizon, kSpan - 1);
    case 4:
      return rng.next_range(kSpan, 3 * kSpan);
    default:
      return -rng.next_range(1, kHorizon);  // clamps to now
  }
}

// A grid time over the first ~16 ms, or 1 ns before one, at the end of a
// wheel bucket; often in the past (clamped to now).
sim::Time random_grid_time(sim::Rng& rng) {
  return static_cast<sim::Time>(rng.next_below(64)) * (kHorizon / 4) -
         static_cast<sim::Time>(rng.next_below(2));
}

template <typename S>
void schedule_random(S& s, sim::Rng& rng) {
  const int id = s.next_id++;
  if (rng.next_bool(0.25)) {
    s.at(random_grid_time(rng), id);
  } else {
    s.after(random_delay(rng), id);
  }
}

// Event `id` logs (id, now) and schedules 0-2 children from a stream keyed
// by its id, so both loops run the same program whatever order they run
// it in.
template <typename S>
void fire(S& s, int id) {
  s.trace.emplace_back(id, s.now());
  sim::Rng rng(s.seed * 1'000'003 + static_cast<std::uint64_t>(id));
  const std::uint64_t children = rng.next_below(3);
  for (std::uint64_t i = 0; i < children && s.next_id < kMaxEvents; ++i) {
    schedule_random(s, rng);
  }
}

// A feed's entries: entry j has id ids[j] and starts `offsets[j]` after
// the clock at attach; an offset <= 0 runs it inline in its hop. Hop j
// logs itself as id -1 - j.
struct FeedEntries {
  sim::Time clock = 0;
  std::vector<sim::Time> offsets;
  std::vector<int> ids;
};

template <typename S>
FeedEntries draw_feed(S& s, sim::Rng& rng) {
  FeedEntries f;
  f.clock = s.now();
  const std::uint64_t n = 8 + rng.next_below(40);
  for (std::uint64_t j = 0; j < n; ++j) {
    f.offsets.push_back(
        rng.next_bool(0.25)
            ? std::max<sim::Time>(random_grid_time(rng) - s.now(), 0)
            : random_delay(rng));
    f.ids.push_back(s.next_id++);
  }
  return f;
}

constexpr int hop_id(std::size_t j) { return -1 - static_cast<int>(j); }

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

struct LoopSched;

// The feed as an EventSource, its pending starts in a (t, seq) heap.
class LoopFeed final : public sim::EventSource {
 public:
  LoopFeed(LoopSched& s, FeedEntries f);
  void fire() override;

 private:
  struct Start {
    sim::Time t;
    std::uint64_t seq;
    int id;
    bool operator>(const Start& o) const {
      return std::tie(t, seq) > std::tie(o.t, o.seq);
    }
  };
  void show_next();

  LoopSched& s_;
  FeedEntries f_;
  std::uint64_t first_seq_;
  std::size_t next_hop_ = 0;
  std::priority_queue<Start, std::vector<Start>, std::greater<>> starts_;
};

struct LoopSched {
  explicit LoopSched(std::uint64_t sd) : seed(sd) {
    loop.enable_trace();
    loop.set_audit_hook(1, [this] { ++audits; });
  }
  sim::EventLoop loop;
  std::uint64_t seed;
  int next_id = 0;
  Trace trace;
  std::unique_ptr<LoopFeed> feed;
  std::uint64_t audits = 0;

  sim::Time now() const { return loop.now(); }
  void at(sim::Time t, int id) {
    loop.schedule_at(t, [this, id] { fire(*this, id); });
  }
  void after(sim::Time d, int id) {
    loop.schedule_after(d, [this, id] { fire(*this, id); });
  }
  void attach(FeedEntries f) {
    feed = std::make_unique<LoopFeed>(*this, std::move(f));
    loop.attach(*feed);
  }
  void run_until(sim::Time t) { loop.run_until(t); }
  void run() { loop.run(); }
  std::uint64_t executed() const { return loop.events_executed(); }
  std::uint64_t hash() const { return loop.trace_hash(); }
};

LoopFeed::LoopFeed(LoopSched& s, FeedEntries f)
    : s_(s),
      f_(std::move(f)),
      first_seq_(s.loop.take_seqs(f_.ids.size())) {
  show_next();
}

void LoopFeed::fire() {
  if (next_hop_ == f_.ids.size()) {
    const Start st = starts_.top();
    starts_.pop();
    show_next();
    ::fire(s_, st.id);
    return;
  }
  const std::size_t j = next_hop_++;
  s_.trace.emplace_back(hop_id(j), s_.now());
  if (f_.offsets[j] > 0) {
    starts_.push({f_.clock + f_.offsets[j], s_.loop.take_seqs(1), f_.ids[j]});
  }
  show_next();
  if (f_.offsets[j] <= 0) ::fire(s_, f_.ids[j]);
}

void LoopFeed::show_next() {
  if (next_hop_ < f_.ids.size()) {
    set_head(f_.clock, first_seq_ + next_hop_);
  } else if (!starts_.empty()) {
    set_head(starts_.top().t, starts_.top().seq);
  } else {
    set_head(kDone, 0);
  }
}

struct ReferenceSched {
  struct Event {
    sim::Time t;
    std::uint64_t seq;
    int id;
    bool operator>(const Event& o) const {
      return std::tie(t, seq) > std::tie(o.t, o.seq);
    }
  };
  explicit ReferenceSched(std::uint64_t sd) : seed(sd) {}
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  sim::Time clock = 0;
  std::uint64_t seq = 0;
  std::uint64_t seed;
  int next_id = 0;
  Trace trace;
  FeedEntries feed;
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0xcbf29ce484222325ull;

  sim::Time now() const { return clock; }
  void at(sim::Time t, int id) { queue.push({std::max(t, clock), seq++, id}); }
  void after(sim::Time d, int id) { at(clock + std::max<sim::Time>(d, 0), id); }
  void attach(FeedEntries f) {
    feed = std::move(f);
    for (std::size_t j = 0; j < feed.ids.size(); ++j) {
      queue.push({clock, seq++, hop_id(j)});
    }
  }
  void step() {
    const Event e = queue.top();
    queue.pop();
    clock = e.t;
    ++events;
    trace_hash = fnv_mix(fnv_mix(trace_hash, static_cast<std::uint64_t>(e.t)),
                         e.seq);
    if (e.id >= 0) {
      fire(*this, e.id);
      return;
    }
    const std::size_t j = static_cast<std::size_t>(-1 - e.id);
    trace.emplace_back(e.id, clock);
    if (feed.offsets[j] > 0) {
      queue.push({feed.clock + feed.offsets[j], seq++, feed.ids[j]});
    } else {
      fire(*this, feed.ids[j]);
    }
  }
  void run_until(sim::Time t) {
    if (t < clock) return;
    while (!queue.empty() && queue.top().t <= t) step();
    clock = t;
  }
  void run() {
    while (!queue.empty()) step();
  }
  std::uint64_t executed() const { return events; }
  std::uint64_t hash() const { return trace_hash; }
};

template <typename S>
void drive(S& s) {
  sim::Rng rng(s.seed);
  for (int i = 0; i < 64; ++i) schedule_random(s, rng);
  // The feed joins before one of the rounds, or after the last.
  const std::uint64_t feed_round = rng.next_below(13);
  for (int round = 0; round < 12; ++round) {
    if (static_cast<std::uint64_t>(round) == feed_round) {
      s.attach(draw_feed(s, rng));
    }
    // Deadlines on the grid or relative to the clock: some exactly at
    // event times, some behind the clock (a no-op).
    s.run_until(rng.next_bool(0.5) ? random_grid_time(rng)
                                   : s.now() + random_delay(rng));
    for (int i = 0; i < 8; ++i) schedule_random(s, rng);
  }
  if (feed_round == 12) s.attach(draw_feed(s, rng));
  s.run();
}

TEST(EventLoopPropertyTest, PopsThePriorityQueueStreamOverHundredSeeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    LoopSched real(seed);
    ReferenceSched ref(seed);
    drive(real);
    drive(ref);
    ASSERT_GT(ref.trace.size(), 160u) << "seed " << seed;
    const auto [a, b] = std::mismatch(real.trace.begin(), real.trace.end(),
                                      ref.trace.begin(), ref.trace.end());
    ASSERT_TRUE(a == real.trace.end() && b == ref.trace.end())
        << "seed " << seed << ": streams diverge at event #"
        << (a - real.trace.begin()) << " of " << ref.trace.size();
    EXPECT_EQ(real.now(), ref.now()) << "seed " << seed;
    EXPECT_EQ(real.executed(), ref.executed()) << "seed " << seed;
    EXPECT_EQ(real.hash(), ref.hash()) << "seed " << seed;
    EXPECT_EQ(real.audits, real.executed()) << "seed " << seed;
    EXPECT_TRUE(real.loop.empty()) << "seed " << seed;
  }
}

// A source alone keeps the loop busy: empty() sees it, run_until stops at
// its deadline, and the loop lets go of it once it is done.
TEST(EventLoopTest, SourceRunsLikeScheduledEvents) {
  LoopSched s(1);
  FeedEntries f;
  f.offsets = {0, 30, 10, 10};
  f.ids = {0, 1, 2, 3};
  s.next_id = 4;
  s.attach(std::move(f));
  EXPECT_FALSE(s.loop.empty());
  s.run_until(10);
  // Four hops at t=0 (hop 0 runs entry 0 inline), then entries 2 and 3,
  // which tie at t=10 in hop order.
  ASSERT_GE(s.trace.size(), 7u);
  EXPECT_EQ(s.trace[0], std::make_pair(hop_id(0), sim::Time{0}));
  EXPECT_EQ(s.trace[1].first, 0);
  EXPECT_EQ(s.now(), 10);
  s.run();
  EXPECT_TRUE(s.loop.empty());
  EXPECT_EQ(s.audits, s.executed());
}

// ---- inline-start spawn ----------------------------------------------------

sim::Task<void> two_steps(sim::EventLoop& loop, int* steps,
                          sim::Time* started) {
  *started = loop.now();
  ++*steps;
  co_await sim::delay(loop, 5_us);
  ++*steps;
}

TEST(EventLoopTest, SpawnInlineStartsWithoutAnEvent) {
  sim::EventLoop loop;
  int steps = 0;
  sim::Time started = -1;
  loop.spawn_inline(two_steps(loop, &steps, &started));
  EXPECT_EQ(steps, 1);  // ran to its first suspension already
  EXPECT_EQ(loop.events_executed(), 0u);
  loop.run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(loop.events_executed(), 1u);  // only the delay's resume

  // Started from inside an event, it runs as part of that event.
  loop.schedule_after(10_us, [&] {
    loop.spawn_inline(two_steps(loop, &steps, &started));
  });
  loop.run();
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(started, 15_us);
  EXPECT_EQ(loop.events_executed(), 3u);
}

sim::Task<void> throws_at_once() {
  throw std::runtime_error("before the first suspension");
  co_return;
}

TEST(EventLoopTest, SpawnInlineThrowSurfacesFromRun) {
  sim::EventLoop loop;
  loop.spawn_inline(throws_at_once());
  EXPECT_THROW(loop.run(), std::runtime_error);
}

sim::Task<void> holds_token(std::shared_ptr<int> token, sim::EventLoop& loop,
                            sim::Time d) {
  (void)token;
  if (d > 0) co_await sim::delay(loop, d);
}

TEST(EventLoopTest, SpawnInlineFrameIsReaped) {
  sim::EventLoop loop;
  auto token = std::make_shared<int>(0);
  loop.spawn_inline(holds_token(token, loop, 1_us));  // suspends
  loop.spawn_inline(holds_token(token, loop, 0));     // finishes inline
  EXPECT_EQ(token.use_count(), 3);  // both frames alive until reaped
  loop.run();
  EXPECT_EQ(token.use_count(), 1);
}

sim::Task<int> add_after(sim::EventLoop& loop, sim::Time d, int a, int b) {
  co_await sim::delay(loop, d);
  co_return a + b;
}

sim::Task<void> driver(sim::EventLoop& loop, int* out) {
  const int x = co_await add_after(loop, 10_us, 1, 2);
  const int y = co_await add_after(loop, 5_us, x, 10);
  *out = y;
}

TEST(TaskTest, NestedTasksComputeAndAdvanceClock) {
  sim::EventLoop loop;
  int result = 0;
  loop.spawn(driver(loop, &result));
  loop.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(loop.now(), 15_us);
}

sim::Task<void> thrower(sim::EventLoop& loop) {
  co_await sim::delay(loop, 1_us);
  throw std::runtime_error("boom");
}

TEST(TaskTest, RootTaskExceptionPropagatesFromRun) {
  sim::EventLoop loop;
  loop.spawn(thrower(loop));
  EXPECT_THROW(loop.run(), std::runtime_error);
}

sim::Task<int> rethrow_child(sim::EventLoop& loop) {
  co_await sim::delay(loop, 1_us);
  throw std::runtime_error("child failed");
}

sim::Task<void> catching_parent(sim::EventLoop& loop, bool* caught) {
  try {
    (void)co_await rethrow_child(loop);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(TaskTest, ChildExceptionCatchableInParent) {
  sim::EventLoop loop;
  bool caught = false;
  loop.spawn(catching_parent(loop, &caught));
  loop.run();
  EXPECT_TRUE(caught);
}

sim::Task<void> producer(sim::EventLoop& loop, sim::Promise<int> p) {
  co_await sim::delay(loop, 20_us);
  p.set_value(99);
}

sim::Task<void> consumer(sim::Future<int> f, int* out, sim::EventLoop& loop,
                         sim::Time* when) {
  *out = co_await f;
  *when = loop.now();
}

TEST(FutureTest, RendezvousAcrossTasks) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  int out = 0;
  sim::Time when = -1;
  loop.spawn(consumer(p.get_future(), &out, loop, &when));
  loop.spawn(producer(loop, std::move(p)));
  loop.run();
  EXPECT_EQ(out, 99);
  EXPECT_EQ(when, 20_us);
}

TEST(FutureTest, AwaitAlreadyReadyFutureDoesNotSuspend) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  p.set_value(7);
  int out = 0;
  sim::Time when = -1;
  loop.spawn(consumer(p.get_future(), &out, loop, &when));
  loop.run();
  EXPECT_EQ(out, 7);
  EXPECT_EQ(when, 0);
}

TEST(FutureTest, MultipleAwaitersAllWake) {
  sim::EventLoop loop;
  sim::Promise<int> p(loop);
  int a = 0, b = 0;
  sim::Time ta, tb;
  loop.spawn(consumer(p.get_future(), &a, loop, &ta));
  loop.spawn(consumer(p.get_future(), &b, loop, &tb));
  loop.spawn(producer(loop, p));
  loop.run();
  EXPECT_EQ(a, 99);
  EXPECT_EQ(b, 99);
}

TEST(RngTest, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  sim::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(RngTest, NextRangeInclusive) {
  sim::Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  sim::Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  sim::Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(StatsTest, BasicMoments) {
  sim::Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(StatsTest, PercentileInterpolation) {
  sim::Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(StatsTest, ClearResets) {
  sim::Stats s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.summary(), "n=0");
}

}  // namespace
