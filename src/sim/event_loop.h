// Deterministic discrete-event loop.
//
// The loop owns simulated time. Events fire in (time, insertion-order); ties
// are broken FIFO so runs are bit-for-bit reproducible. Root coroutines
// (sim::Task<void>) may be attached with spawn(); their lifetime is owned by
// the loop and exceptions escaping a root task are rethrown from run().
//
// Hot-path machinery (DESIGN.md §13): events are arena-allocated nodes
// (sim::NodePool) ordered by a zero-delay FIFO lane in front of a two-level
// timer wheel (sim::ReadyQueue), and callbacks are small-buffer-optimized
// sim::Callback — no malloc and no std::function copy per scheduled event.
// The (time, seq) discipline, and therefore every event trace and golden
// number, is unchanged from the priority-queue implementation this
// replaced.
//
// A pre-ordered stream of events can also run without a node per event:
// an attached EventSource (DESIGN.md §13, "Starts as a source") is merged
// with the queue by (time, seq).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/ready_queue.h"
#include "sim/time.h"

namespace sim {

template <typename T>
class Task;

// Events the loop runs in (time, seq) order without holding a node for
// each. The source shows one head event at a time; the loop runs it when
// its key is the smallest the loop holds, with now() already at its time,
// and fire() then moves the head to a larger key. Seqs come from
// EventLoop::take_seqs, so no scheduled event shares one.
class EventSource {
 public:
  static constexpr Time kDone = std::numeric_limits<Time>::max();

  Time head_time() const { return head_t_; }
  std::uint64_t head_seq() const { return head_seq_; }

  // Runs the head event and moves the head to the next one, or to kDone.
  virtual void fire() = 0;

 protected:
  ~EventSource() = default;
  void set_head(Time t, std::uint64_t seq) {
    head_t_ = t;
    head_seq_ = seq;
  }

 private:
  Time head_t_ = kDone;
  std::uint64_t head_seq_ = 0;
};

class EventLoop {
 public:
  using Callback = sim::Callback;

  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  Time now() const { return now_; }

  // Schedules `cb` at absolute time `t` (clamped to now()).
  void schedule_at(Time t, Callback cb);
  // Schedules `cb` `delay` nanoseconds from now (negative delays clamp to 0).
  void schedule_after(Time delay, Callback cb);

  // Takes `n` consecutive seqs, the ones `n` schedule calls made now would
  // take, and returns the first: the keys of an EventSource's events.
  std::uint64_t take_seqs(std::uint64_t n) {
    const std::uint64_t first = seq_;
    seq_ += n;
    return first;
  }

  // Merges `source` with the queue until its head reaches kDone, when the
  // loop lets go of it. At most one source at a time; it must outlive its
  // last event. Each of its events counts, traces and audits like a
  // scheduled one.
  void attach(EventSource& source);

  // Runs until the event queue drains. Returns the final simulated time.
  Time run();

  // Runs all events with timestamp <= deadline, then sets now() = deadline.
  void run_until(Time deadline);

  // Attaches a root coroutine. It starts running at the current time (the
  // first resume is scheduled as an event, not executed inline).
  void spawn(Task<void> task);
  // Attaches a root coroutine and runs it inline up to its first
  // suspension, scheduling nothing: for callers already running as the
  // event the coroutine should start in. An exception it throws surfaces
  // from run(), as for spawn().
  void spawn_inline(Task<void> task);

  // Called by the final awaiter of a root task (see detail::PromiseBase):
  // records the frame for the next reap cycle so reaping is O(#finished),
  // not a scan of every live root.
  void note_root_finished(std::coroutine_handle<> h) {
    finished_roots_.push_back(h.address());
  }

  // Number of events executed so far (useful for tests / budget checks).
  std::uint64_t events_executed() const { return executed_; }

  bool empty() const { return queue_.empty() && source_ == nullptr; }

  // ------------------------------------------------------------------
  // Invariant auditing (src/check). The hook fires between events, every
  // `every_n_events` executed events. Cost when unset: one branch per
  // event. An exception thrown by the hook propagates out of run().
  // ------------------------------------------------------------------
  void set_audit_hook(std::uint64_t every_n_events, Callback hook) {
    audit_every_ = every_n_events == 0 ? 1 : every_n_events;
    audit_hook_ = std::move(hook);
  }
  void clear_audit_hook() { audit_hook_ = nullptr; }

  // ------------------------------------------------------------------
  // Event-trace hash (determinism auditing). When enabled, every executed
  // event mixes (time, seq) into an FNV-1a accumulator, and instrumented
  // components mix in content markers via trace(). Two runs of the same
  // (config, seed) must produce bit-identical hashes; a divergence means
  // something fed nondeterministic state (e.g. unordered-container
  // iteration order) into the event stream. Cost when disabled: one
  // branch per call.
  // ------------------------------------------------------------------
  void enable_trace() { trace_enabled_ = true; }
  void trace(std::uint64_t v) {
    if (trace_enabled_) mix_trace(v);
  }
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  // Runs the next event. Precondition: !empty().
  void step();
  // True if the source's head precedes every queued event.
  bool source_leads();
  // Time of the next event, or ReadyQueue::kMaxTime when there is none.
  Time next_time();
  // Enters the event keyed (t, seq): moves the clock, counts, traces.
  void begin_event(Time t, std::uint64_t seq) {
    assert(t >= now_);
    now_ = t;
    ++executed_;
    if (trace_enabled_) {
      mix_trace(static_cast<std::uint64_t>(t));
      mix_trace(seq);
    }
  }
  void reap_finished_tasks();
  void* adopt_root(Task<void> task);  // frame address, or null if done

  void mix_trace(std::uint64_t v) {
    // FNV-1a over the 8 value bytes, folded in one multiply per word.
    trace_hash_ = (trace_hash_ ^ v) * 0x100000001b3ull;
  }

  ReadyQueue queue_;
  EventSource* source_ = nullptr;
  NodePool<EventNode> pool_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;

  std::uint64_t audit_every_ = 0;
  Callback audit_hook_;

  bool trace_enabled_ = false;
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis

  // Live root-coroutine frames, as raw handle addresses (the promise type
  // is only nameable in the .cc, which includes task.h). Each frame's
  // promise stores its index here; reap swap-erases and fixes indices up.
  std::vector<void*> roots_;
  std::vector<void*> finished_roots_;
};

}  // namespace sim
