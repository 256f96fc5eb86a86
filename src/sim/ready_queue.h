// Cache-friendly ready queue for the event loop (DESIGN.md §13).
//
// Replaces std::priority_queue<Event> (a binary heap of ~72-byte elements
// whose std::function had to be *copied* out of a const top()). The queue
// orders arena-allocated EventNode pointers by (time, seq), exactly the
// old heap's discipline. (time, seq) keys are unique, so any structure
// that always pops the minimum pops the identical stream; the parts below
// only change what a push or a pop costs:
//
//   lane      events at exactly the loop's current time (promise wakes,
//             spawns, zero-delay callbacks). They arrive in seq order and the
//             clock cannot pass them, so the lane is an already-sorted
//             FIFO, linked through the nodes' pool_next: O(1) both ways.
//   level 0   kBuckets buckets of kBucketWidth ns each (~1 ms horizon).
//             A push inside the horizon is an O(1) vector append keyed by
//             (t >> kBucketShift); the hot delays (cache hits 2 us, batch
//             windows 5 us, service budgets 1 us, RTTs 100 us) all land
//             here. A bucket becomes the *current* bucket lazily: its
//             events are heapified into `cur_` (24-byte entries, binary
//             heap) only when the cursor reaches it.
//   level 1   kBuckets slots one level-0 horizon wide (~268 ms): flow
//             starts, outage windows. When level 0 drains it is
//             realigned to the next nonempty slot, whose events are spread
//             into its buckets.
//   overflow  a (time, seq) binary heap beyond level 1. When both levels
//             drain, level 1 rebases onto the earliest overflow event.
//
// Invariants that keep popping in strict (time, seq) order:
//   * level 0 is level-1 slot cursor1_; every wheel event outside `cur_`
//     lies past the current bucket window, later slots hold only
//     events past level 0 and the heap only events past level 1, so
//     `cur_` holds the wheel's minimum whenever it is nonempty;
//   * pushes before the end of the current bucket window join `cur_`
//     (the wheel may have been settled past the clock);
//   * lane events sit at the clock, so a wheel event can precede the lane
//     head only by tying it in time with a smaller seq.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace sim {

struct EventNode {
  Time t = 0;
  std::uint64_t seq = 0;
  Callback cb;
  EventNode* pool_next = nullptr;  // NodePool free list, or the lane
};

class ReadyQueue {
 public:
  static constexpr int kBucketShift = 12;  // 4096 ns per bucket
  static constexpr std::size_t kBuckets = 256;
  static constexpr Time kBucketWidth = Time{1} << kBucketShift;
  static constexpr int kHorizonShift = kBucketShift + 8;  // 256 buckets
  static constexpr Time kHorizon = Time{1} << kHorizonShift;  // level 0
  static constexpr Time kSpan = kHorizon * static_cast<Time>(kBuckets);

  ReadyQueue() : ring_(kBuckets), slots_(kBuckets) {}
  ReadyQueue(const ReadyQueue&) = delete;
  ReadyQueue& operator=(const ReadyQueue&) = delete;

  bool empty() const { return size_ == 0; }

  // Queues `n`; `now` is the loop's clock (n->t >= now). An event at the
  // clock joins the lane, a later one the wheel.
  void push(EventNode* n, Time now) {
    ++size_;
    if (n->t != now) {
      place(n);
      return;
    }
    n->pool_next = nullptr;
    (lane_tail_ != nullptr ? lane_tail_->pool_next : lane_head_) = n;
    lane_tail_ = n;
  }

  // Smallest (time, seq) event time, or kMaxTime when empty. Settles the
  // wheel (advances the cursor / rebases) but never reorders.
  Time next_time() {
    if (lane_first()) return lane_head_->t;
    return settle() ? cur_.front().t : kMaxTime;
  }

  // True if the minimum event's key is below (t, seq); false when empty.
  // Settles the wheel only when t lies past the current bucket window.
  bool precedes(Time t, std::uint64_t seq) {
    const Entry key{t, seq, nullptr};
    if (lane_head_ != nullptr &&
        Entry{lane_head_->t, lane_head_->seq, lane_head_}.less_than(key)) {
      return true;
    }
    if (cur_.empty() && (t < cursor_end() || !settle())) return false;
    return cur_.front().less_than(key);
  }

  // Pops the (time, seq)-minimum event. Precondition: !empty().
  EventNode* pop() {
    --size_;
    if (lane_first()) {
      EventNode* n = lane_head_;
      lane_head_ = n->pool_next;
      if (lane_head_ == nullptr) lane_tail_ = nullptr;
      return n;
    }
    const bool ok = settle();
    assert(ok);
    (void)ok;
    EventNode* n = cur_.front().node;
    heap_pop(cur_);
    return n;
  }

  static constexpr Time kMaxTime =
      std::numeric_limits<Time>::max();  // sentinel for "queue empty"

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    EventNode* node;

    bool less_than(const Entry& o) const {
      if (t != o.t) return t < o.t;
      return seq < o.seq;
    }
  };

  Time cursor_end() const {  // end of the current bucket window
    return base_ + static_cast<Time>(cursor_ + 1) * kBucketWidth;
  }

  void place(EventNode* n) {  // files a wheel event
    const Time t = n->t;
    if (t < cursor_end()) {
      heap_push(cur_, Entry{t, n->seq, n});
    } else if (t < base_ + kHorizon) {
      ring_[static_cast<std::size_t>((t - base_) >> kBucketShift)].push_back(
          n);
      ++ring_count_;
    } else if (t < base1_ + kSpan) {
      slots_[static_cast<std::size_t>((t - base1_) >> kHorizonShift)]
          .push_back(n);
      ++slot_count_;
    } else {
      heap_push(overflow_, Entry{t, n->seq, n});
    }
  }

  // True if the lane head precedes every wheel event. A head inside the
  // current bucket window wins without settling: advancing the wheel early
  // would push what the lane's callbacks schedule next into the live heap.
  bool lane_first() {
    if (lane_head_ == nullptr) return false;
    if (cur_.empty() && (lane_head_->t < cursor_end() || !settle())) {
      return true;
    }
    const Entry& w = cur_.front();
    return lane_head_->t < w.t ||
           (lane_head_->t == w.t && lane_head_->seq < w.seq);
  }

  // Ensures cur_ holds the wheel's minimum. Returns false if the wheel is
  // empty.
  bool settle() {
    while (cur_.empty()) {
      if (ring_count_ > 0) {
        // Advance to the next nonempty bucket and make it current.
        std::size_t idx = cursor_ + 1;
        while (ring_[idx].empty()) ++idx;  // ring_count_ > 0 guarantees hit
        cursor_ = idx;
        adopt_bucket(idx);
      } else if (slot_count_ > 0) {
        std::size_t k = cursor1_ + 1;
        while (slots_[k].empty()) ++k;  // slot_count_ > 0 guarantees hit
        descend(k);
      } else if (!overflow_.empty()) {
        rebase();
      } else {
        return false;
      }
    }
    return true;
  }

  void adopt_bucket(std::size_t idx) {
    std::vector<EventNode*>& b = ring_[idx];
    ring_count_ -= b.size();
    cur_.reserve(b.size());
    for (EventNode* n : b) cur_.push_back(Entry{n->t, n->seq, n});
    b.clear();
    // Bottom-up heapify: O(n) vs n heap pushes.
    for (std::size_t i = cur_.size() / 2; i-- > 0;) sift_down(cur_, i);
  }

  // Level 0 drained: realign it to level-1 slot k and spread the slot's
  // events into it, releasing the slot's storage (reused only after a
  // rebase).
  void descend(std::size_t k) {
    cursor1_ = k;
    base_ = base1_ + static_cast<Time>(k) * kHorizon;
    cursor_ = 0;
    std::vector<EventNode*> slot;
    slot.swap(slots_[k]);
    slot_count_ -= slot.size();
    for (EventNode* n : slot) place(n);
  }

  // Both levels drained: move level 1 to the earliest overflow event.
  void rebase() {
    assert(ring_count_ == 0 && slot_count_ == 0 && cur_.empty());
    base1_ = (overflow_.front().t >> kHorizonShift) << kHorizonShift;
    cursor1_ = 0;
    base_ = base1_;
    cursor_ = 0;
    while (!overflow_.empty() && overflow_.front().t < base1_ + kSpan) {
      EventNode* n = overflow_.front().node;
      heap_pop(overflow_);
      place(n);
    }
  }

  // ---- small binary-heap helpers over vectors of Entry ----
  static void sift_up(std::vector<Entry>& h, std::size_t i) {
    Entry e = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.less_than(h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }
  static void sift_down(std::vector<Entry>& h, std::size_t i) {
    const std::size_t n = h.size();
    Entry e = h[i];
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && h[child + 1].less_than(h[child])) ++child;
      if (!h[child].less_than(e)) break;
      h[i] = h[child];
      i = child;
    }
    h[i] = e;
  }
  static void heap_push(std::vector<Entry>& h, Entry e) {
    h.push_back(e);
    sift_up(h, h.size() - 1);
  }
  static void heap_pop(std::vector<Entry>& h) {
    h.front() = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(h, 0);
  }

  EventNode* lane_head_ = nullptr;  // zero-delay FIFO, (t, seq)-sorted
  EventNode* lane_tail_ = nullptr;
  std::vector<std::vector<EventNode*>> ring_;   // level 0
  std::vector<std::vector<EventNode*>> slots_;  // level 1
  std::vector<Entry> cur_;       // current bucket, (t, seq) min-heap
  std::vector<Entry> overflow_;  // beyond level 1, (t, seq) min-heap
  Time base_ = 0;                // level-0 start (slot cursor1_ of level 1)
  Time base1_ = 0;               // level-1 start (horizon-aligned)
  std::size_t cursor_ = 0;       // current bucket index
  std::size_t cursor1_ = 0;      // level-1 slot that level 0 covers
  std::size_t ring_count_ = 0;   // events parked in ring_ (excluding cur_)
  std::size_t slot_count_ = 0;   // events parked in slots_
  std::size_t size_ = 0;
};

}  // namespace sim
