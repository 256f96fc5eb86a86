#include "sim/event_loop.h"

#include <cassert>
#include <stdexcept>

#include "sim/task.h"

namespace sim {

namespace {

using RootHandle = std::coroutine_handle<Task<void>::promise_type>;

RootHandle root_handle(void* addr) { return RootHandle::from_address(addr); }

}  // namespace

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  // The loop owns every spawned frame, finished or not.
  for (void* addr : roots_) root_handle(addr).destroy();
}

void EventLoop::schedule_at(Time t, Callback cb) {
  if (t < now_) t = now_;
  EventNode* n = pool_.acquire();
  n->t = t;
  n->seq = seq_++;
  n->cb = std::move(cb);
  queue_.push(n, now_);
}

void EventLoop::schedule_after(Time delay, Callback cb) {
  if (delay < 0) delay = 0;
  schedule_at(now_ + delay, std::move(cb));
}

void EventLoop::attach(EventSource& source) {
  assert(source_ == nullptr);
  if (source.head_time() != EventSource::kDone) source_ = &source;
}

void EventLoop::step() {
  if (source_ != nullptr && source_leads()) {
    EventSource& s = *source_;
    begin_event(s.head_time(), s.head_seq());
    s.fire();
    if (s.head_time() == EventSource::kDone) source_ = nullptr;
  } else {
    EventNode* n = queue_.pop();
    begin_event(n->t, n->seq);
    // Move the callback out and recycle the node *before* invoking: the
    // callback may schedule new events, and the freshest node is the one
    // most likely to still be in cache.
    Callback cb = std::move(n->cb);
    n->cb = nullptr;
    pool_.release(n);
    cb();
  }
  if (audit_hook_ && executed_ % audit_every_ == 0) audit_hook_();
}

// Out of line: inlined into step(), this test and the wheel settling it
// may do slowed step()'s node path by about 30% in the event-core
// microbench (bench/suite's sim.micro_ns_per_event), with no source
// attached.
[[gnu::noinline]] bool EventLoop::source_leads() {
  return !queue_.precedes(source_->head_time(), source_->head_seq());
}

Time EventLoop::next_time() {
  const Time q = queue_.next_time();
  if (source_ == nullptr) return q;
  return source_->head_time() < q ? source_->head_time() : q;
}

Time EventLoop::run() {
  while (!empty()) {
    step();
    if ((executed_ & 0x3ff) == 0) reap_finished_tasks();
  }
  reap_finished_tasks();
  return now_;
}

void EventLoop::run_until(Time deadline) {
  if (deadline < now_) return;
  while (next_time() <= deadline) {
    step();
    if ((executed_ & 0x3ff) == 0) reap_finished_tasks();
  }
  now_ = deadline;
  reap_finished_tasks();
}

void* EventLoop::adopt_root(Task<void> task) {
  if (!task.valid() || task.done()) return nullptr;
  RootHandle handle = task.release();
  handle.promise().root_owner = this;
  handle.promise().root_index = roots_.size();
  roots_.push_back(handle.address());
  return handle.address();
}

void EventLoop::spawn(Task<void> task) {
  if (void* addr = adopt_root(std::move(task))) {
    schedule_after(0, [handle = root_handle(addr)] { handle.resume(); });
  }
}

void EventLoop::spawn_inline(Task<void> task) {
  if (void* addr = adopt_root(std::move(task))) root_handle(addr).resume();
}

void EventLoop::reap_finished_tasks() {
  if (finished_roots_.empty()) return;
  std::exception_ptr first_error;
  for (void* addr : finished_roots_) {
    RootHandle handle = root_handle(addr);
    if (!first_error && handle.promise().error) {
      first_error = handle.promise().error;
    }
    // Swap-erase from the root table, fixing up the moved frame's index.
    const std::size_t i = handle.promise().root_index;
    assert(i < roots_.size() && roots_[i] == addr);
    roots_[i] = roots_.back();
    root_handle(roots_[i]).promise().root_index = i;
    roots_.pop_back();
    handle.destroy();
  }
  finished_roots_.clear();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sim
