// Single-server FIFO resource: items are served one at a time, each
// occupying the server for its service time. Models serial hardware
// pipelines (an RNIC's WQE engine, an FFR forwarding core).
#pragma once

#include <cstdint>
#include <deque>

#include "sim/event_loop.h"
#include "sim/task.h"
#include "sim/time.h"

namespace sim {

class ServiceQueue {
 public:
  explicit ServiceQueue(EventLoop& loop) : loop_(loop) {}

  // Completes when this item's service finishes (FIFO order).
  Future<bool> submit(Time service_time) {
    Promise<bool> p(loop_);
    auto fut = p.get_future();
    queue_.push_back(Item{service_time, std::move(p)});
    if (!busy_) serve_next();
    return fut;
  }

  std::size_t depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  bool busy() const { return busy_; }
  std::uint64_t items_served() const { return served_; }

 private:
  struct Item {
    Time service_time;
    Promise<bool> done;
  };

  void serve_next() {
    if (queue_.empty()) return;
    busy_ = true;
    Item item = std::move(queue_.front());
    queue_.pop_front();
    loop_.schedule_after(item.service_time,
                         [this, p = std::move(item.done)]() mutable {
                           ++served_;
                           p.set_value(true);
                           busy_ = false;
                           serve_next();
                         });
  }

  EventLoop& loop_;
  std::deque<Item> queue_;
  bool busy_ = false;
  std::uint64_t served_ = 0;
};

}  // namespace sim
