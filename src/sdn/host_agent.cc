#include "sdn/host_agent.h"

#include <algorithm>
#include <utility>

namespace sdn {

HostAgent::HostAgent(sim::EventLoop& loop, Controller& controller,
                     HostAgentConfig config)
    : loop_(loop),
      controller_(controller),
      config_(config),
      cache_(loop, controller, config.cache_hit_cost, config.negative_ttl,
             config.cache_staleness_bound) {
  lanes_.reserve(controller_.num_shards());
  for (std::size_t i = 0; i < controller_.num_shards(); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  // Zero window = pass-through: leave the cache's miss path pointed
  // straight at Controller::query_ex so the event trace is identical to a
  // cache with no agent in front of it.
  if (config_.batch_window > 0) {
    cache_.set_query_fn([this](std::uint32_t vni, net::Gid vgid) {
      return batched_query(vni, vgid);
    });
  }
  if (config_.speculative_prefill) {
    // Warm path (DESIGN.md §14): every register_vgid broadcast is planted
    // straight into the cache — VM boot resolves the peer before the first
    // connect asks. The push callback is synchronous (insert only), so the
    // controller's broadcast timing is unchanged.
    prefill_sub_ = controller_.subscribe(
        [this](std::uint32_t vni, net::Gid vgid, net::Gid pgid) {
          cache_.insert(vni, vgid, pgid);
          ++prefills_;
        });
    prefill_subscribed_ = true;
  }
}

HostAgent::~HostAgent() {
  // Unhook the cache first (it outlives this dtor body as a member) and
  // kill the liveness token so scheduled flushes stand down.
  if (prefill_subscribed_) controller_.unsubscribe(prefill_sub_);
  cache_.set_query_fn(nullptr);
  liveness_.reset();
}

std::size_t HostAgent::max_lane_depth() const {
  std::size_t m = 0;
  for (const auto& lane : lanes_) m = std::max(m, lane->max_depth);
  return m;
}

sim::Task<Controller::QueryReply> HostAgent::batched_query(std::uint32_t vni,
                                                           net::Gid vgid) {
  const std::size_t shard = controller_.shard_of(vni, vgid);
  Lane& lane = *lanes_[shard];
  sim::Promise<Controller::QueryReply> promise(loop_);
  auto fut = promise.get_future();
  lane.pending.push_back(Pending{VirtKey{vni, vgid}, std::move(promise)});
  lane.max_depth = std::max(lane.max_depth, lane.pending.size());
  if (!lane.flush_active) {
    // One flush owner per lane: arrivals during the window (or during a
    // drain already in progress) ride the existing flush. The callback
    // captures the loop by reference directly — `this` may be dead by the
    // time it fires, and only the liveness token can tell.
    lane.flush_active = true;
    loop_.schedule_after(
        config_.batch_window,
        [&loop = loop_, self = this, shard,
         alive = std::weak_ptr<const char>(liveness_)] {
          if (alive.expired()) return;
          loop.spawn(flush_lane(self, shard, std::move(alive)));
        });
  }
  co_return co_await fut;
}

sim::Task<void> HostAgent::flush_lane(HostAgent* self, std::size_t shard,
                                      std::weak_ptr<const char> alive) {
  while (true) {
    if (alive.expired()) co_return;
    Lane& lane = *self->lanes_[shard];
    if (lane.pending.empty()) {
      // Drained. Clearing the flag here (with no suspension since the
      // emptiness check) is what keeps "at most one flush per lane" true.
      lane.flush_active = false;
      co_return;
    }
    const std::size_t n =
        std::min(lane.pending.size(), self->config_.max_batch);
    std::vector<Pending> chunk;
    chunk.reserve(n);
    std::move(lane.pending.begin(), lane.pending.begin() + n,
              std::back_inserter(chunk));
    lane.pending.erase(lane.pending.begin(),
                       lane.pending.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<VirtKey> keys;
    keys.reserve(n);
    for (const Pending& p : chunk) keys.push_back(p.key);
    ++lane.batches;
    ++self->batches_;
    self->batched_keys_ += n;
    std::vector<Controller::QueryReply> replies;
    bool failed = false;
    try {
      replies = co_await self->controller_.query_batch(shard, std::move(keys));
    } catch (...) {
      // Propagate to every leader riding this batch; the cache's leader
      // path forwards the exception to its followers.
      for (Pending& p : chunk) p.reply.set_exception(std::current_exception());
      failed = true;
    }
    if (!failed) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i].reply.set_value(replies[i]);
      }
    }
    // Loop: keys that arrived while the batch was on the wire are flushed
    // immediately — they have already waited at least one window.
  }
}

}  // namespace sdn
