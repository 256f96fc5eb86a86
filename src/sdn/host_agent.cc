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
  if (config_.batch_window > 0) cache_.set_miss_batcher(this);
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
  cache_.set_miss_batcher(nullptr);
  liveness_.reset();
}

std::size_t HostAgent::max_lane_depth() const {
  std::size_t m = 0;
  for (const auto& lane : lanes_) m = std::max(m, lane->max_depth);
  return m;
}

void HostAgent::park(MappingCache::Lookup* miss) {
  const std::size_t shard = controller_.shard_of(miss->key.vni, miss->key.vgid);
  Lane& lane = *lanes_[shard];
  lane.pending.push_back(miss);
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
}

sim::Task<void> HostAgent::flush_lane(HostAgent* self, std::size_t shard,
                                      std::weak_ptr<const char> alive) {
  // The loop outlives the agent; the parked records belong to callers.
  sim::EventLoop& loop = self->loop_;
  MappingCache& cache = self->cache_;
  // Answers a parked miss one zero-delay event later, as a Promise wake
  // would.
  auto wake = [&loop, &cache](MappingCache::Lookup* m) {
    loop.schedule_after(0, [&cache, m] { cache.answer(*m); });
  };
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
    const auto split = lane.pending.begin() + static_cast<std::ptrdiff_t>(n);
    std::vector<MappingCache::Lookup*> chunk(lane.pending.begin(), split);
    lane.pending.erase(lane.pending.begin(), split);
    std::vector<VirtKey> keys;
    keys.reserve(n);
    for (const MappingCache::Lookup* m : chunk) keys.push_back(m->key);
    ++lane.batches;
    ++self->batches_;
    self->batched_keys_ += n;
    std::vector<Controller::QueryReply> replies;
    bool failed = false;
    try {
      replies = co_await self->controller_.query_batch(shard, std::move(keys));
    } catch (...) {
      // Propagate to every leader riding this batch; answer() forwards
      // the exception to its followers.
      for (MappingCache::Lookup* m : chunk) {
        m->error = std::current_exception();
        wake(m);
      }
      failed = true;
    }
    if (!failed) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i]->reply = replies[i];
        wake(chunk[i]);
      }
    }
    // Loop: keys that arrived while the batch was on the wire are flushed
    // immediately — they have already waited at least one window.
  }
}

}  // namespace sdn
