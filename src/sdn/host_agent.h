// Per-host SDN agent (DESIGN.md §12): the FreeFlow-style middle tier
// between a host's MappingCache and the sharded controller.
//
// The agent owns the host's MappingCache and takes over its miss path:
// leader misses (the cache is already single-flight, so there is at most
// one leader per key) are parked in a per-shard lane for a short batch
// window, then flushed to the key's shard as ONE Controller::query_batch —
// so a connection storm from V co-located VMs pays one shard round trip
// per (host, shard, window) instead of one per VM. With a zero window the
// agent degenerates to pass-through (identical event trace to the
// pre-agent backend), which is the default for the calibrated 2-host
// testbed.
//
// Invariant the scale tests lean on: at most one query_batch per
// (agent, shard) is in flight — the next window's flush cannot start until
// the previous one drained its lane — so a shard's service-queue depth is
// bounded by the number of hosts, not the number of VMs.
//
// Degraded-mode semantics stay per shard and live in the MappingCache
// (reachable_for / per-shard degraded counters); the agent only changes
// *how* misses travel, never what they mean.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sdn/controller.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace sdn {

struct HostAgentConfig {
  sim::Time cache_hit_cost = sim::microseconds(2);     // §3.3.1
  sim::Time negative_ttl = sim::milliseconds(1);
  sim::Time cache_staleness_bound = sim::seconds(5);   // degraded mode
  // How long a leader miss waits in its shard lane for company before the
  // lane is flushed. 0 = pass-through (no batching, no added latency).
  sim::Time batch_window = 0;
  // Largest number of keys flushed in one query_batch; a lane holding more
  // drains in successive batches (still one in flight at a time).
  std::size_t max_batch = 64;
  // Speculative resolution (DESIGN.md §14): subscribe this agent's cache to
  // the controller's push channel, so a VM-boot register_vgid lands in the
  // cache before the first connection ever asks for it. Off by default —
  // the miss path then stays bit-identical to the pre-warm-path engine.
  bool speculative_prefill = false;
};

class HostAgent : private MappingCache::MissBatcher {
 public:
  HostAgent(sim::EventLoop& loop, Controller& controller,
            HostAgentConfig config = {});
  ~HostAgent();
  HostAgent(const HostAgent&) = delete;
  HostAgent& operator=(const HostAgent&) = delete;

  // The host's cache; resolve()/resolve_ex() on it route leader misses
  // through this agent's batching lanes (when a window is configured).
  MappingCache& cache() { return cache_; }
  const MappingCache& cache() const { return cache_; }

  sim::Task<std::optional<net::Gid>> resolve(std::uint32_t vni,
                                             net::Gid vgid) {
    return cache_.resolve(vni, vgid);
  }
  MappingCache::Awaiter resolve_ex(std::uint32_t vni, net::Gid vgid) {
    return cache_.resolve_ex(vni, vgid);
  }

  Controller& controller() { return controller_; }
  const HostAgentConfig& config() const { return config_; }

  // ---- telemetry ----
  // query_batch round trips issued / keys they carried. keys/batches is
  // the amortization factor the agent buys.
  std::uint64_t batches() const { return batches_; }
  std::uint64_t batched_keys() const { return batched_keys_; }
  // Mappings the push channel planted in the cache ahead of any miss
  // (speculative_prefill only).
  std::uint64_t prefills() const { return prefills_; }
  std::uint64_t shard_batches(std::size_t shard) const {
    return lanes_.at(shard)->batches;
  }
  // High-water mark of keys parked in one shard lane.
  std::size_t max_lane_depth() const;

 private:
  struct Lane {
    // Leader misses parked as their callers' Lookup records, in arrival
    // order.
    std::vector<MappingCache::Lookup*> pending;
    // One flush (scheduled or draining) at a time; also what bounds the
    // shard's service-queue depth to one entry per host.
    bool flush_active = false;
    std::uint64_t batches = 0;
    std::size_t max_depth = 0;
  };

  // MappingCache::MissBatcher: parks the leader miss in its shard's lane
  // and wakes the lane's flusher.
  void park(MappingCache::Lookup* miss) override;
  // Drains one lane: repeated (chunk, query_batch, distribute) until the
  // lane is empty; each parked miss gets its reply and a zero-delay
  // MappingCache::answer(). Spawned detached; guarded by the liveness
  // token.
  static sim::Task<void> flush_lane(HostAgent* self, std::size_t shard,
                                    std::weak_ptr<const char> alive);

  sim::EventLoop& loop_;
  Controller& controller_;
  HostAgentConfig config_;
  MappingCache cache_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  Controller::SubId prefill_sub_ = 0;
  bool prefill_subscribed_ = false;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_keys_ = 0;
  std::uint64_t prefills_ = 0;
  // Scheduled flush callbacks outlive the agent if the loop drains after
  // teardown; they stand down once this token dies.
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>(0);
};

}  // namespace sdn
