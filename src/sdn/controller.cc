#include "sdn/controller.h"

#include <algorithm>
#include <stdexcept>

namespace sdn {

Controller::Controller(sim::EventLoop& loop, ControllerConfig config)
    : loop_(loop), config_(config) {
  if (config_.num_shards == 0) {
    throw std::invalid_argument("Controller: num_shards must be >= 1");
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(loop_));
  }
}

void Controller::broadcast_push(std::uint32_t vni, net::Gid vgid,
                                net::Gid pgid) {
  const std::size_t shard = shard_of(vni, vgid);
  if (!shards_[shard]->reachable) {
    pending_broadcasts_.push_back(
        {shard, [this, vni, vgid, pgid] {
           for (const auto& [id, fn] : subscribers_) fn(vni, vgid, pgid);
         }});
    return;
  }
  for (const auto& [id, fn] : subscribers_) fn(vni, vgid, pgid);
}

void Controller::broadcast_invalidate(std::uint32_t vni, net::Gid vgid) {
  const std::size_t shard = shard_of(vni, vgid);
  if (!shards_[shard]->reachable) {
    pending_broadcasts_.push_back(
        {shard, [this, vni, vgid] {
           for (const auto& [id, fn] : invalidate_subscribers_) fn(vni, vgid);
         }});
    return;
  }
  for (const auto& [id, fn] : invalidate_subscribers_) fn(vni, vgid);
}

void Controller::register_vgid(std::uint32_t vni, net::Gid vgid,
                               net::Gid pgid) {
  shard_for(vni, vgid).table[VirtKey{vni, vgid}] = pgid;
  broadcast_push(vni, vgid, pgid);
}

void Controller::unregister_vgid(std::uint32_t vni, net::Gid vgid) {
  // Only broadcast if this call actually removed a live entry; a released
  // vBond whose successor already re-registered must not clobber the
  // successor's mapping in downstream caches.
  if (shard_for(vni, vgid).table.erase(VirtKey{vni, vgid}) > 0) {
    broadcast_invalidate(vni, vgid);
  }
}

std::optional<net::Gid> Controller::lookup(std::uint32_t vni,
                                           net::Gid vgid) const {
  const auto& table = shards_[shard_of(vni, vgid)]->table;
  auto it = table.find(VirtKey{vni, vgid});
  if (it == table.end()) return std::nullopt;
  return it->second;
}

sim::Task<void> Controller::charge_query_path(Shard& s, std::size_t keys) {
  // Zero service budget models an infinitely fast query server: skip the
  // queue entirely so the default configuration reproduces the
  // pre-sharding cost model (and its event trace) exactly.
  if (config_.query_service > 0 && keys > 0) {
    s.max_queue_depth = std::max(s.max_queue_depth, s.queue.depth() + 1);
    co_await s.queue.submit(config_.query_service *
                            static_cast<sim::Time>(keys));
  }
  co_await sim::delay(loop_, config_.query_rtt);
}

sim::Task<Controller::QueryReply> Controller::query_ex(std::uint32_t vni,
                                                       net::Gid vgid) {
  Shard& s = shard_for(vni, vgid);
  // The service + RTT cost is charged either way: when the shard is down it
  // models the querier's detection timeout, so an outage slows callers
  // instead of answering instantly-wrong. Reachability is sampled after
  // the round trip — the answer reflects the shard's state when the reply
  // would have arrived.
  co_await charge_query_path(s, 1);
  if (!s.reachable) {
    ++s.unreachable_queries;
    co_return QueryReply{true, std::nullopt};
  }
  ++s.queries;
  co_return QueryReply{false, lookup(vni, vgid)};
}

sim::Task<std::vector<Controller::QueryReply>> Controller::query_batch(
    std::size_t shard, std::vector<VirtKey> keys) {
  Shard& s = *shards_.at(shard);
  std::vector<QueryReply> replies;
  replies.reserve(keys.size());
  co_await charge_query_path(s, keys.size());
  for (const VirtKey& key : keys) {
    if (shard_of(key.vni, key.vgid) != shard) {
      throw std::logic_error("query_batch: key routed to the wrong shard");
    }
    if (!s.reachable) {
      ++s.unreachable_queries;
      replies.push_back(QueryReply{true, std::nullopt});
    } else {
      ++s.queries;
      ++s.batched_queries;
      replies.push_back(QueryReply{false, lookup(key.vni, key.vgid)});
    }
  }
  co_return replies;
}

bool Controller::reachable() const {
  for (const auto& s : shards_) {
    if (!s->reachable) return false;
  }
  return true;
}

std::uint64_t Controller::unreachable_queries() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->unreachable_queries;
  return n;
}

std::size_t Controller::table_size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->table.size();
  return n;
}

std::uint64_t Controller::queries_served() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->queries;
  return n;
}

std::size_t Controller::shard_pending_broadcasts(std::size_t shard) const {
  std::size_t n = 0;
  for (const auto& p : pending_broadcasts_) {
    if (p.shard == shard) ++n;
  }
  return n;
}

void Controller::set_reachable(bool reachable) {
  bool changed = false;
  for (const auto& s : shards_) {
    if (s->reachable != reachable) {
      s->reachable = reachable;
      changed = true;
    }
  }
  if (!changed || !reachable) return;
  // Whole-controller recovery: replay every buffered broadcast in its
  // original global order so caches converge to the same state as an
  // outage-free run (and as the single-shard reference).
  std::vector<PendingBroadcast> pending;
  pending.swap(pending_broadcasts_);
  for (auto& p : pending) p.fn();
}

void Controller::set_shard_reachable(std::size_t shard, bool reachable) {
  Shard& s = *shards_.at(shard);
  if (s.reachable == reachable) return;
  s.reachable = reachable;
  if (!reachable) return;
  // Partition recovery: replay only this shard's buffered broadcasts,
  // chronologically; other downed shards keep theirs buffered.
  std::vector<PendingBroadcast> keep;
  std::vector<PendingBroadcast> replay;
  keep.reserve(pending_broadcasts_.size());
  for (auto& p : pending_broadcasts_) {
    (p.shard == shard ? replay : keep).push_back(std::move(p));
  }
  pending_broadcasts_ = std::move(keep);
  for (auto& p : replay) p.fn();
}

bool Controller::is_virtual_gid(net::Gid vgid) const {
  for (const auto& s : shards_) {
    for (const auto& [key, pgid] : s->table) {
      if (key.vgid == vgid) return true;
    }
  }
  return false;
}

MappingCache::MappingCache(sim::EventLoop& loop, Controller& controller,
                           CacheConfig config)
    : loop_(loop),
      controller_(controller),
      config_(config),
      degraded_by_shard_(controller.num_shards(), 0) {
  if (config_.batch_window > 0) lanes_.resize(controller_.num_shards());
  push_sub_ = controller_.subscribe(
      [this](std::uint32_t vni, net::Gid vgid, net::Gid pgid) {
        on_push(vni, vgid, pgid);
      });
  invalidate_sub_ = controller_.subscribe_invalidate(
      [this](std::uint32_t vni, net::Gid vgid) { invalidate(vni, vgid); });
}

MappingCache::~MappingCache() {
  controller_.unsubscribe(push_sub_);
  controller_.unsubscribe_invalidate(invalidate_sub_);
}

void MappingCache::on_push(std::uint32_t vni, net::Gid vgid, net::Gid pgid) {
  if (config_.insert_pushes) {
    insert(vni, vgid, pgid);
    ++prefills_;
    return;
  }
  const VirtKey key{vni, vgid};
  // A (re-)registered key must not stay negatively cached until TTL
  // expiry — the controller just vouched for it.
  negative_.erase(key);
  // Refresh only what we already hold.
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second = Entry{pgid, loop_.now()};
  }
}

void MappingCache::resolve(std::uint32_t vni, net::Gid vgid, Lookup& lookup) {
  const VirtKey key{vni, vgid};
  lookup.key = key;
  lookup.reply = {};
  lookup.error = nullptr;
  auto it = cache_.find(key);
  if (it != cache_.end() && fault_probe_ &&
      fault_probe_(VirtKeyHash{}(key))) {
    // Injected expiry/corruption: drop the entry and fall through to the
    // miss path as if it had never been cached.
    cache_.erase(it);
    it = cache_.end();
    ++fault_expirations_;
  }
  if (it != cache_.end()) {
    // Served as found: an invalidation or a compaction during the hit
    // cost must not change what this lookup returns.
    const Entry entry = it->second;
    // Reachability is judged per shard: an outage of one partition must
    // not push hits on healthy partitions into degraded mode.
    if (controller_.reachable_for(vni, vgid)) {
      ++hits_;
      serve_local(lookup, Resolution{ResolveStatus::kOk, entry.pgid});
      return;
    }
    // Degraded mode: the key's shard cannot confirm, but a recently
    // confirmed mapping is overwhelmingly likely still valid — serve it,
    // bounded, and count it (globally and against the downed shard).
    // Entries past the bound are *not* served: better a fast kUnavailable
    // than a rename to a stale peer.
    const sim::Time age = loop_.now() - entry.confirmed_at;
    if (age <= kStalenessBound) {
      ++degraded_serves_;
      ++degraded_by_shard_[controller_.shard_of(vni, vgid)];
      max_served_staleness_ = std::max(max_served_staleness_, age);
      serve_local(lookup, Resolution{ResolveStatus::kOkDegraded, entry.pgid});
      return;
    }
    ++unavailable_;
    serve_local(lookup, Resolution{ResolveStatus::kUnavailable, std::nullopt});
    return;
  }
  // Bounded negative cache: a recently-confirmed-absent key is answered
  // locally instead of hammering the controller.
  auto nit = negative_.find(key);
  if (nit != negative_.end()) {
    if (loop_.now() < nit->second) {
      ++negative_hits_;
      serve_local(lookup, Resolution{ResolveStatus::kNotFound, std::nullopt});
      return;
    }
    negative_.erase(nit);
  }
  // Single-flight: if a query for this key is already on the wire, ride it
  // instead of issuing another controller RTT.
  auto fit = inflight_.find(key);
  if (fit != inflight_.end()) {
    ++coalesced_;
    fit->second.push_back(&lookup);
    return;
  }
  ++misses_;
  inflight_.emplace(key);
  poisoned_.erase(key);
  if (!lanes_.empty()) {
    park(&lookup);
  } else {
    // Started inline, so the query schedules exactly what awaiting it
    // from the caller's own frame would.
    loop_.spawn_inline(query_controller(this, &lookup, liveness_));
  }
}

void MappingCache::serve_local(Lookup& lookup, Resolution r) {
  // A free hit schedules nothing, which the zero-cost storm pins hold.
  if (config_.hit_cost <= 0) {
    lookup.resolved(r);
  } else {
    loop_.schedule_after(config_.hit_cost,
                         [&lookup, r] { lookup.resolved(r); });
  }
}

sim::Task<void> MappingCache::query_controller(
    MappingCache* self, Lookup* leader, std::weak_ptr<const char> alive) {
  try {
    leader->reply =
        co_await self->controller_.query_ex(leader->key.vni, leader->key.vgid);
  } catch (...) {
    leader->error = std::current_exception();
  }
  if (!alive.expired()) self->answer(*leader);
}

void MappingCache::park(Lookup* miss) {
  const std::size_t shard = controller_.shard_of(miss->key.vni, miss->key.vgid);
  Lane& lane = lanes_[shard];
  lane.pending.push_back(miss);
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

sim::Task<void> MappingCache::flush_lane(MappingCache* self,
                                         std::size_t shard,
                                         std::weak_ptr<const char> alive) {
  // The loop outlives the cache; the parked records belong to callers.
  sim::EventLoop& loop = self->loop_;
  // Answers a parked miss one zero-delay event later, as a Promise wake
  // would, unless the cache died in between.
  auto wake = [&loop, self, &alive](Lookup* m) {
    loop.schedule_after(0, [self, m, alive] {
      if (!alive.expired()) self->answer(*m);
    });
  };
  while (true) {
    if (alive.expired()) co_return;
    Lane& lane = self->lanes_[shard];
    if (lane.pending.empty()) {
      // Drained. Clearing the flag here (with no suspension since the
      // emptiness check) is what keeps "at most one flush per lane" true.
      lane.flush_active = false;
      co_return;
    }
    const std::size_t n = std::min(lane.pending.size(), kMaxBatch);
    const auto split = lane.pending.begin() + static_cast<std::ptrdiff_t>(n);
    std::vector<Lookup*> chunk(lane.pending.begin(), split);
    lane.pending.erase(lane.pending.begin(), split);
    std::vector<VirtKey> keys;
    keys.reserve(n);
    for (const Lookup* m : chunk) keys.push_back(m->key);
    ++self->batches_;
    self->batched_keys_ += n;
    std::vector<Controller::QueryReply> replies;
    bool failed = false;
    try {
      replies = co_await self->controller_.query_batch(shard, std::move(keys));
    } catch (...) {
      // Propagate to every leader riding this batch; answer() forwards
      // the exception to its followers.
      for (Lookup* m : chunk) {
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

void MappingCache::answer(Lookup& leader) {
  const VirtKey key = leader.key;
  const Controller::QueryReply& reply = leader.reply;
  std::vector<Lookup*> followers = std::move(inflight_.at(key));
  inflight_.erase(key);
  Resolution result;
  if (leader.error) {
    poisoned_.erase(key);
    for (Lookup* f : followers) f->error = leader.error;
  } else if (reply.unreachable) {
    // No verdict either way: do NOT install a negative entry (the key may
    // exist), just report unavailable. Callers retry with backoff.
    ++unavailable_;
    result = Resolution{ResolveStatus::kUnavailable, std::nullopt};
    poisoned_.erase(key);
  } else {
    result = reply.pgid
                 ? Resolution{ResolveStatus::kOk, reply.pgid}
                 : Resolution{ResolveStatus::kNotFound, std::nullopt};
    // Install the verdict — unless the key was invalidated mid-flight, in
    // which case the result may already be stale and must not be cached
    // (followers still get the answer their query observed).
    if (!poisoned_.erase(key)) {
      if (reply.pgid) {
        cache_[key] = Entry{*reply.pgid, loop_.now()};
      } else {
        if (negative_.size() >= kMaxNegativeEntries) negative_.clear();
        negative_[key] = loop_.now() + kNegativeTtl;
      }
    }
  }
  // One zero-delay wake per follower, in arrival order, all scheduled
  // before the leader's answer runs (and whatever it schedules).
  for (Lookup* f : followers) {
    loop_.schedule_after(0, [f, result] { f->resolved(result); });
  }
  leader.resolved(result);
}

void MappingCache::for_each_entry(
    const std::function<void(const VirtKey&, net::Gid, sim::Time)>& fn)
    const {
  std::vector<std::pair<VirtKey, Entry>> entries;
  entries.reserve(cache_.size());
  for (const auto& [key, e] : cache_) {
    entries.emplace_back(key, e);
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.vni, a.first.vgid) <
           std::tie(b.first.vni, b.first.vgid);
  });
  for (const auto& [key, e] : entries) fn(key, e.pgid, e.confirmed_at);
}

void MappingCache::corrupt_entry_for_test(std::uint32_t vni, net::Gid vgid,
                                          net::Gid pgid) {
  cache_[VirtKey{vni, vgid}] = Entry{pgid, loop_.now()};
}

void MappingCache::insert(std::uint32_t vni, net::Gid vgid, net::Gid pgid) {
  const VirtKey key{vni, vgid};
  cache_[key] = Entry{pgid, loop_.now()};
  negative_.erase(key);
}

void MappingCache::invalidate(std::uint32_t vni, net::Gid vgid) {
  const VirtKey key{vni, vgid};
  cache_.erase(key);
  negative_.erase(key);
  if (inflight_.count(key) > 0) poisoned_.insert(key);
}

}  // namespace sdn
