#include "fabric/scale.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fabric/storm_schedule.h"
#include "fabric/traffic.h"
#include "net/addr.h"
#include "sdn/controller.h"
#include "sim/arena.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace fabric {

namespace {

// ---- warm-path model (DESIGN.md §14) ----
// Analytic state only — no timer events — so the model is a pure function
// of each connect's virtual start time and warm-off runs keep their event
// stream. Token bucket: pre-staged QP/CQ ladders per VM. Parked pair: an
// RTS QP kept warm toward one peer generation until its idle TTL.
constexpr std::uint64_t kWarmPool = 4;  // tokens a VM boots with
constexpr sim::Time kWarmRefill = sim::microseconds(50);
constexpr sim::Time kWarmReuseTtl = sim::milliseconds(5);

struct WarmTokens {
  std::uint64_t tokens = 0;
  sim::Time last = 0;  // restock clock (advanced by whole refill periods)
};
struct ParkedConn {
  std::uint32_t gen = 0;  // peer vGID generation the QP is bound to
  sim::Time expires = 0;  // lazy idle-timeout reclaim deadline
};

// Lazy restock + take: tokens refill one per kWarmRefill of elapsed
// virtual time — the background refill with no events of its own, so
// enabling warm changes latencies but never injects extra loop events.
bool take_warm_token(WarmTokens& w, sim::Time now) {
  if (w.tokens >= kWarmPool) {
    w.last = now;  // full pool: the refill clock idles
  } else {
    const std::uint64_t earned =
        static_cast<std::uint64_t>((now - w.last) / kWarmRefill);
    const std::uint64_t add = std::min(earned, kWarmPool - w.tokens);
    w.tokens += add;
    w.last += kWarmRefill * static_cast<sim::Time>(add);
    if (w.tokens >= kWarmPool) w.last = now;
  }
  if (w.tokens == 0) return false;
  --w.tokens;
  return true;
}

struct Driver;

// A cold connect waiting on its peer's mapping. In the 100k-VM storm
// ~140k of them wait at once, so each is a 96-byte record from
// Driver::attempts and no coroutine frame.
struct Attempt final : sdn::MappingCache::Lookup {
  Driver* d = nullptr;
  sim::Time t0 = 0;
  std::uint64_t pair = 0;  // src * vms + dst
  std::uint32_t src = 0;
  std::uint32_t dst_gen = 0;  // the peer's vGID generation at the start
  Attempt* pool_next = nullptr;  // sim::NodePool free list

  void resolved(sdn::MappingCache::Resolution res) override;
};

// The whole storm lives in one Driver so the callbacks below can take a
// raw pointer; the Driver outlives the loop it drives.
struct Driver {
  const ScaleConfig& cfg;
  sim::EventLoop loop;
  sdn::Controller controller;
  std::vector<std::unique_ptr<sdn::MappingCache>> caches;  // one per host
  // Per-VM vGID generation: bumped by each vBond IP change; the current
  // vGID of VM g is gid_of(g, gen[g]).
  std::vector<std::uint32_t> gen;
  sim::NodePool<Attempt> attempts;  // connects waiting on a resolve
  sim::Stats setup_us;  // completed (ok/degraded) setups only
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t not_found = 0;
  std::uint64_t attempted = 0;
  // Warm-path state (cfg.warm only; empty otherwise).
  std::vector<WarmTokens> warm_vm;
  sim::FlatMap<std::uint64_t, ParkedConn> parked;  // key: src*vms + dst
  std::uint64_t warm_pooled = 0;
  std::uint64_t warm_reused = 0;
  std::uint64_t warm_cold = 0;

  explicit Driver(const ScaleConfig& c)
      : cfg(c),
        controller(loop,
                   sdn::ControllerConfig{
                       .query_rtt = c.query_rtt,
                       .num_shards = c.shards,
                       .query_service = c.query_service,
                   }),
        gen(c.hosts * c.vms_per_host, 0) {
    for (std::size_t h = 0; h < c.hosts; ++h) {
      caches.push_back(std::make_unique<sdn::MappingCache>(
          loop, controller,
          sdn::CacheConfig{
              .hit_cost = c.cache_hit_cost,
              .batch_window = c.batch_window,
              .insert_pushes = c.warm,
          }));
    }
    if (c.warm) warm_vm.assign(total_vms(), WarmTokens{kWarmPool, 0});
  }

  // Topology arithmetic lives in fabric/storm_schedule.h, shared with the
  // traffic phase.
  std::size_t total_vms() const { return storm::total_vms(cfg); }
  std::size_t host_of(std::size_t vm) const { return storm::host_of(cfg, vm); }
  std::size_t tenant_of(std::size_t vm) const {
    return storm::tenant_of(cfg, vm);
  }
  std::uint32_t vni_of(std::size_t vm) const { return storm::vni_of(cfg, vm); }
  net::Gid gid_of(std::size_t vm, std::uint32_t generation) const {
    return storm::gid_of(vm, generation);
  }
  net::Gid pgid_of_host(std::size_t h) const {
    return storm::pgid_of_host(h);
  }

  void register_vm(std::size_t vm) {
    controller.register_vgid(vni_of(vm), gid_of(vm, gen[vm]),
                             pgid_of_host(host_of(vm)));
  }

  // Runs `step` `delay` from now. A delay <= 0 runs it inline and
  // schedules nothing, which the zero-cost storm pins hold.
  template <typename F>
  void after(sim::Time delay, F step) {
    if (delay <= 0) {
      step();
    } else {
      loop.schedule_after(delay, std::move(step));
    }
  }

  // Parks the pair's RTS QP warm for the reuse TTL.
  void keep_warm(std::uint64_t pair, std::uint32_t dst_gen) {
    parked.insert_or_assign(
        pair, ParkedConn{dst_gen, loop.now() + kWarmReuseTtl});
  }

  // One connection attempt from `src` to whatever vGID `dst` holds when
  // the attempt starts (a churned peer between scheduling and start is
  // resolved under its *new* identity — exactly what a retrying
  // application would see).
  void connect(std::size_t src, std::size_t dst) {
    ++attempted;
    const sim::Time t0 = loop.now();
    const std::uint32_t dst_gen = gen[dst];
    const std::uint64_t pair =
        static_cast<std::uint64_t>(src) * total_vms() + dst;
    if (cfg.warm) {
      // Connection reuse: a parked RTS QP toward this peer (same vGID
      // generation, inside its idle TTL) skips resolve AND ladder — one
      // application-level hello and the pair is live again.
      auto it = parked.find(pair);
      if (it != parked.end()) {
        const bool live = it->second.expires > t0 && it->second.gen == dst_gen;
        parked.erase(pair);
        if (live) {
          after(cfg.warm_reuse_cost, [this, t0, pair, dst_gen] {
            ++ok;
            ++warm_reused;
            setup_us.add(sim::to_us(loop.now() - t0));
            keep_warm(pair, dst_gen);
          });
          return;
        }
        // Stale (peer churned or idle-reclaimed): fall through cold.
      }
    }
    Attempt& a = *attempts.acquire();
    a.d = this;
    a.t0 = t0;
    a.pair = pair;
    a.src = static_cast<std::uint32_t>(src);
    a.dst_gen = dst_gen;
    caches[host_of(src)]->resolve(vni_of(dst), gid_of(dst, dst_gen), a);
  }

  // vBond IP change: the VM drops its vGID and registers a fresh one. The
  // unregister broadcasts an invalidation into every host cache; the
  // register pushes the new binding.
  void ip_change(std::size_t vm) {
    controller.unregister_vgid(vni_of(vm), gid_of(vm, gen[vm]));
    ++gen[vm];
    register_vm(vm);
  }

  static sim::Task<void> shard_down(Driver* d, std::size_t shard,
                                    sim::Time from, sim::Time until) {
    co_await sim::delay(d->loop, from);
    d->controller.set_shard_reachable(shard, false);
    co_await sim::delay(d->loop, until - from);
    d->controller.set_shard_reachable(shard, true);
  }
};

void Attempt::resolved(sdn::MappingCache::Resolution res) {
  // The record goes back to the pool first; the rest of the attempt needs
  // only these copies.
  Driver& drv = *d;
  const sim::Time start = t0;
  const std::uint64_t key = pair;
  const std::uint32_t from = src;
  const std::uint32_t peer_gen = dst_gen;
  const std::exception_ptr err = error;
  drv.attempts.release(this);
  if (err) std::rethrow_exception(err);
  switch (res.status) {
    case sdn::MappingCache::ResolveStatus::kOk:
    case sdn::MappingCache::ResolveStatus::kOkDegraded: {
      res.status == sdn::MappingCache::ResolveStatus::kOk ? ++drv.ok
                                                          : ++drv.degraded;
      // The rest of the setup ladder (Fig. 15 minus the resolve). A warm
      // token (pre-staged QP at INIT) shrinks it to RTR→RTS.
      sim::Time ladder = drv.cfg.ladder_cost;
      if (drv.cfg.warm) {
        if (take_warm_token(drv.warm_vm[from], drv.loop.now())) {
          ladder = drv.cfg.warm_ladder_cost;
          ++drv.warm_pooled;
        } else {
          ++drv.warm_cold;
        }
      }
      drv.after(ladder, [&drv, start, key, peer_gen] {
        drv.setup_us.add(sim::to_us(drv.loop.now() - start));
        if (drv.cfg.warm) drv.keep_warm(key, peer_gen);
      });
      break;
    }
    case sdn::MappingCache::ResolveStatus::kNotFound:
      ++drv.not_found;
      break;
    case sdn::MappingCache::ResolveStatus::kUnavailable:
      ++drv.unavailable;
      break;
  }
}

// Feeds the schedule's wave connects, IP changes and rule resets to the
// loop as one sim::EventSource (DESIGN.md §13, "Starts as a source"),
// with the (time, seq) keys that launching each entry as two scheduled
// hops gave them. Entry k, in schedule order (wave connects, IP changes,
// rule resets), is two events:
//   * a hop at the clock, keyed by the k-th seq of the block the feed
//     takes when it is built, where the launches took their hops' seqs;
//   * its start, at the clock plus the entry's time, keyed by the seq the
//     loop hands out when the hop runs, as Driver::after took it. A start
//     at t <= 0 runs inline in its hop and takes no seq.
// Every hop runs before every start, so starts of equal time run in hop
// order. A pending start costs a 4-byte seq offset and a 4-byte slot in
// the order, not a 96-byte event node.
class StartFeed final : public sim::EventSource {
 public:
  StartFeed(Driver& d, const storm::StormSchedule& s)
      : d_(d),
        s_(s),
        ips_from_(count32(s.wave_conns.size())),
        resets_from_(count32(s.wave_conns.size() + s.ip_changes.size())),
        entries_(count32(s.wave_conns.size() + s.ip_changes.size() +
                         s.reset_conns.size())),
        clock_(d.loop.now()),
        first_seq_(d.loop.take_seqs(entries_)),
        seq_off_(entries_) {
    // Group the entries that start after the clock by time slot, in entry
    // order (a counting sort). Slots are one level-1 slot of the wheel
    // wide, widened until there are no more slots than entries.
    sim::Time last = 0;
    each_start([&](std::uint32_t, sim::Time when) {
      last = std::max(last, when);
    });
    while ((last >> slot_shift_) > static_cast<sim::Time>(entries_)) {
      ++slot_shift_;
    }
    slot_end_.assign(static_cast<std::size_t>(last >> slot_shift_) + 1, 0);
    each_start([&](std::uint32_t, sim::Time when) {
      if (when > 0) ++slot_end_[slot_of(when)];
    });
    std::uint32_t begin = 0;
    for (std::uint32_t& end : slot_end_) {
      const std::uint32_t n = end;
      end = begin;
      begin += n;
    }
    order_.resize(begin);
    // Each slot's end advances from its begin to its end.
    each_start([&](std::uint32_t k, sim::Time when) {
      if (when > 0) order_[slot_end_[slot_of(when)]++] = k;
    });
    if (entries_ > 0) set_head(clock_, first_seq_);
  }

  void fire() override {
    if (next_hop_ == entries_) {  // a start
      const std::uint32_t k = slot_[pos_++].second;
      show_next_start();
      run(k);
      return;
    }
    const std::uint32_t k = next_hop_++;  // a hop
    const sim::Time when = start_of(k);
    if (when > 0) {
      const std::uint64_t off = d_.loop.take_seqs(1) - first_seq_;
      if (off > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("storm: start seq past the feed's range");
      }
      seq_off_[k] = static_cast<std::uint32_t>(off);
    }
    if (next_hop_ < entries_) {
      set_head(clock_, first_seq_ + next_hop_);
    } else {
      show_next_start();
    }
    if (when <= 0) run(k);
  }

 private:
  static std::uint32_t count32(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("storm: more schedule entries than 2^32");
    }
    return static_cast<std::uint32_t>(n);
  }

  // Calls f(k, start) for every entry k, in entry order.
  template <typename F>
  void each_start(F f) const {
    std::uint32_t k = 0;
    for (const auto& c : s_.wave_conns) f(k++, c.start);
    for (const auto& ch : s_.ip_changes) f(k++, ch.when);
    for (const auto& c : s_.reset_conns) f(k++, c.start);
  }

  sim::Time start_of(std::uint32_t k) const {
    if (k < ips_from_) return s_.wave_conns[k].start;
    if (k < resets_from_) return s_.ip_changes[k - ips_from_].when;
    return s_.reset_conns[k - resets_from_].start;
  }

  std::size_t slot_of(sim::Time when) const {
    return static_cast<std::size_t>(when >> slot_shift_);
  }

  void run(std::uint32_t k) {
    if (k < ips_from_) {
      d_.connect(s_.wave_conns[k].src, s_.wave_conns[k].dst);
    } else if (k < resets_from_) {
      d_.ip_change(s_.ip_changes[k - ips_from_].vm);
    } else {
      const storm::StormSchedule::Conn& c = s_.reset_conns[k - resets_from_];
      d_.connect(c.src, c.dst);
    }
  }

  // Shows the earliest start not yet run, ordering the next nonempty slot
  // by (start, entry) when the current one is used up.
  void show_next_start() {
    while (pos_ == slot_.size()) {
      if (next_slot_ == slot_end_.size()) {
        set_head(kDone, 0);
        return;
      }
      const std::uint32_t from =
          next_slot_ == 0 ? 0 : slot_end_[next_slot_ - 1];
      const std::uint32_t to = slot_end_[next_slot_++];
      slot_.clear();
      pos_ = 0;
      for (std::uint32_t i = from; i < to; ++i) {
        slot_.emplace_back(start_of(order_[i]), order_[i]);
      }
      std::sort(slot_.begin(), slot_.end());
    }
    const auto [when, k] = slot_[pos_];
    set_head(clock_ + when, first_seq_ + seq_off_[k]);
  }

  Driver& d_;
  const storm::StormSchedule& s_;
  const std::uint32_t ips_from_;     // first IP-change entry
  const std::uint32_t resets_from_;  // first rule-reset entry
  const std::uint32_t entries_;
  const sim::Time clock_;         // the hops' time
  const std::uint64_t first_seq_;  // the hop block's first seq
  std::uint32_t next_hop_ = 0;
  std::vector<std::uint32_t> seq_off_;  // entry -> start seq - first_seq_
  // Entries that start after the clock, slot by slot; slot i ends at
  // order_[slot_end_[i]].
  int slot_shift_ = sim::ReadyQueue::kHorizonShift;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> slot_end_;
  std::size_t next_slot_ = 0;
  // The slot being run, as (start, entry) in (time, seq) order.
  std::vector<std::pair<sim::Time, std::uint32_t>> slot_;
  std::size_t pos_ = 0;
};

}  // namespace

ScaleReport run_scale_storm(const ScaleConfig& cfg) {
  Driver d(cfg);
  if (cfg.trace) d.loop.enable_trace();
  const std::size_t vms = d.total_vms();
  for (std::size_t vm = 0; vm < vms; ++vm) d.register_vm(vm);

  // The whole schedule — peers, jitters, churn times — is drawn up front
  // from one seeded stream, in one deterministic order; nothing consumes
  // randomness while the loop runs, so the event stream cannot depend on
  // interleaving. The feed runs the entries in the schedule's vector order
  // (it is the same-timestamp tie-break).
  const storm::StormSchedule sched = storm::StormSchedule::draw(cfg);
  StartFeed feed(d, sched);
  d.loop.attach(feed);
  if (cfg.down_shard >= 0) {
    d.loop.spawn(Driver::shard_down(
        &d, static_cast<std::size_t>(cfg.down_shard) % cfg.shards,
        cfg.down_from, cfg.down_until));
  }

  d.loop.run();

  ScaleReport r;
  r.tenants = cfg.tenants;
  r.hosts = cfg.hosts;
  r.vms = vms;
  r.shards = cfg.shards;
  r.seed = cfg.seed;
  r.attempted = d.attempted;
  r.ok = d.ok;
  r.degraded = d.degraded;
  r.unavailable = d.unavailable;
  r.not_found = d.not_found;
  if (!d.setup_us.empty()) {
    r.p50_us = d.setup_us.percentile(50.0);
    r.p99_us = d.setup_us.percentile(99.0);
    r.max_us = d.setup_us.max();
  }
  r.elapsed_ms = sim::to_ms(d.loop.now());
  if (r.elapsed_ms > 0) {
    r.kconn_per_s = static_cast<double>(d.ok + d.degraded) / r.elapsed_ms;
  }
  for (const auto& c : d.caches) {
    r.cache_hits += c->hits();
    r.cache_misses += c->misses();
    r.coalesced += c->single_flight_coalesced();
    r.agent_batches += c->batches();
    r.agent_batched_keys += c->batched_keys();
    r.warm_prefills += c->prefills();
  }
  r.warm_enabled = cfg.warm;
  r.warm_pooled = d.warm_pooled;
  r.warm_reused = d.warm_reused;
  r.warm_cold = d.warm_cold;
  const std::uint64_t lookups = r.cache_hits + r.cache_misses + r.coalesced;
  if (lookups > 0) {
    r.hit_rate = static_cast<double>(r.cache_hits) /
                 static_cast<double>(lookups);
  }
  r.per_shard.resize(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    ShardReport& sr = r.per_shard[s];
    sr.queries = d.controller.shard_queries(s);
    sr.batched_queries = d.controller.shard_batched_queries(s);
    sr.unreachable = d.controller.shard_unreachable_queries(s);
    sr.max_queue_depth = d.controller.shard_max_queue_depth(s);
    sr.table_size = d.controller.shard_table_size(s);
    for (const auto& c : d.caches) sr.degraded_serves += c->degraded_serves(s);
  }
  // Fabric traffic phase: a pure function of (config, schedule) on its own
  // loop, counted into sim_events and folded into the trace hash.
  if (cfg.traffic.enabled) {
    r.traffic = run_traffic_phase(cfg, sched);
    d.loop.trace(r.traffic.trace_hash);
  }
  r.sim_events = d.loop.events_executed() + r.traffic.sim_events;
  r.trace_hash = cfg.trace ? d.loop.trace_hash() : 0;
  return r;
}

std::string ScaleReport::json() const {
  std::string out;
  char buf[256];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  emit("{\n");
  emit("  \"workload\": {\"tenants\": %zu, \"hosts\": %zu, \"vms\": %zu, "
       "\"shards\": %zu, \"seed\": %llu},\n",
       tenants, hosts, vms, shards, u64(seed));
  emit("  \"connections\": {\"attempted\": %llu, \"ok\": %llu, "
       "\"degraded\": %llu, \"unavailable\": %llu, \"not_found\": %llu},\n",
       u64(attempted), u64(ok), u64(degraded), u64(unavailable),
       u64(not_found));
  emit("  \"setup_latency_us\": {\"p50\": %.3f, \"p99\": %.3f, "
       "\"max\": %.3f},\n",
       p50_us, p99_us, max_us);
  emit("  \"throughput\": {\"elapsed_ms\": %.3f, \"kconn_per_s\": %.3f},\n",
       elapsed_ms, kconn_per_s);
  emit("  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
       "\"coalesced\": %llu, \"hit_rate\": %.4f, \"agent_batches\": %llu, "
       "\"agent_batched_keys\": %llu},\n",
       u64(cache_hits), u64(cache_misses), u64(coalesced), hit_rate,
       u64(agent_batches), u64(agent_batched_keys));
  // Emitted only when the warm path ran, so warm-off reports byte-match
  // the pre-warm-path schema (the determinism tests diff them raw).
  if (warm_enabled) {
    emit("  \"warm\": {\"pooled\": %llu, \"reused\": %llu, \"cold\": %llu, "
         "\"prefills\": %llu},\n",
         u64(warm_pooled), u64(warm_reused), u64(warm_cold),
         u64(warm_prefills));
  }
  // Fabric traffic phase: emitted only when it ran, so traffic-off reports
  // byte-match the legacy schema. The topology shape (hosts/leaves/spines)
  // stays out: serializing it would change the pinned report bytes.
  if (traffic.enabled) {
    emit("  \"topology\": {\"flows\": %llu, \"bytes\": %llu, "
         "\"elapsed_ms\": %.3f, \"agg_gbps\": %.3f,\n",
         u64(traffic.flows), u64(traffic.total_bytes), traffic.elapsed_ms,
         traffic.agg_gbps);
    emit("    \"fct_us\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f},\n",
         traffic.fct_p50_us, traffic.fct_p99_us, traffic.fct_max_us);
    emit("    \"ecmp_fold\": %llu, \"spine_crossings\": %zu, "
         "\"ecn_marks\": %llu, \"recoveries\": %llu, \"throttled\": %llu,\n",
         u64(traffic.ecmp_fold), traffic.spine_crossings,
         u64(traffic.ecn_marks), u64(traffic.dcqcn_recoveries),
         u64(traffic.throttled_flows));
    emit("    \"peak_spine_util\": %.4f, \"peak_tenant_gbps\": %.3f},\n",
         traffic.peak_spine_util, traffic.peak_tenant_gbps);
  }
  emit("  \"per_shard\": [\n");
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const ShardReport& sr = per_shard[s];
    emit("    {\"shard\": %zu, \"queries\": %llu, \"batched\": %llu, "
         "\"unreachable\": %llu, \"max_queue_depth\": %zu, "
         "\"degraded_serves\": %llu, \"table_size\": %zu}%s\n",
         s, u64(sr.queries), u64(sr.batched_queries), u64(sr.unreachable),
         sr.max_queue_depth, u64(sr.degraded_serves), sr.table_size,
         s + 1 < per_shard.size() ? "," : "");
  }
  emit("  ]\n");
  emit("}\n");
  return out;
}

}  // namespace fabric
