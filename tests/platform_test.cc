// Tests for the platform substrates: virtio command channel, SDN
// controller + host-local mapping cache, security rule chains, the overlay
// OOB network, and the hypervisor (hosts, VMs, containers).
#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "hyp/host.h"
#include "hyp/instance.h"
#include "net/fluid.h"
#include "overlay/oob.h"
#include "overlay/security.h"
#include "sdn/controller.h"
#include "sim/event_loop.h"
#include "virtio/virtqueue.h"

using namespace sim::literals;

namespace {

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }
net::Ipv4Cidr cidr(const std::string& s) { return *net::Ipv4Cidr::parse(s); }

// -------------------------------------------------------------------- virtio

struct Cmd {
  int x;
};
struct Reply {
  int y;
};

TEST(VirtioTest, RoundTripChargesTwentyMicroseconds) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {});
  vq.set_backend([&loop](Cmd c) -> sim::Task<Reply> {
    co_await sim::delay(loop, 0);
    co_return Reply{c.x * 2};
  });
  int result = 0;
  sim::Time done_at = -1;
  auto driver = [](sim::EventLoop& l, virtio::Virtqueue<Cmd, Reply>& q,
                   int* out, sim::Time* when) -> sim::Task<void> {
    Reply r = co_await q.call(Cmd{21});
    *out = r.y;
    *when = l.now();
  };
  loop.spawn(driver(loop, vq, &result, &done_at));
  loop.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(done_at, 20_us);  // Table 1: ~20 us virtio round trip
  EXPECT_EQ(vq.kicks(), 1u);
  EXPECT_EQ(vq.interrupts(), 1u);
}

TEST(VirtioTest, BackendWorkAddsToLatency) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {});
  vq.set_backend([&loop](Cmd c) -> sim::Task<Reply> {
    co_await sim::delay(loop, 50_us);  // host-side driver work
    co_return Reply{c.x};
  });
  sim::Time done_at = -1;
  auto driver = [](sim::EventLoop& l, virtio::Virtqueue<Cmd, Reply>& q,
                   sim::Time* when) -> sim::Task<void> {
    (void)co_await q.call(Cmd{1});
    *when = l.now();
  };
  loop.spawn(driver(loop, vq, &done_at));
  loop.run();
  EXPECT_EQ(done_at, 70_us);
}

TEST(VirtioTest, RingBackpressureQueuesExcessCalls) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {}, /*ring_size=*/2);
  int completed = 0;
  vq.set_backend([&loop](Cmd c) -> sim::Task<Reply> {
    co_await sim::delay(loop, 100_us);
    co_return Reply{c.x};
  });
  auto caller = [](virtio::Virtqueue<Cmd, Reply>& q,
                   int* done) -> sim::Task<void> {
    (void)co_await q.call(Cmd{1});
    ++*done;
  };
  for (int i = 0; i < 5; ++i) loop.spawn(caller(vq, &completed));
  loop.run_until(30_us);
  EXPECT_EQ(vq.in_flight(), 2);  // only ring_size commands admitted
  loop.run();
  EXPECT_EQ(completed, 5);
}

TEST(VirtioTest, ConcurrentCallsCoalesceKicksAndInterrupts) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {});
  vq.set_backend([&loop](Cmd c) -> sim::Task<Reply> {
    co_await sim::delay(loop, 0);
    co_return Reply{c.x};
  });
  int done = 0;
  sim::Time last = -1;
  auto caller = [](sim::EventLoop& l, virtio::Virtqueue<Cmd, Reply>& q,
                   int* n, sim::Time* when) -> sim::Task<void> {
    (void)co_await q.call(Cmd{1});
    ++*n;
    *when = l.now();
  };
  for (int i = 0; i < 4; ++i) loop.spawn(caller(loop, vq, &done, &last));
  loop.run();
  EXPECT_EQ(done, 4);
  // All four were on the ring before the doorbell's VM exit landed: one
  // kick carries the whole descriptor batch, one interrupt reaps all four
  // completions from the used ring.
  EXPECT_EQ(vq.kicks(), 1u);
  EXPECT_EQ(vq.interrupts(), 1u);
  EXPECT_EQ(vq.coalesced_kicks(), 3u);
  EXPECT_EQ(vq.coalesced_interrupts(), 3u);
  // Riders pay no extra transit: everyone finishes at one round trip.
  EXPECT_EQ(last, 20_us);
}

TEST(VirtioTest, BatchedWeightRespectsRingBackpressure) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {}, /*ring_size=*/4);
  vq.set_backend([&loop](Cmd c) -> sim::Task<Reply> {
    co_await sim::delay(loop, 100_us);
    co_return Reply{c.x};
  });
  int completed = 0;
  auto caller = [](virtio::Virtqueue<Cmd, Reply>& q, int weight,
                   int* done) -> sim::Task<void> {
    (void)co_await q.call(Cmd{weight}, weight);
    ++*done;
  };
  // A batch occupies one descriptor per carried command, so two weight-3
  // batches cannot share a 4-slot ring: the second queues.
  loop.spawn(caller(vq, 3, &completed));
  loop.spawn(caller(vq, 3, &completed));
  loop.run_until(30_us);
  EXPECT_EQ(vq.in_flight(), 3);
  EXPECT_EQ(completed, 0);
  loop.run();
  EXPECT_EQ(completed, 2);
}

TEST(VirtioTest, OverweightRequestIsRejected) {
  sim::EventLoop loop;
  virtio::Virtqueue<Cmd, Reply> vq(loop, {}, /*ring_size=*/4);
  vq.set_backend([](Cmd c) -> sim::Task<Reply> { co_return Reply{c.x}; });
  bool threw = false;
  auto caller = [](virtio::Virtqueue<Cmd, Reply>& q,
                   bool* out) -> sim::Task<void> {
    try {
      (void)co_await q.call(Cmd{1}, 5);  // wider than the ring: can't fit
    } catch (const std::invalid_argument&) {
      *out = true;
    }
  };
  loop.spawn(caller(vq, &threw));
  loop.run();
  EXPECT_TRUE(threw);
}

// ----------------------------------------------------------------------- sdn

TEST(SdnTest, ControllerMapsTenantScopedVgids) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop);
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.1"));
  const auto pgid_t1 = net::Gid::from_ipv4(ip("10.0.0.1"));
  const auto pgid_t2 = net::Gid::from_ipv4(ip("10.0.0.2"));
  // Two tenants with the *same* virtual IP map to different hosts.
  ctl.register_vgid(100, vgid, pgid_t1);
  ctl.register_vgid(200, vgid, pgid_t2);
  EXPECT_EQ(ctl.lookup(100, vgid), pgid_t1);
  EXPECT_EQ(ctl.lookup(200, vgid), pgid_t2);
  EXPECT_FALSE(ctl.lookup(300, vgid).has_value());
  ctl.unregister_vgid(100, vgid);
  EXPECT_FALSE(ctl.lookup(100, vgid).has_value());
  EXPECT_EQ(ctl.table_bytes(), sdn::kRecordBytes);
}

TEST(SdnTest, QueryChargesControllerRtt) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.1"));
  ctl.register_vgid(1, vgid, net::Gid::from_ipv4(ip("10.0.0.1")));
  sim::Time when = -1;
  bool found = false;
  auto q = [](sim::EventLoop& l, sdn::Controller& c, net::Gid g, bool* ok,
              sim::Time* t) -> sim::Task<void> {
    const auto r = co_await c.query_ex(1, g);
    *ok = r.pgid.has_value();
    *t = l.now();
  };
  loop.spawn(q(loop, ctl, vgid, &found, &when));
  loop.run();
  EXPECT_TRUE(found);
  EXPECT_EQ(when, 100_us);
}

TEST(SdnTest, CacheHitIsCheapAfterFirstMiss) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 2_us});
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.7"));
  ctl.register_vgid(5, vgid, net::Gid::from_ipv4(ip("10.0.0.9")));
  sim::Time t1 = -1, t2 = -1;
  auto q = [](sim::EventLoop& l, sdn::MappingCache& c, net::Gid g,
              sim::Time* out) -> sim::Task<void> {
    sim::Time start = l.now();
    (void)co_await c.resolve_ex(5, g);
    *out = l.now() - start;
  };
  auto seq = [&](sim::EventLoop& l) -> sim::Task<void> {
    co_await q(l, cache, vgid, &t1);
    co_await q(l, cache, vgid, &t2);
  };
  loop.spawn(seq(loop));
  loop.run();
  EXPECT_EQ(t1, 100_us);  // miss -> controller RTT
  EXPECT_EQ(t2, 2_us);    // hit -> local cache
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

// Caches `keys` mappings (vGID 192.168.3.i -> pGID 10.0.0.i), resolves
// key `k` with a 2 µs hit cost and invalidates `victims` 1 µs into that
// hit. A hit is served as the lookup found it, whatever the table does
// during the hit cost.
sdn::MappingCache::Resolution hit_during_invalidations(
    std::uint32_t keys, std::uint32_t k,
    const std::vector<std::uint32_t>& victims) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 2_us});
  auto vgid = [](std::uint32_t i) {
    return net::Gid::from_ipv4(net::Ipv4Addr{0xc0a80300u + i});
  };
  for (std::uint32_t i = 0; i < keys; ++i) {
    cache.insert(5, vgid(i),
                 net::Gid::from_ipv4(net::Ipv4Addr{0x0a000000u + i}));
  }
  sdn::MappingCache::Resolution out;
  auto q = [&]() -> sim::Task<void> {
    out = co_await cache.resolve_ex(5, vgid(k));
  };
  loop.spawn(q());
  loop.schedule_after(1_us, [&] {
    for (std::uint32_t v : victims) cache.invalidate(5, vgid(v));
  });
  loop.run();
  EXPECT_EQ(cache.size(), keys - victims.size());
  EXPECT_EQ(cache.hits(), 1u);
  return out;
}

std::vector<std::uint32_t> key_range(std::uint32_t first, std::uint32_t last) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = first; i <= last; ++i) v.push_back(i);
  return v;
}

// The erase zeroes the entry's slot; one erase in four does not compact.
TEST(SdnTest, HitInvalidatedDuringItsCostServesTheEntryItFound) {
  const auto r = hit_during_invalidations(4, 1, {1});
  EXPECT_EQ(r.status, sdn::MappingCache::ResolveStatus::kOk);
  EXPECT_EQ(r.pgid, net::Gid::from_ipv4(ip("10.0.0.1")));
}

// The 33rd of 64 erases compacts the table, moving key 20 into key 10's
// slot.
TEST(SdnTest, HitSurvivesACompactionDuringItsCost) {
  std::vector<std::uint32_t> victims = key_range(0, 9);
  const std::vector<std::uint32_t> upper = key_range(40, 62);
  victims.insert(victims.end(), upper.begin(), upper.end());
  const auto r = hit_during_invalidations(64, 10, victims);
  EXPECT_EQ(r.status, sdn::MappingCache::ResolveStatus::kOk);
  EXPECT_EQ(r.pgid, net::Gid::from_ipv4(ip("10.0.0.10")));
}

// The compaction leaves 31 entries, so the last key's old slot is past
// the end of the table.
TEST(SdnTest, HitOnTheLastSlotSurvivesACompaction) {
  const auto r = hit_during_invalidations(64, 63, key_range(0, 32));
  EXPECT_EQ(r.status, sdn::MappingCache::ResolveStatus::kOk);
  EXPECT_EQ(r.pgid, net::Gid::from_ipv4(ip("10.0.0.63")));
}

TEST(SdnTest, ZeroCostHitAnswersInline) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 0});
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.9"));
  const auto pgid = net::Gid::from_ipv4(ip("10.0.0.5"));
  cache.insert(5, vgid, pgid);
  bool answered = false;
  auto q = [&]() -> sim::Task<void> {
    const sim::Time start = loop.now();
    const std::uint64_t events = loop.events_executed();
    const auto r = co_await cache.resolve_ex(5, vgid);
    // Same virtual time, same event, nothing left scheduled.
    EXPECT_EQ(loop.now(), start);
    EXPECT_EQ(loop.events_executed(), events);
    EXPECT_TRUE(loop.empty());
    EXPECT_EQ(r.status, sdn::MappingCache::ResolveStatus::kOk);
    EXPECT_EQ(r.pgid, pgid);
    answered = true;
  };
  loop.spawn(q());
  loop.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(loop.events_executed(), 1u);  // the spawn
  EXPECT_EQ(cache.hits(), 1u);
}

// With no RTT and no service time, the leader's controller query finishes
// inside resolve(), so the miss is answered before co_await returns.
TEST(SdnTest, ZeroRttMissAnswersInline) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, /*query_rtt=*/0);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 0});
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.10"));
  const auto pgid = net::Gid::from_ipv4(ip("10.0.0.6"));
  ctl.register_vgid(5, vgid, pgid);
  bool answered = false;
  auto q = [&]() -> sim::Task<void> {
    const std::uint64_t events = loop.events_executed();
    const auto r = co_await cache.resolve_ex(5, vgid);
    EXPECT_EQ(loop.now(), 0);
    EXPECT_EQ(loop.events_executed(), events);
    EXPECT_TRUE(loop.empty());
    EXPECT_EQ(r.status, sdn::MappingCache::ResolveStatus::kOk);
    EXPECT_EQ(r.pgid, pgid);
    answered = true;
  };
  loop.spawn(q());
  loop.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // the verdict was installed
}

// A cache destroyed while its leader miss is on the wire must not be
// touched when the reply lands, on the lone-query path (window 0) and on
// the miss-lane path alike. Under ASan a use after free fails here.
TEST(SdnTest, CacheDestroyedMidQueryAnswersNothing) {
  struct Record final : sdn::MappingCache::Lookup {
    bool answered = false;
    void resolved(sdn::MappingCache::Resolution) override { answered = true; }
  };
  for (const sim::Time window : {sim::Time{0}, 5_us}) {
    sim::EventLoop loop;
    sdn::Controller ctl(loop, 100_us);
    const auto vgid = net::Gid::from_ipv4(ip("192.168.1.11"));
    ctl.register_vgid(5, vgid, net::Gid::from_ipv4(ip("10.0.0.7")));
    auto cache = std::make_unique<sdn::MappingCache>(
        loop, ctl, sdn::CacheConfig{.batch_window = window});
    Record r;
    cache->resolve(5, vgid, r);
    loop.run_until(50_us);  // past the window: the query is in flight
    cache.reset();
    loop.run();
    EXPECT_FALSE(r.answered) << "window " << window;
    EXPECT_EQ(ctl.queries_served(), 1u) << "window " << window;
  }
}

TEST(SdnTest, PushDownPrewarmsCache) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl,
                          {.hit_cost = 2_us, .insert_pushes = true});
  const auto vgid = net::Gid::from_ipv4(ip("192.168.1.8"));
  ctl.register_vgid(7, vgid, net::Gid::from_ipv4(ip("10.0.0.3")));
  EXPECT_EQ(cache.prefills(), 1u);
  sim::Time t = -1;
  auto q = [&](sim::EventLoop& l) -> sim::Task<void> {
    sim::Time start = l.now();
    const auto r = co_await cache.resolve_ex(7, vgid);
    EXPECT_TRUE(r.pgid.has_value());
    t = l.now() - start;
  };
  loop.spawn(q(loop));
  loop.run();
  EXPECT_EQ(t, 2_us);  // pre-warmed: no miss
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(SdnTest, ConcurrentMissesCoalesceToOneQuery) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 2_us});
  const auto vgid = net::Gid::from_ipv4(ip("192.168.2.1"));
  ctl.register_vgid(9, vgid, net::Gid::from_ipv4(ip("10.0.0.4")));
  int resolved = 0;
  auto q = [](sdn::MappingCache& c, net::Gid g, int* n) -> sim::Task<void> {
    const auto r = co_await c.resolve_ex(9, g);
    EXPECT_TRUE(r.pgid.has_value());
    ++*n;
  };
  // A 100-QP fan-in to a brand-new peer: 100 concurrent cache misses.
  for (int i = 0; i < 100; ++i) loop.spawn(q(cache, vgid, &resolved));
  loop.run();
  EXPECT_EQ(resolved, 100);
  // Single-flight: one leader query, 99 riders on its future.
  EXPECT_EQ(ctl.queries_served(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.single_flight_coalesced(), 99u);
}

TEST(SdnTest, NegativeCacheBoundsUnresolvableLookups) {
  sim::EventLoop loop;
  sdn::Controller ctl(loop, 100_us);
  sdn::MappingCache cache(loop, ctl, {.hit_cost = 2_us});  // 1 ms negative TTL
  const auto vgid = net::Gid::from_ipv4(ip("192.168.2.2"));  // never registered
  auto seq = [&](sim::EventLoop& l) -> sim::Task<void> {
    const auto r1 = co_await cache.resolve_ex(9, vgid);
    EXPECT_FALSE(r1.pgid.has_value());
    EXPECT_EQ(ctl.queries_served(), 1u);
    // Within the TTL the "known absent" verdict is served locally: a
    // misconfigured peer cannot turn every retry into a controller RTT.
    const auto r2 = co_await cache.resolve_ex(9, vgid);
    EXPECT_FALSE(r2.pgid.has_value());
    EXPECT_EQ(ctl.queries_served(), 1u);
    EXPECT_EQ(cache.negative_hits(), 1u);
    // The verdict is bounded: after the TTL the controller is re-asked.
    co_await sim::delay(l, 2_ms);
    const auto r3 = co_await cache.resolve_ex(9, vgid);
    EXPECT_FALSE(r3.pgid.has_value());
    EXPECT_EQ(ctl.queries_served(), 2u);
  };
  loop.spawn(seq(loop));
  loop.run();
}

TEST(SdnTest, VirtKeyHashSpreadsPatternedKeys) {
  // Sequential tenant VNIs x sequential guest IPs: keys differing only in
  // low bytes. The old XOR combine collapsed exactly this pattern (it is
  // symmetric and cancels shared low-byte entropy); hash_combine must keep
  // the keys distinct and evenly bucketed.
  sdn::VirtKeyHash h;
  std::unordered_set<std::size_t> distinct;
  std::vector<int> bucket(128, 0);
  for (std::uint32_t vni = 0; vni < 32; ++vni) {
    for (std::uint32_t i = 0; i < 32; ++i) {
      const net::Ipv4Addr a{0x0a000000u + (vni << 8) + i};
      const sdn::VirtKey key{vni, net::Gid::from_ipv4(a)};
      const std::size_t hv = h(key);
      distinct.insert(hv);
      ++bucket[hv % bucket.size()];
    }
  }
  EXPECT_EQ(distinct.size(), 1024u);  // no full-hash collisions
  // 1024 keys into 128 buckets: average load 8; a healthy hash keeps the
  // worst bucket within a small multiple of that.
  int max_load = 0;
  for (int b : bucket) max_load = std::max(max_load, b);
  EXPECT_LE(max_load, 24);
}

// ------------------------------------------------------------------ security

TEST(SecurityTest, DefaultDeny) {
  overlay::RuleChain chain;
  EXPECT_EQ(chain.evaluate({ip("1.1.1.1"), ip("2.2.2.2")}),
            overlay::RuleAction::kDeny);
}

TEST(SecurityTest, PriorityOrderFirstMatchWins) {
  overlay::RuleChain chain;
  chain.add_rule(overlay::Rule::allow(cidr("192.168.0.0/16"),
                                      net::Ipv4Cidr::any(),
                                      overlay::Proto::kAny, 10));
  chain.add_rule(overlay::Rule::deny(cidr("192.168.9.0/24"),
                                     net::Ipv4Cidr::any(),
                                     overlay::Proto::kAny, 20));
  EXPECT_EQ(chain.evaluate({ip("192.168.1.5"), ip("10.0.0.1")}),
            overlay::RuleAction::kAllow);
  EXPECT_EQ(chain.evaluate({ip("192.168.9.5"), ip("10.0.0.1")}),
            overlay::RuleAction::kDeny);  // higher-priority deny
}

TEST(SecurityTest, ProtocolFilter) {
  overlay::RuleChain chain;
  chain.add_rule(overlay::Rule::allow(net::Ipv4Cidr::any(),
                                      net::Ipv4Cidr::any(),
                                      overlay::Proto::kRdma));
  EXPECT_EQ(chain.evaluate({ip("1.1.1.1"), ip("2.2.2.2"),
                            overlay::Proto::kRdma}),
            overlay::RuleAction::kAllow);
  EXPECT_EQ(chain.evaluate({ip("1.1.1.1"), ip("2.2.2.2"),
                            overlay::Proto::kTcp}),
            overlay::RuleAction::kDeny);
}

TEST(SecurityTest, RemoveRuleRestoresDefaultDeny) {
  overlay::RuleChain chain;
  auto id = chain.add_rule(overlay::Rule::allow_all());
  EXPECT_EQ(chain.evaluate({ip("1.1.1.1"), ip("2.2.2.2")}),
            overlay::RuleAction::kAllow);
  const auto v1 = chain.version();
  EXPECT_TRUE(chain.remove_rule(id));
  EXPECT_GT(chain.version(), v1);
  EXPECT_EQ(chain.evaluate({ip("1.1.1.1"), ip("2.2.2.2")}),
            overlay::RuleAction::kDeny);
  EXPECT_FALSE(chain.remove_rule(id));
}

TEST(SecurityTest, ConnectionNeedsAllThreeChains) {
  overlay::SecurityPolicy pol(100);
  const auto a = ip("192.168.1.1");
  const auto b = ip("192.168.2.1");
  overlay::FlowTuple t{a, b, overlay::Proto::kRdma};
  // Materialize both VMs' security groups.
  pol.security_group(a, overlay::Chain::kOutput);
  pol.security_group(b, overlay::Chain::kInput);
  EXPECT_FALSE(pol.connection_allowed(t));  // everything default-deny
  pol.firewall(overlay::Chain::kForward).add_rule(overlay::Rule::allow_all());
  EXPECT_FALSE(pol.connection_allowed(t));
  pol.security_group(a, overlay::Chain::kOutput)
      .add_rule(overlay::Rule::allow_all());
  EXPECT_FALSE(pol.connection_allowed(t));
  pol.security_group(b, overlay::Chain::kInput)
      .add_rule(overlay::Rule::allow_all());
  EXPECT_TRUE(pol.connection_allowed(t));
}

TEST(SecurityTest, ObserversFireOnNotify) {
  overlay::SecurityPolicy pol(1);
  int fired = 0;
  pol.subscribe([&fired] { ++fired; });
  pol.notify_changed();
  pol.notify_changed();
  EXPECT_EQ(fired, 2);
}

// ----------------------------------------------------------------- oob / vpc

class OobTest : public ::testing::Test {
 protected:
  OobTest() : vnet_(loop_, 25_us) {
    a_ = vnet_.create_endpoint(100, ip("192.168.1.1"));
    b_ = vnet_.create_endpoint(100, ip("192.168.1.2"));
    // Same virtual IP as a_, different tenant.
    c_ = vnet_.create_endpoint(200, ip("192.168.1.1"));
    d_ = vnet_.create_endpoint(200, ip("192.168.1.2"));
    vnet_.policy(100).allow_all();
    vnet_.policy(200).allow_all();
  }

  sim::EventLoop loop_;
  overlay::VirtualNetwork vnet_;
  overlay::OobEndpoint *a_, *b_, *c_, *d_;
};

TEST_F(OobTest, SendRecvWithinTenant) {
  std::string got;
  sim::Time when = -1;
  auto server = [](overlay::OobEndpoint* ep, std::string* out,
                   sim::EventLoop& l, sim::Time* t) -> sim::Task<void> {
    auto blob = co_await ep->recv(7000);
    *out = std::string(blob.begin(), blob.end());
    *t = l.now();
  };
  auto client = [](overlay::OobEndpoint* ep,
                   net::Ipv4Addr dst) -> sim::Task<void> {
    overlay::Blob b{'h', 'i'};
    auto st = co_await ep->send(dst, 7000, b);
    EXPECT_EQ(st, rnic::Status::kOk);
  };
  loop_.spawn(server(b_, &got, loop_, &when));
  loop_.spawn(client(a_, ip("192.168.1.2")));
  loop_.run();
  EXPECT_EQ(got, "hi");
  EXPECT_EQ(when, 25_us);
}

TEST_F(OobTest, TenantsAreIsolatedDespiteIpCollision) {
  // Tenant 200's "192.168.1.2" must not receive tenant 100's message.
  bool tenant200_got = false;
  auto server = [](overlay::OobEndpoint* ep, bool* got) -> sim::Task<void> {
    (void)co_await ep->recv(7000);
    *got = true;
  };
  loop_.spawn(server(d_, &tenant200_got));
  auto client = [](overlay::OobEndpoint* ep) -> sim::Task<void> {
    overlay::Blob payload{'x'};
    auto st = co_await ep->send(ip("192.168.1.2"), 7000, payload);
    EXPECT_EQ(st, rnic::Status::kOk);  // lands in tenant 100's endpoint
  };
  loop_.spawn(client(a_));
  loop_.run();
  EXPECT_FALSE(tenant200_got);
}

TEST_F(OobTest, SecurityGroupBlocksExchange) {
  // Deny b's INPUT from a's subnet; the connect attempt must fail.
  vnet_.policy(100)
      .security_group(ip("192.168.1.2"), overlay::Chain::kInput)
      .add_rule(overlay::Rule::deny(cidr("192.168.1.0/24"),
                                    net::Ipv4Cidr::any(),
                                    overlay::Proto::kAny, 100));
  auto client = [](overlay::OobEndpoint* ep) -> sim::Task<void> {
    overlay::Blob payload{'x'};
    auto st = co_await ep->send(ip("192.168.1.2"), 7000, payload);
    EXPECT_EQ(st, rnic::Status::kPermissionDenied);
  };
  loop_.spawn(client(a_));
  loop_.run();
  EXPECT_EQ(vnet_.messages_blocked(), 1u);
}

TEST_F(OobTest, UnknownDestinationReturnsNotFound) {
  auto client = [](overlay::OobEndpoint* ep) -> sim::Task<void> {
    overlay::Blob payload{'x'};
    auto st = co_await ep->send(ip("192.168.1.99"), 7000, payload);
    EXPECT_EQ(st, rnic::Status::kNotFound);
  };
  loop_.spawn(client(a_));
  loop_.run();
}

TEST_F(OobTest, PackUnpackRoundTrip) {
  struct ConnInfo {
    std::uint32_t qpn;
    std::uint64_t addr;
    std::uint32_t rkey;
  };
  ConnInfo in{42, 0xdeadbeef, 7};
  auto blob = overlay::pack(in);
  auto out = overlay::unpack<ConnInfo>(blob);
  EXPECT_EQ(out.qpn, 42u);
  EXPECT_EQ(out.addr, 0xdeadbeefull);
  EXPECT_EQ(out.rkey, 7u);
  EXPECT_THROW(overlay::unpack<std::uint64_t>(overlay::Blob{1, 2}),
               std::invalid_argument);
}

// -------------------------------------------------------------------- hyp

class HypTest : public ::testing::Test {
 protected:
  sim::EventLoop loop_;
  net::FluidNet net_{loop_};
};

TEST_F(HypTest, HostBuffersComeFromDram) {
  hyp::Host host(loop_, net_, "h0", 64ull << 20);
  const auto before = host.dram_used_bytes();
  const mem::Addr hva = host.alloc_host_buffer(1 << 20);
  EXPECT_EQ(host.dram_used_bytes(), before + (1 << 20));
  host.hva().write_u64(hva, 0x1234);
  EXPECT_EQ(host.hva().read_u64(hva), 0x1234u);
  host.free_host_buffer(hva, 1 << 20);
  EXPECT_EQ(host.dram_used_bytes(), before);
}

TEST_F(HypTest, VmBootReservesRamPlusOverhead) {
  hyp::Host host(loop_, net_, "h0", 4ull << 30);
  hyp::Vm::Config cfg;
  cfg.mem_bytes = 512ull << 20;
  cfg.qemu_overhead_bytes = 100ull << 20;
  {
    hyp::Vm vm(host, cfg);
    EXPECT_EQ(host.dram_used_bytes(), (512ull + 100ull) << 20);
  }
  EXPECT_EQ(host.dram_used_bytes(), 0u);  // destructor returns it
}

TEST_F(HypTest, HostMemoryLimitsVmCount) {
  // Miniature Table 5: 2 GiB host, 512+100 MiB VMs -> exactly 3 fit.
  hyp::Host host(loop_, net_, "h0", 2ull << 30);
  hyp::Vm::Config cfg;
  std::vector<std::unique_ptr<hyp::Vm>> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(std::make_unique<hyp::Vm>(host, cfg));
  }
  EXPECT_THROW(std::make_unique<hyp::Vm>(host, cfg), std::bad_alloc);
}

TEST_F(HypTest, GuestBufferResolvesThroughFullChain) {
  hyp::Host host(loop_, net_, "h0", 2ull << 30);
  hyp::Vm::Config cfg;
  cfg.name = "vm0";
  hyp::Vm vm(host, cfg);
  const mem::Addr gva = vm.alloc_guest_buffer(3 * mem::kPageSize);
  // Bytes written by the guest are visible at the resolved HPA.
  const std::string msg = "guest payload";
  vm.write_guest(gva + 5000, {reinterpret_cast<const std::uint8_t*>(
                                  msg.data()),
                              msg.size()});
  const mem::Addr hpa = vm.gva().resolve_hpa(gva + 5000);
  std::vector<std::uint8_t> out(msg.size());
  host.phys().read(hpa, out);
  EXPECT_EQ(std::string(out.begin(), out.end()), msg);
  // MTT construction across the chain merges contiguous pages.
  auto segs = vm.gva().resolve_hpa_range(gva, 3 * mem::kPageSize);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].len, 3 * mem::kPageSize);
  vm.free_guest_buffer(gva, 3 * mem::kPageSize);
}

TEST_F(HypTest, MmioMapsIntoGuest) {
  hyp::Host host(loop_, net_, "h0", 2ull << 30);
  rnic::DeviceConfig dc;
  dc.ip = ip("10.0.0.1");
  auto& dev = host.add_rnic(dc);
  hyp::Vm vm(host, {});
  const mem::Addr db_gva = vm.map_mmio_into_guest(dev.doorbell_bar(), 4096);
  // A doorbell write from guest code reaches the device (kicks QP 3; no
  // such QP exists, which is a harmless no-op — the routing is the test).
  vm.gva().write_u64(db_gva + 3 * 8, 1);
  SUCCEED();
}

TEST_F(HypTest, VmComputeOverheadScalesTime) {
  hyp::Host host(loop_, net_, "h0", 2ull << 30);
  hyp::Vm::Config cfg;
  cfg.compute_overhead = 1.5;
  hyp::Vm vm(host, cfg);
  EXPECT_EQ(vm.compute(1000_ns), 1500_ns);
  hyp::Container ctr(host, {});
  EXPECT_EQ(ctr.compute(1000_ns), 1000_ns);
}

TEST_F(HypTest, ContainerMemoryLimitEnforced) {
  hyp::Host host(loop_, net_, "h0", 2ull << 30);
  hyp::Container::Config cfg;
  cfg.mem_limit_bytes = 2 * mem::kPageSize;
  hyp::Container ctr(host, cfg);
  (void)ctr.alloc_buffer(2 * mem::kPageSize);
  EXPECT_THROW(ctr.alloc_buffer(mem::kPageSize), std::bad_alloc);
}

}  // namespace
