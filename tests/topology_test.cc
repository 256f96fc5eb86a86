// Leaf–spine fabric properties (DESIGN.md §17): max-min allocations
// conserve every link's capacity at every seed, ECMP placement is a pure
// function of the 5-tuple (identical across reruns), flow departure never
// leaves a stale share behind, and multi-hop
// DCQCN throttles exactly the flows crossing a congested link.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fabric/scale.h"
#include "fabric/storm_schedule.h"
#include "fabric/traffic.h"
#include "net/dcqcn.h"
#include "net/fluid.h"
#include "net/topology.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace {

net::EcmpKey key_for(std::size_t src, std::size_t dst, std::uint16_t port) {
  net::EcmpKey k;
  k.src_ip = static_cast<std::uint32_t>(src);
  k.dst_ip = static_cast<std::uint32_t>(dst);
  k.src_port = port;
  return k;
}

// ---- topology shape ------------------------------------------------------

TEST(TopologyTest, PathShapesMatchTheClos) {
  sim::EventLoop loop;
  net::FluidNet net(loop);
  net::FabricConfig fc;
  fc.leaves = 2;
  fc.spines = 2;
  const std::size_t hosts = 8;
  net::FabricTopology topo(net, hosts, fc);

  // Intra-host and intra-leaf (hosts 0..3 on leaf 0): the NIC links are
  // the whole wire, so no fabric hop.
  EXPECT_TRUE(topo.path(3, 3, key_for(3, 3, 0)).empty());
  EXPECT_TRUE(topo.path(1, 2, key_for(1, 2, 0)).empty());

  // Inter-leaf: leaf->spine, spine->leaf, with the ECMP spine.
  const net::EcmpKey k = key_for(1, 6, 7);
  const auto inter = topo.path(1, 6, k);
  ASSERT_EQ(inter.size(), 2u);
  const std::size_t spine = topo.spine_for(k);
  EXPECT_EQ(inter[0], topo.leaf_to_spine(0, spine));
  EXPECT_EQ(inter[1], topo.spine_to_leaf(spine, 1));

  // Hosts attach to leaves in contiguous, monotone blocks.
  std::size_t prev = 0;
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::size_t leaf = topo.leaf_of(h);
    EXPECT_LT(leaf, fc.leaves);
    EXPECT_GE(leaf, prev);
    prev = leaf;
  }

  // More leaves than hosts: the effective shape is one host per leaf.
  net::FabricConfig wide;
  wide.leaves = 8;
  EXPECT_EQ(net::FabricTopology(net, 4, wide).config().leaves, 4u);
}

TEST(TopologyTest, EcmpIsDeterministicAndCoversAllSpines) {
  // The hash is a pure function of the key bytes: equal keys agree across
  // independently constructed topologies (and therefore across reruns,
  // engines and machines); any byte flipped picks independently.
  sim::EventLoop loop;
  net::FluidNet net_a(loop), net_b(loop);
  net::FabricConfig fc;
  fc.leaves = 4;
  fc.spines = 4;
  net::FabricTopology a(net_a, 16, fc), b(net_b, 16, fc);

  std::vector<bool> hit(fc.spines, false);
  for (std::size_t i = 0; i < 256; ++i) {
    const net::EcmpKey k =
        key_for(i * 131, i * 257 + 1, static_cast<std::uint16_t>(i));
    EXPECT_EQ(net::ecmp_hash(k), net::ecmp_hash(k));
    EXPECT_EQ(a.spine_for(k), b.spine_for(k));
    hit[a.spine_for(k)] = true;
  }
  for (std::size_t s = 0; s < fc.spines; ++s) {
    EXPECT_TRUE(hit[s]) << "spine " << s << " never chosen over 256 keys";
  }
}

// ---- max-min conservation, every link, every seed ------------------------

// Per-host NIC tx and rx links at `gbps` (LinkIds 0..2*hosts-1, tx then rx
// per host), spliced around the fabric hops the way RnicDevice and the
// traffic phase do.
struct Nics {
  std::vector<net::LinkId> tx, rx;
  Nics(net::FluidNet& net, std::size_t hosts, double gbps) {
    for (std::size_t h = 0; h < hosts; ++h) {
      tx.push_back(net.add_link(gbps, 0));
      rx.push_back(net.add_link(gbps, 0));
    }
  }
  std::vector<net::LinkId> path(const net::FabricTopology& topo,
                                std::size_t src, std::size_t dst,
                                const net::EcmpKey& key) const {
    std::vector<net::LinkId> p{tx[src]};
    for (net::LinkId l : topo.path(src, dst, key)) p.push_back(l);
    p.push_back(rx[dst]);
    return p;
  }
};

TEST(TopologyPropertyTest, AllocationsConserveEveryLinkCapacity) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::EventLoop loop;
    net::FluidNet net(loop);
    const std::size_t hosts = 16;
    const Nics nics(net, hosts, 10);
    net::FabricConfig fc;
    fc.leaves = 4;
    fc.spines = 2;
    fc.spine_gbps = 25;
    const net::FabricTopology topo(net, hosts, fc);
    const auto links = static_cast<net::LinkId>(2 * hosts +
                                                2 * fc.leaves * fc.spines);

    // Seeded random unbounded flows (src != dst so every flow crosses a
    // NIC pair).
    sim::Rng rng(seed);
    std::vector<net::FlowId> flows;
    std::vector<std::vector<net::LinkId>> paths;
    for (std::size_t i = 0; i < 40; ++i) {
      const std::size_t src = rng.next_below(hosts);
      std::size_t dst = rng.next_below(hosts - 1);
      if (dst >= src) ++dst;
      paths.push_back(nics.path(topo, src, dst,
                                key_for(src, dst,
                                        static_cast<std::uint16_t>(i))));
      flows.push_back(net.start_flow(paths.back(), 0, net::kUncapped, {}));
    }

    auto assert_conserved = [&](const char* when) {
      for (net::LinkId l = 0; l < links; ++l) {
        double load = 0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (!net.has_flow(flows[i])) continue;
          for (net::LinkId pl : paths[i]) {
            if (pl == l) load += net.current_rate_gbps(flows[i]);
          }
        }
        EXPECT_LE(load, net.link_capacity_gbps(l) + 1e-9)
            << when << ": link " << l << " oversubscribed at seed " << seed;
        EXPECT_DOUBLE_EQ(load, net.link_load_gbps(l))
            << when << ": stale share on link " << l << " at seed " << seed;
      }
    };

    assert_conserved("all flows up");
    for (std::size_t i = 0; i < flows.size(); i += 2) {
      net.cancel_flow(flows[i]);
    }
    assert_conserved("half departed");
    for (std::size_t i = 1; i < flows.size(); i += 2) {
      net.cancel_flow(flows[i]);
    }
    // Departure leaves no residue: every link drains to exactly zero.
    for (net::LinkId l = 0; l < links; ++l) {
      EXPECT_EQ(net.link_load_gbps(l), 0.0) << "link " << l;
    }
  }
}

TEST(TopologyPropertyTest, SurvivorInheritsTheFreedShare) {
  // Two flows share one host's 10 G tx link; when one departs the other's
  // allocation immediately grows to the full link — no stale half-share.
  sim::EventLoop loop;
  net::FluidNet net(loop);
  const Nics nics(net, 4, 10);
  const net::FabricTopology topo(net, 4, net::FabricConfig{});
  const auto path_a = nics.path(topo, 0, 1, key_for(0, 1, 0));
  const auto path_b = nics.path(topo, 0, 2, key_for(0, 2, 1));
  const net::FlowId a = net.start_flow(path_a, 0, net::kUncapped, {});
  const net::FlowId b = net.start_flow(path_b, 0, net::kUncapped, {});
  EXPECT_DOUBLE_EQ(net.current_rate_gbps(a), 5.0);
  EXPECT_DOUBLE_EQ(net.current_rate_gbps(b), 5.0);
  net.cancel_flow(a);
  EXPECT_DOUBLE_EQ(net.current_rate_gbps(b), 10.0);
}

// ---- multi-hop DCQCN selectivity -----------------------------------------

TEST(TopologyDcqcnTest, IncastThrottlesOnlyTheCongestedFlows) {
  // Four long senders in leaf 1 converge on host 0's 25 G rx link; one
  // short background pair runs inside leaf 0. The incast flows live at a
  // saturated link for hundreds of RP ticks and must take marks; the
  // background flow finishes before its first tick and must take none —
  // congestion on the shared links throttles exactly the flows crossing
  // them.
  sim::EventLoop loop;
  net::FluidNet net(loop);
  const double host_gbps = 25;
  const Nics nics(net, 8, host_gbps);
  net::FabricConfig fc;
  fc.leaves = 2;
  fc.spines = 2;
  fc.spine_gbps = 40;
  const net::FabricTopology topo(net, 8, fc);
  net::DcqcnParams dp;
  dp.seed = 42;
  net::DcqcnController dcqcn(loop, net, dp);

  auto start = [&](std::size_t src, std::size_t dst, std::uint64_t bytes,
                   std::uint16_t port) {
    const net::FlowId f =
        net.start_flow(nics.path(topo, src, dst, key_for(src, dst, port)),
                       bytes, net::kUncapped, {});
    dcqcn.manage(f, host_gbps);
    return f;
  };

  std::vector<net::FlowId> incast;
  for (std::size_t s = 4; s < 8; ++s) {
    incast.push_back(start(s, 0, 512 * 1024, static_cast<std::uint16_t>(s)));
  }
  const net::FlowId mouse = start(1, 2, 64 * 1024, 99);
  loop.run();

  for (net::FlowId f : incast) {
    EXPECT_GT(dcqcn.marks_for(f), 0u) << "incast flow " << f << " unmarked";
  }
  EXPECT_EQ(dcqcn.marks_for(mouse), 0u)
      << "background flow marked despite crossing no congested link";
  // The cut flows walked back up through fast recovery at least once.
  EXPECT_GT(dcqcn.recoveries(), 0u);
}

// ---- traffic phase: determinism and tenant isolation ---------------------

fabric::ScaleConfig traffic_cfg() {
  fabric::ScaleConfig cfg;
  cfg.hosts = 8;
  cfg.vms_per_host = 8;
  cfg.tenants = 4;
  cfg.waves = 2;
  cfg.shards = 4;
  cfg.ip_changes = 0;
  cfg.rule_resets = 0;
  cfg.seed = 7;
  cfg.traffic.enabled = true;
  cfg.traffic.leaves = 2;
  cfg.traffic.spines = 2;
  cfg.traffic.host_gbps = 25;
  cfg.traffic.spine_gbps = 40;
  cfg.traffic.flows = 64;
  cfg.traffic.flow_kb = 64;
  return cfg;
}

TEST(TrafficPhaseTest, EcmpPlacementStableAcrossReruns) {
  const fabric::ScaleConfig cfg = traffic_cfg();
  const auto sched = fabric::storm::StormSchedule::draw(cfg);
  const fabric::TrafficReport a = fabric::run_traffic_phase(cfg, sched);
  const fabric::TrafficReport b = fabric::run_traffic_phase(cfg, sched);
  EXPECT_EQ(a.ecmp_fold, b.ecmp_fold);
  EXPECT_EQ(a.spine_crossings, b.spine_crossings);
  EXPECT_EQ(a.ecn_marks, b.ecn_marks);
  EXPECT_GT(a.spine_crossings, 0u);

  // The storm appends the block the standalone phase computes, and the
  // full report (storm + topology) serializes byte-identically on a rerun.
  const fabric::ScaleReport full = fabric::run_scale_storm(cfg);
  EXPECT_EQ(full.traffic.ecmp_fold, a.ecmp_fold);
  EXPECT_EQ(full.traffic.ecn_marks, a.ecn_marks);
  EXPECT_DOUBLE_EQ(full.traffic.fct_p99_us, a.fct_p99_us);
  const std::string json = full.json();
  EXPECT_EQ(json, fabric::run_scale_storm(cfg).json());
  EXPECT_NE(json.find("\"topology\""), std::string::npos);
}

// The 128-host base every fabric preset of `masq_scaletest --trace` shares.
fabric::ScaleConfig fabric_preset_cfg() {
  fabric::ScaleConfig cfg;
  cfg.hosts = 128;
  cfg.vms_per_host = 4;
  cfg.tenants = 16;
  cfg.waves = 2;
  cfg.ip_changes = 32;
  cfg.rule_resets = 1;
  cfg.trace = true;
  cfg.traffic.enabled = true;
  cfg.traffic.leaves = 8;
  cfg.traffic.spines = 2;
  cfg.traffic.tenant_gbps = 5.0;
  return cfg;
}

// `masq_scaletest --mice`, shrunk to `flows` replayed flows.
fabric::ScaleConfig mice_cfg(std::size_t flows) {
  fabric::ScaleConfig cfg = fabric_preset_cfg();
  cfg.traffic.flows = flows;
  cfg.traffic.flow_kb = 16;
  cfg.traffic.elephant_every = 8;
  cfg.traffic.elephant_kb = 2048;
  return cfg;
}

// perf.sim_events counts the traffic-phase loop and the trace hash folds
// the phase's hash in; a storm without traffic keeps its own count.
TEST(TrafficPhaseTest, SimEventsCountTheTrafficLoop) {
  fabric::ScaleConfig off = mice_cfg(64);
  off.traffic.enabled = false;
  const fabric::ScaleReport storm = fabric::run_scale_storm(off);
  EXPECT_EQ(storm.traffic.sim_events, 0u);
  std::uint64_t prev = 0;
  for (const std::size_t flows : {64, 128}) {
    const fabric::ScaleReport r = fabric::run_scale_storm(mice_cfg(flows));
    EXPECT_GT(r.traffic.sim_events, prev) << flows << " flows";
    EXPECT_EQ(r.sim_events, storm.sim_events + r.traffic.sim_events);
    EXPECT_NE(r.traffic.trace_hash, 0u);
    EXPECT_EQ(r.trace_hash,
              (storm.trace_hash ^ r.traffic.trace_hash) * 0x100000001b3ull);
    prev = r.traffic.sim_events;
  }
}

// The fabric-mode traffic stream, pinned. mice_cfg(128) is
// `masq_scaletest --mice --flows 128 --trace`, whose perf block prints the
// storm-plus-phase totals pinned in the last two lines.
TEST(TrafficPhaseTest, MiceEventStreamIsPinned) {
  const fabric::ScaleReport r = fabric::run_scale_storm(mice_cfg(128));
  EXPECT_EQ(r.traffic.sim_events, 5453u);
  EXPECT_EQ(r.traffic.trace_hash, 0x37c7cba5aa3168f9ull);
  EXPECT_EQ(r.sim_events, 23627u);
  EXPECT_EQ(r.trace_hash, 0x6bb1ec738c8abe21ull);
}

// `masq_scaletest --incast`.
fabric::ScaleConfig incast_cfg() {
  fabric::ScaleConfig cfg = fabric_preset_cfg();
  cfg.traffic.pattern = "incast";
  cfg.traffic.incast_fanin = 48;
  cfg.traffic.flows = 256;
  cfg.traffic.flow_kb = 256;
  return cfg;
}

// The incast stream, pinned like the mice stream: `masq_scaletest --incast
// --trace`, then the same with `--fail-spine 0 --fail-from 1 --fail-until
// 3`. Here many DCQCN cap changes land on a flow its own cap holds, and the
// outage mixes link-capacity changes in between.
TEST(TrafficPhaseTest, IncastEventStreamIsPinned) {
  const fabric::ScaleReport r = fabric::run_scale_storm(incast_cfg());
  EXPECT_EQ(r.traffic.sim_events, 13245u);
  EXPECT_EQ(r.traffic.trace_hash, 0x72a9c0528e4392dfull);
  EXPECT_EQ(r.sim_events, 31419u);
  EXPECT_EQ(r.trace_hash, 0xa9dd9a547a14c9e7ull);

  fabric::ScaleConfig outage = incast_cfg();
  outage.traffic.fail_spine = 0;
  outage.traffic.fail_from = sim::milliseconds(1);
  outage.traffic.fail_until = sim::milliseconds(3);
  const fabric::ScaleReport o = fabric::run_scale_storm(outage);
  EXPECT_EQ(o.traffic.sim_events, 14831u);
  EXPECT_EQ(o.traffic.trace_hash, 0x4fc1f5eb7d039929ull);
  EXPECT_EQ(o.sim_events, 33005u);
  EXPECT_EQ(o.trace_hash, 0x1b3cc6656a65dfb1ull);
}

TEST(TrafficPhaseTest, TenantRateLimitHoldsUnderIncast) {
  // Fig. 12 semantics on the fabric: with per-tenant limiter links in every
  // path, no tenant's aggregate ever exceeds its cap — even while the
  // incast congests the victim's rx link and DCQCN churns flow rates.
  fabric::ScaleConfig cfg = traffic_cfg();
  cfg.traffic.pattern = "incast";
  cfg.traffic.incast_fanin = 16;
  cfg.traffic.flow_kb = 256;
  cfg.traffic.tenant_gbps = 5.0;
  const auto sched = fabric::storm::StormSchedule::draw(cfg);
  const fabric::TrafficReport r = fabric::run_traffic_phase(cfg, sched);
  EXPECT_EQ(r.flows, 64u);
  EXPECT_GT(r.peak_tenant_gbps, 0.0);
  EXPECT_LE(r.peak_tenant_gbps, cfg.traffic.tenant_gbps + 1e-9);
  EXPECT_GT(r.ecn_marks, 0u);
  // Every tenant's limiter link is saturated here, so every flow lives at
  // a congested link and legitimately takes marks; the selectivity claim
  // (uncongested flows stay unmarked) is IncastThrottlesOnlyTheCongested-
  // Flows' job.
  EXPECT_GT(r.throttled_flows, 0u);
  EXPECT_LE(r.throttled_flows, r.flows);
}

}  // namespace
