#include "fabric/traffic.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "net/dcqcn.h"
#include "net/topology.h"
#include "sdn/placement.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/stats.h"

namespace fabric {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// One schedule connection turned into a data flow (resolved before the
// loop starts; nothing below consumes randomness).
struct FlowSpec {
  std::size_t src_host = 0;
  std::size_t dst_host = 0;
  std::size_t tenant = 0;
  std::uint64_t bytes = 0;
  sim::Time start = 0;
};

// Everything the in-flight callbacks touch, owned for the whole run.
struct TrafficDriver {
  sim::EventLoop loop;
  net::FluidNet net{loop};
  std::vector<net::LinkId> tx;  // per-host NIC serialization links
  std::vector<net::LinkId> rx;
  std::vector<net::LinkId> tenant_link;  // per-tenant rate limiters
  std::unique_ptr<net::FabricTopology> topo;
  std::unique_ptr<net::DcqcnController> dcqcn;
  sim::FlatMap<net::FlowId, std::size_t> flow_tenant;  // active flows
  std::vector<net::FlowId> flow_ids;  // by spec index; 0 until started
  sim::Stats fct_us;
  sim::Time last_end = 0;
  double peak_spine_util = 0;
  double peak_tenant_gbps = 0;

  // Utilization/tenant-aggregate high-water marks, sampled at every flow
  // completion (allocations only change at flow events, so completions see
  // every distinct allocation that follows one).
  void sample() {
    for (std::size_t s = 0; s < topo->config().spines; ++s) {
      for (net::LinkId l : topo->spine_links(s)) {
        const double cap = net.link_capacity_gbps(l);
        if (cap <= 0) continue;  // outage: nothing flows, skip the ratio
        peak_spine_util =
            std::max(peak_spine_util, net.link_load_gbps(l) / cap);
      }
    }
    if (!tenant_link.empty()) {
      std::vector<double> per_tenant(tenant_link.size(), 0.0);
      for (const auto& [flow, tenant] : flow_tenant) {
        per_tenant[tenant] += net.current_rate_gbps(flow);
      }
      for (double g : per_tenant) {
        peak_tenant_gbps = std::max(peak_tenant_gbps, g);
      }
    }
  }
};

}  // namespace

TrafficReport run_traffic_phase(const ScaleConfig& cfg,
                                const storm::StormSchedule& sched) {
  const TrafficConfig& tc = cfg.traffic;
  TrafficDriver d;
  if (cfg.trace) d.loop.enable_trace();
  d.tx.reserve(cfg.hosts);
  d.rx.reserve(cfg.hosts);
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    d.tx.push_back(d.net.add_link(tc.host_gbps, 0));
    d.rx.push_back(d.net.add_link(tc.host_gbps, 0));
  }
  d.topo = std::make_unique<net::FabricTopology>(
      d.net, cfg.hosts,
      net::FabricConfig{.leaves = tc.leaves,
                        .spines = tc.spines,
                        .spine_gbps = tc.spine_gbps});
  TrafficReport r;
  r.enabled = true;
  r.hosts = cfg.hosts;
  r.leaves = d.topo->config().leaves;
  r.spines = d.topo->config().spines;
  if (tc.tenant_gbps > 0) {
    d.tenant_link.reserve(cfg.tenants);
    for (std::size_t t = 0; t < cfg.tenants; ++t) {
      d.tenant_link.push_back(d.net.add_link(tc.tenant_gbps, 0));
    }
  }
  if (tc.dcqcn) {
    net::DcqcnParams dp;
    dp.seed = cfg.seed ^ 0xd00dfeedull;
    d.dcqcn = std::make_unique<net::DcqcnController>(d.loop, d.net, dp);
  }

  // Resolve the flow list up front: endpoints, placement remap, scenario
  // remap, sizes, ECMP spines. Pure arithmetic over the schedule.
  const std::size_t n = std::min<std::size_t>(tc.flows,
                                              sched.wave_conns.size());
  const std::size_t vms = storm::total_vms(cfg);
  std::vector<FlowSpec> specs(n);
  std::vector<std::vector<net::LinkId>> paths(n);
  std::uint64_t fold = kFnvOffset;
  sim::Time first_start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const storm::StormSchedule::Conn& c = sched.wave_conns[i];
    FlowSpec& f = specs[i];
    f.tenant = storm::tenant_of(cfg, c.src);
    f.src_host = tc.placement
                     ? sdn::leaf_affine_host(cfg.tenants, vms,
                                             cfg.vms_per_host, c.src)
                     : storm::host_of(cfg, c.src);
    f.dst_host = tc.placement
                     ? sdn::leaf_affine_host(cfg.tenants, vms,
                                             cfg.vms_per_host, c.dst)
                     : storm::host_of(cfg, c.dst);
    if (tc.pattern == "incast" && i < tc.incast_fanin) {
      f.dst_host = 0;  // the fan-in victim; the rest stay background
    }
    const bool elephant = tc.elephant_every > 0 && i % tc.elephant_every == 0;
    f.bytes = (elephant ? tc.elephant_kb : tc.flow_kb) * 1024;
    f.start = c.start;
    if (i == 0 || f.start < first_start) first_start = f.start;

    net::EcmpKey key;
    key.src_ip = static_cast<std::uint32_t>(c.src);
    key.dst_ip = static_cast<std::uint32_t>(c.dst);
    key.src_port = static_cast<std::uint16_t>(i);
    std::uint64_t spine_token = 0;  // intra-leaf: no spine
    const std::vector<net::LinkId> hops =
        d.topo->path(f.src_host, f.dst_host, key);
    if (!hops.empty()) {
      spine_token = 1 + d.topo->spine_for(key);
      ++r.spine_crossings;
    }
    std::vector<net::LinkId>& path = paths[i];
    if (!d.tenant_link.empty()) path.push_back(d.tenant_link[f.tenant]);
    path.push_back(d.tx[f.src_host]);
    path.insert(path.end(), hops.begin(), hops.end());
    path.push_back(d.rx[f.dst_host]);
    // ECMP placement fold: (index, spine choice) pairs, FNV-1a style.
    fold = (fold ^ i) * kFnvPrime;
    fold = (fold ^ spine_token) * kFnvPrime;
    r.total_bytes += f.bytes;
  }
  r.flows = n;
  r.ecmp_fold = fold;

  d.flow_ids.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    d.loop.schedule_at(specs[i].start, [&d, &tc, &specs, &paths, i] {
      const FlowSpec& f = specs[i];
      const net::FlowId flow = d.net.start_flow(
          paths[i], f.bytes, net::kUncapped, [&d, i, start = f.start] {
            d.fct_us.add(sim::to_us(d.loop.now() - start));
            d.last_end = std::max(d.last_end, d.loop.now());
            d.flow_tenant.erase(d.flow_ids[i]);
            d.sample();
          });
      d.flow_ids[i] = flow;
      d.flow_tenant[flow] = f.tenant;
      if (d.dcqcn != nullptr) d.dcqcn->manage(flow, tc.host_gbps);
    });
  }

  if (tc.fail_spine >= 0) {
    const std::size_t spine =
        static_cast<std::size_t>(tc.fail_spine) % tc.spines;
    d.loop.schedule_at(tc.fail_from, [&d, spine] {
      for (net::LinkId l : d.topo->spine_links(spine)) {
        d.net.set_link_capacity(l, 0);
      }
    });
    d.loop.schedule_at(tc.fail_until, [&d, &tc, spine] {
      for (net::LinkId l : d.topo->spine_links(spine)) {
        d.net.set_link_capacity(l, tc.spine_gbps);
      }
    });
  }

  d.loop.run();
  r.sim_events = d.loop.events_executed();
  r.trace_hash = cfg.trace ? d.loop.trace_hash() : 0;

  if (!d.fct_us.empty()) {
    r.fct_p50_us = d.fct_us.percentile(50.0);
    r.fct_p99_us = d.fct_us.percentile(99.0);
    r.fct_max_us = d.fct_us.max();
  }
  if (d.last_end > first_start) {
    r.elapsed_ms = sim::to_ms(d.last_end - first_start);
    // bytes * 8 bits over elapsed ns is exactly Gbit/s.
    r.agg_gbps = static_cast<double>(r.total_bytes) * 8.0 /
                 static_cast<double>(d.last_end - first_start);
  }
  if (d.dcqcn != nullptr) {
    r.ecn_marks = d.dcqcn->marks_delivered();
    r.dcqcn_recoveries = d.dcqcn->recoveries();
    for (std::size_t i = 0; i < n; ++i) {
      if (d.flow_ids[i] != 0 && d.dcqcn->marks_for(d.flow_ids[i]) > 0) {
        ++r.throttled_flows;
      }
    }
  }
  r.peak_spine_util = d.peak_spine_util;
  r.peak_tenant_gbps = d.peak_tenant_gbps;
  return r;
}

}  // namespace fabric
