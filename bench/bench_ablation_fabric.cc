// Ablation: leaf–spine fabric congestion (DESIGN.md §17). The traffic
// phase replays a slice of the 128-host storm schedule as data flows over
// a parameterized Clos fabric — per-link max-min sharing, FNV-1a ECMP,
// multi-hop DCQCN, per-tenant rate limiters — and each table below turns
// one knob: topology, host placement, incast fan-in, elephant/mice mix,
// and the tenant cap. The phase is a pure function of (config, schedule),
// so every row is replayable and identical at any storm thread count.
#include <cstdio>

#include "bench/bench_util.h"
#include "fabric/traffic.h"
#include "sdn/placement.h"

namespace {

// The 128-host workload every table starts from: 8 leaves x 2 spines,
// 25 Gbps host links under a 40 Gbps spine tier (16 hosts/leaf => 16:4
// oversubscription toward the core), 256 x 64 KB flows drawn from the
// storm schedule's first wave.
fabric::ScaleConfig base_cfg() {
  fabric::ScaleConfig cfg;
  cfg.hosts = 128;
  cfg.vms_per_host = 4;
  cfg.tenants = 16;
  cfg.conns_per_vm = 2;
  cfg.waves = 2;
  cfg.shards = 8;
  cfg.seed = 11;
  cfg.traffic.enabled = true;
  cfg.traffic.leaves = 8;
  cfg.traffic.spines = 2;
  cfg.traffic.host_gbps = 25.0;
  cfg.traffic.spine_gbps = 40.0;
  cfg.traffic.flows = 256;
  cfg.traffic.flow_kb = 64;
  return cfg;
}

fabric::TrafficReport run(const fabric::ScaleConfig& cfg) {
  return fabric::run_traffic_phase(cfg,
                                   fabric::storm::StormSchedule::draw(cfg));
}

void header() {
  std::printf("%-22s | %8s %8s %8s %8s | %6s %6s %6s | %5s\n", "variant",
              "agg Gb/s", "p50 us", "p99 us", "max us", "cross", "marks",
              "recov", "util");
  std::printf("%.94s\n",
              "-----------------------------------------------------------"
              "-----------------------------------");
}

void row(const char* name, const fabric::TrafficReport& r) {
  std::printf("%-22s | %8.2f %8.0f %8.0f %8.0f | %6zu %6llu %6llu | %5.2f\n",
              name, r.agg_gbps, r.fct_p50_us, r.fct_p99_us, r.fct_max_us,
              r.spine_crossings, static_cast<unsigned long long>(r.ecn_marks),
              static_cast<unsigned long long>(r.dcqcn_recoveries),
              r.peak_spine_util);
}

}  // namespace

int main() {
  bench::title("Ablation", "leaf-spine fabric congestion, 128 hosts "
                           "(8 leaves x 2 spines, 25/40 Gbps)");

  // ---- topology: direct wire vs Clos vs oversubscribed core ----
  std::printf("\n  -- topology (256 x 64 KB flows) --\n");
  header();
  {
    auto cfg = base_cfg();
    cfg.traffic.leaves = 1;  // one leaf: NIC links only
    row("direct wire", run(cfg));
  }
  row("leafspine 8x2 @40G", run(base_cfg()));
  {
    auto cfg = base_cfg();
    cfg.traffic.spines = 1;
    cfg.traffic.spine_gbps = 10.0;
    row("overspine 8x1 @10G", run(cfg));
  }
  bench::note("the direct wire sees no spine crossings or marks by "
              "construction; shrinking the core to one 10 Gbps spine "
              "drives utilization to 1.0 and stretches the FCT tail");

  // ---- placement: scattered schedule layout vs leaf-affine packing ----
  std::printf("\n  -- host placement (sdn::leaf_affine_host) --\n");
  header();
  const auto scattered = run(base_cfg());
  row("scattered (vm/hosts)", scattered);
  fabric::TrafficReport affine;
  {
    auto cfg = base_cfg();
    cfg.traffic.placement = true;
    affine = run(cfg);
    row("leaf-affine packing", affine);
  }
  std::printf("  spine-crossing rate: %.2f scattered -> %.2f leaf-affine\n",
              static_cast<double>(scattered.spine_crossings) /
                  static_cast<double>(scattered.flows),
              static_cast<double>(affine.spine_crossings) /
                  static_cast<double>(affine.flows));
  bench::note("leaf-affine placement packs each tenant's VMs onto "
              "contiguous hosts; the leaf tier absorbs same-tenant flows "
              "that used to cross the spine (same per-host VM counts, so "
              "the control plane is untouched)");

  // ---- incast fan-in sweep (DCQCN recovery path) ----
  std::printf("\n  -- incast fan-in at host 0 (256 KB flows) --\n");
  header();
  for (std::size_t fanin : {8u, 16u, 32u, 48u, 64u}) {
    auto cfg = base_cfg();
    cfg.traffic.pattern = "incast";
    cfg.traffic.incast_fanin = fanin;
    cfg.traffic.flow_kb = 256;
    char name[32];
    std::snprintf(name, sizeof name, "fan-in %zu", fanin);
    row(name, run(cfg));
  }
  bench::note("every added sender splits host 0's 25 Gbps down-link "
              "further: the FCT tail (p99/max) stretches with the fan-in "
              "and rate-cut recoveries appear, while the background pairs "
              "keep their FCT (p50 barely moves)");

  // ---- elephant/mice mix ----
  std::printf("\n  -- elephant/mice mix (512 flows, 16 KB mice) --\n");
  header();
  for (std::size_t every : {0u, 8u, 4u}) {
    auto cfg = base_cfg();
    cfg.traffic.flows = 512;
    cfg.traffic.flow_kb = 16;
    cfg.traffic.elephant_every = every;
    cfg.traffic.elephant_kb = 2048;
    char name[32];
    if (every == 0) {
      std::snprintf(name, sizeof name, "mice only");
    } else {
      std::snprintf(name, sizeof name, "elephant every %zu", every);
    }
    row(name, run(cfg));
  }
  bench::note("2 MB elephants stretch the FCT tail (p99/max) and draw the "
              "ECN marks; the mice-dominated p50 moves far less — DCQCN "
              "throttles the flows actually occupying the shared links");

  // ---- per-tenant rate limits under incast congestion (Fig. 12) ----
  std::printf("\n  -- tenant rate limit under 48-way incast --\n");
  std::printf("%-22s | %10s %10s | %6s %6s\n", "cap (Gbps)", "peak tenant",
              "agg Gb/s", "marks", "thrtl");
  std::printf("%.64s\n",
              "----------------------------------------------------------"
              "------");
  for (double cap : {0.0, 10.0, 5.0, 2.5}) {
    auto cfg = base_cfg();
    cfg.traffic.pattern = "incast";
    cfg.traffic.incast_fanin = 48;
    cfg.traffic.flow_kb = 256;
    cfg.traffic.tenant_gbps = cap;
    const auto r = run(cfg);
    char name[32];
    if (cap == 0.0) {
      std::snprintf(name, sizeof name, "off");
    } else {
      std::snprintf(name, sizeof name, "%.1f", cap);
    }
    std::printf("%-22s | %10.3f %10.2f | %6llu %6llu\n", name,
                r.peak_tenant_gbps, r.agg_gbps,
                static_cast<unsigned long long>(r.ecn_marks),
                static_cast<unsigned long long>(r.throttled_flows));
  }
  bench::note("Fig. 12 semantics hold under fabric congestion: the peak "
              "per-tenant aggregate never exceeds the configured cap, at "
              "every cap, while the incast rages on the same fabric");
  return 0;
}
