// Connection-storm scale harness (DESIGN.md §12): drives the sharded SDN
// control plane — Controller shards + one MappingCache per host — with a
// T-tenant × H-host × V-VMs/host workload, WITHOUT building the full
// per-VM RNIC/virtio stack (a 10k-VM testbed would spend all its wall
// clock on data-plane machinery this harness does not measure).
//
// What it models, per connection attempt:
//   resolve (host cache / miss lane / shard query)  +  a fixed "verb ladder"
//   charge standing in for the rest of Fig. 15's setup sequence.
// What it measures: connection-setup throughput, p50/p99/max setup
// latency, resolve-cache hit rate, per-shard queue depth and query
// counts, and per-shard degraded serves under a partition outage.
//
// Everything — peer choice, wave jitter, churn times — derives from one
// seeded sim::Rng and virtual time, so a (config, seed) pair maps to
// exactly one event stream and one report: `masq_scaletest` runs are
// byte-identical across machines (the determinism test diffs two of
// them), and report JSON is emitted with fixed field order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace fabric {

// Fabric traffic phase (DESIGN.md §17): after the control-plane storm, a
// slice of the drawn connection schedule is replayed as data flows over a
// leaf–spine Clos fabric (net::FabricTopology) with per-link max-min
// sharing, ECMP placement, multi-hop DCQCN, and optional per-tenant rate
// limiters. The phase is a pure function of (config, schedule) and runs on
// its own event loop after the storm.
struct TrafficConfig {
  bool enabled = false;
  // Topology (net::FabricTopology; leaves are clamped to the host count).
  // A host's NIC links are its links to its leaf, so one leaf is the
  // paper's 2-server wire generalized to H hosts.
  std::size_t leaves = 1;
  std::size_t spines = 1;
  double host_gbps = 25.0;   // NIC link capacity
  double spine_gbps = 40.0;  // leaf<->spine link capacity
  // Workload: the first `flows` wave connections become data flows.
  //   pairs  — src/dst hosts straight from the schedule;
  //   incast — the first `incast_fanin` flows are redirected at host 0
  //            (the fan-in victim); the rest stay background pairs.
  std::string pattern = "pairs";
  std::size_t flows = 256;
  std::size_t incast_fanin = 32;
  std::uint64_t flow_kb = 64;
  // Elephant/mice mix: every Nth flow (by schedule index — no extra random
  // draws) carries elephant_kb instead of flow_kb. 0 = mice only.
  std::size_t elephant_every = 0;
  std::uint64_t elephant_kb = 4096;
  bool dcqcn = true;
  // Per-tenant aggregate rate limiter (Fig. 12 semantics), modeled as one
  // virtual link per tenant prepended to its flows' paths. 0 = off.
  double tenant_gbps = 0;
  // Leaf-affine (tenant-packed) host placement instead of the scattered
  // schedule layout (sdn::leaf_affine_host) — the placement ablation.
  bool placement = false;
  // Spine outage: spine `fail_spine`'s links drop to zero capacity over
  // [fail_from, fail_until) — flows crossing it stall and must recover.
  int fail_spine = -1;
  sim::Time fail_from = 0;
  sim::Time fail_until = 0;
};

struct TrafficReport {
  bool enabled = false;
  std::uint64_t flows = 0;
  std::uint64_t total_bytes = 0;
  double elapsed_ms = 0;  // first start to last completion
  double agg_gbps = 0;    // total_bytes over elapsed
  // Flow-completion times (µs).
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double fct_max_us = 0;
  // ECMP determinism: FNV-1a fold of every flow's (index, spine) choice;
  // -1 folds for intra-leaf flows. Identical across reruns.
  std::uint64_t ecmp_fold = 0;
  std::size_t spine_crossings = 0;  // flows that traversed a spine
  // Congestion outcomes.
  std::uint64_t ecn_marks = 0;          // CNPs delivered by DCQCN
  std::uint64_t dcqcn_recoveries = 0;   // completed post-cut recoveries
  std::uint64_t throttled_flows = 0;    // flows that took >= 1 mark
  double peak_spine_util = 0;   // max leaf<->spine utilization sampled
  double peak_tenant_gbps = 0;  // max per-tenant aggregate rate sampled
  // NOT serialized, because adding them to the "topology" block would
  // change report bytes that tests and CI pin: the effective topology
  // shape, and the phase loop's executed events and trace hash (0 unless
  // cfg.trace was set).
  std::size_t hosts = 0;
  std::size_t leaves = 0;
  std::size_t spines = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t trace_hash = 0;
};

struct ScaleConfig {
  // Topology: tenants × hosts × VMs-per-host. Total VMs = hosts * vms.
  std::size_t tenants = 10;
  std::size_t hosts = 16;
  std::size_t vms_per_host = 625;  // 16 * 625 = the 10k-VM storm
  // Each VM opens this many connections per wave, to seeded-random peers
  // of its own tenant.
  std::size_t conns_per_vm = 2;
  std::size_t waves = 3;
  sim::Time wave_gap = sim::milliseconds(50);
  // Connection starts are jittered uniformly over this window within the
  // wave (a storm front, not a single synchronized tick).
  sim::Time spread = sim::milliseconds(10);

  // Control-plane geometry: sdn::ControllerConfig and sdn::CacheConfig.
  std::size_t shards = 8;
  sim::Time query_rtt = sim::microseconds(100);
  sim::Time query_service = sim::microseconds(1);
  sim::Time batch_window = sim::microseconds(5);
  sim::Time cache_hit_cost = sim::microseconds(2);
  // Stand-in for the rest of the connection-setup ladder (reg_mr..RTS
  // minus the resolve), so latency and throughput have Fig. 15-shaped
  // magnitudes without simulating every verb.
  sim::Time ladder_cost = sim::microseconds(30);

  // Churn: vBond IP changes (unregister + re-register under a new vGID)
  // and security-rule resets (every VM of one tenant re-resolves its
  // peers), both at seeded-random times across the run.
  std::size_t ip_changes = 0;
  std::size_t rule_resets = 0;

  // Warm connection-setup path (DESIGN.md §14), modeled analytically so
  // the warm-off event stream stays bit-identical:
  //   * every VM boots with a pool of pre-staged QP/CQ ladders (tokens);
  //     a pooled setup pays warm_ladder_cost instead of ladder_cost, and
  //     tokens restock lazily from elapsed virtual time (the background
  //     refill, with no timer events of its own);
  //   * a completed (src,dst) pair is parked for a reuse TTL; a repeat
  //     connect inside the TTL to the SAME peer generation reuses the RTS
  //     QP for warm_reuse_cost — no resolve, no ladder. A churned peer
  //     (generation bump) invalidates the parked pair lazily;
  //   * host caches run with insert_pushes, so controller pushes land
  //     mappings in every cache ahead of the first miss.
  // The pool size, refill period and reuse TTL are constants in scale.cc.
  bool warm = false;
  sim::Time warm_ladder_cost = sim::microseconds(10);  // RTR→RTS only
  sim::Time warm_reuse_cost = sim::microseconds(2);    // hello round only

  // Partition outage: shard `down_shard` (when >= 0) is unreachable over
  // [down_from, down_until). Proves degradation stays scoped.
  int down_shard = -1;
  sim::Time down_from = 0;
  sim::Time down_until = 0;

  std::uint64_t seed = 1;

  // Mix every executed event into the loop's FNV-1a trace hash (reported
  // via ScaleReport::trace_hash). Costs a few percent of wall clock; the
  // determinism tests turn it on to pin the exact event stream.
  bool trace = false;

  // Fabric traffic phase appended after the storm (TrafficConfig above).
  // Disabled by default; the "topology" JSON block is emitted only when
  // enabled, so traffic-off reports stay byte-identical to the legacy
  // schema.
  TrafficConfig traffic;
};

struct ShardReport {
  std::uint64_t queries = 0;           // lookups this shard answered
  std::uint64_t batched_queries = 0;   // subset arriving via query_batch
  std::uint64_t unreachable = 0;       // lookups bounced off an outage
  std::size_t max_queue_depth = 0;     // service-queue high-water mark
  std::uint64_t degraded_serves = 0;   // stale-but-bounded cache serves
  std::size_t table_size = 0;          // directory slice at end of run
};

struct ScaleReport {
  // Workload shape (echoed so a report is self-describing).
  std::size_t tenants = 0;
  std::size_t hosts = 0;
  std::size_t vms = 0;
  std::size_t shards = 0;
  std::uint64_t seed = 0;

  // Outcomes.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;          // fresh resolve (kOk)
  std::uint64_t degraded = 0;    // served stale-but-bounded (kOkDegraded)
  std::uint64_t unavailable = 0; // shard down, nothing fresh enough
  std::uint64_t not_found = 0;   // peer unregistered mid-storm

  // Latency (µs) over completed (ok + degraded) setups.
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  // Throughput over the storm's virtual duration.
  double elapsed_ms = 0;
  double kconn_per_s = 0;

  // Cache tier, aggregated over hosts.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  double hit_rate = 0;
  // Miss-lane flushes and the keys they carried (sdn::MappingCache::
  // batches / batched_keys; the names are the report's JSON keys).
  std::uint64_t agent_batches = 0;
  std::uint64_t agent_batched_keys = 0;

  // Warm-path split of completed setups (cfg.warm only; the "warm" JSON
  // block is emitted only when warm_enabled, so warm-off reports stay
  // byte-identical to the pre-warm-path engine).
  bool warm_enabled = false;
  std::uint64_t warm_pooled = 0;    // paid warm_ladder_cost (token hit)
  std::uint64_t warm_reused = 0;    // paid warm_reuse_cost (parked pair)
  std::uint64_t warm_cold = 0;      // pool empty: full ladder_cost
  std::uint64_t warm_prefills = 0;  // mappings pushed ahead of any miss

  // Fabric traffic phase (cfg.traffic.enabled only; the "topology" block
  // is emitted only when it ran).
  TrafficReport traffic;

  std::vector<ShardReport> per_shard;

  // ---- engine observability, NOT serialized by json() ----
  // Deterministic, but kept out of the report JSON (the scaletest tool
  // prints them in its "perf" block). Both cover the traffic phase too,
  // when it ran: its events add in, its trace hash folds in.
  std::uint64_t sim_events = 0;  // events executed
  std::uint64_t trace_hash = 0;  // FNV fold; 0 unless cfg.trace was set

  // Fixed field order, fixed formatting, no timestamps — two identical
  // (config, seed) runs serialize to byte-identical JSON.
  std::string json() const;
};

ScaleReport run_scale_storm(const ScaleConfig& cfg);

}  // namespace fabric
