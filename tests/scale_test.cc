// Scale tests for the sharded SDN control plane (DESIGN.md §12), built on
// the connection-storm harness in src/fabric/scale.*:
//   * the 10k-VM storm is deterministic — two runs of the same (config,
//     seed) serialize to byte-identical reports — and every shard's
//     service-queue depth stays bounded by the host count (the one
//     in-flight batch per (host, shard) invariant),
//   * a single-shard outage degrades only its partition: other shards see
//     zero degraded serves and zero unreachable queries, and every
//     connection attempt still reaches a terminal outcome,
//   * the event streams (event count and FNV-1a trace hash) of the smoke
//     storm, the --churn --smoke storm (warm path), the shard-outage
//     storm (degraded path), the 10k-VM storm with no batch window
//     (pass-through misses), the smoke storms with every local cost
//     at zero and the smoke storms with no start jitter are pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "fabric/scale.h"

namespace {

// The tool's default 10k-VM storm (16 hosts x 625 VMs, 8 shards) with the
// default churn. Kept identical to `masq_scaletest` with no arguments so
// this test pins the exact configuration CI archives as BENCH_scale.json.
fabric::ScaleConfig storm_10k() {
  fabric::ScaleConfig cfg;
  cfg.ip_changes = 200;
  cfg.rule_resets = 3;
  return cfg;
}

TEST(ScaleStormTest, TenKiloVmStormIsDeterministic) {
  const fabric::ScaleReport a = fabric::run_scale_storm(storm_10k());
  const fabric::ScaleReport b = fabric::run_scale_storm(storm_10k());
  EXPECT_EQ(a.json(), b.json());  // byte-identical, not merely equivalent

  // 16 hosts x 625 VMs x 2 conns x 3 waves, plus the rule-reset re-dials.
  EXPECT_EQ(a.vms, 10'000u);
  EXPECT_GE(a.attempted, 60'000u);
  // Every attempt reached a terminal outcome — nothing hung in a lane or
  // a shard queue when the loop drained.
  EXPECT_EQ(a.attempted, a.ok + a.degraded + a.unavailable + a.not_found);
  // No outage is configured, so nothing may degrade or bounce.
  EXPECT_EQ(a.degraded, 0u);
  EXPECT_EQ(a.unavailable, 0u);
}

TEST(ScaleStormTest, PerShardQueueDepthBoundedByHostCount) {
  const fabric::ScaleConfig cfg = storm_10k();
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  ASSERT_EQ(r.per_shard.size(), cfg.shards);
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    // At most one query_batch in flight per (host, shard): the depth a
    // shard's FIFO can reach is the number of hosts, independent of the
    // 10k VMs behind them.
    EXPECT_LE(r.per_shard[s].max_queue_depth, cfg.hosts)
        << "shard " << s << " queue exceeded the per-host-batch bound";
    // The storm actually exercised every shard.
    EXPECT_GT(r.per_shard[s].queries, 0u) << "shard " << s << " idle";
  }
  // The miss lanes amortized: batches carried more keys than round trips.
  EXPECT_GT(r.agent_batches, 0u);
  EXPECT_GT(r.agent_batched_keys, r.agent_batches);
}

// Shard 1 is dark for waves 2 and 3; wave 1 warmed the caches, so keys on
// the downed shard are served stale-but-bounded (or bounce when the VM
// never cached its peer).
fabric::ScaleConfig storm_outage() {
  fabric::ScaleConfig cfg;
  cfg.tenants = 5;
  cfg.hosts = 8;
  cfg.vms_per_host = 50;
  cfg.conns_per_vm = 2;
  cfg.waves = 3;  // waves start at 0 / 50 / 100 ms
  cfg.shards = 4;
  cfg.ip_changes = 20;
  cfg.rule_resets = 1;
  cfg.down_shard = 1;
  cfg.down_from = sim::milliseconds(45);
  cfg.down_until = sim::milliseconds(150);
  return cfg;
}

TEST(ScaleStormTest, ShardOutageDegradesOnlyItsPartition) {
  const fabric::ScaleReport r = fabric::run_scale_storm(storm_outage());

  // All attempts terminal, and the outage visibly bit.
  EXPECT_EQ(r.attempted, r.ok + r.degraded + r.unavailable + r.not_found);
  EXPECT_GT(r.degraded + r.unavailable, 0u) << "outage window never hit";

  ASSERT_EQ(r.per_shard.size(), 4u);
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    if (s == 1) {
      EXPECT_GT(r.per_shard[s].degraded_serves + r.per_shard[s].unreachable,
                0u)
          << "downed shard shows no outage effects";
    } else {
      // The blast radius stops at the partition boundary.
      EXPECT_EQ(r.per_shard[s].degraded_serves, 0u) << "shard " << s;
      EXPECT_EQ(r.per_shard[s].unreachable, 0u) << "shard " << s;
      EXPECT_GT(r.per_shard[s].queries, 0u) << "shard " << s;
    }
  }
}

// The smoke preset from `masq_scaletest --smoke`: 4 hosts x 25 VMs with the
// default timing knobs — big enough to exercise batching, churn, and every
// shard; small enough to run many times in one test.
fabric::ScaleConfig storm_smoke() {
  fabric::ScaleConfig cfg;
  cfg.tenants = 5;
  cfg.hosts = 4;
  cfg.vms_per_host = 25;
  cfg.waves = 2;
  cfg.shards = 4;
  cfg.ip_changes = 20;
  cfg.rule_resets = 1;
  return cfg;
}

// The traced event stream is a pure function of (config, seed): two runs
// agree on the report, the event count and the FNV-1a trace hash. The hash
// is pinned, so a change that moves one event or reorders one tie fails
// here even when every report field survives it.
TEST(ScaleStormTest, SmokeStormEventStreamIsPinned) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.trace = true;
  const fabric::ScaleReport a = fabric::run_scale_storm(cfg);
  const fabric::ScaleReport b = fabric::run_scale_storm(cfg);
  EXPECT_EQ(a.json(), b.json());
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.sim_events, 3013u);
  EXPECT_EQ(a.trace_hash, 0x1686d2c22b5a6ff5ull);
  // Tracing observes only.
  cfg.trace = false;
  const fabric::ScaleReport untraced = fabric::run_scale_storm(cfg);
  EXPECT_EQ(untraced.json(), a.json());
  EXPECT_EQ(untraced.trace_hash, 0u);
}

// `masq_scaletest --churn --smoke`: the smoke topology with the warm path
// on, 6 waves 10 ms apart and ~2 vBond IP changes per VM.
fabric::ScaleConfig storm_churn_smoke() {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.warm = true;
  cfg.waves = 6;
  cfg.wave_gap = sim::milliseconds(10);
  cfg.spread = sim::milliseconds(5);
  cfg.ip_changes = 2 * cfg.hosts * cfg.vms_per_host;
  cfg.rule_resets = 2;
  return cfg;
}

// Runs `cfg` traced and returns (event count, trace hash).
std::pair<std::uint64_t, std::uint64_t> traced_stream(fabric::ScaleConfig cfg) {
  cfg.trace = true;
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  return {r.sim_events, r.trace_hash};
}

// The warm path (parked pairs, warm tokens, speculative prefill) and the
// degraded path (stale serves, unreachable shard queries, buffered
// broadcasts) each pin their own stream next to the smoke storm's.
TEST(ScaleStormTest, ChurnSmokeEventStreamIsPinned) {
  const auto [events, hash] = traced_stream(storm_churn_smoke());
  EXPECT_EQ(events, 5334u);
  EXPECT_EQ(hash, 0x028fbd2bc9f40270ull);
}

TEST(ScaleStormTest, ShardOutageEventStreamIsPinned) {
  const auto [events, hash] = traced_stream(storm_outage());
  EXPECT_EQ(events, 17627u);
  EXPECT_EQ(hash, 0x3c314a96bfa2a5ffull);
}

// A zero batch window leaves the host caches without lanes: every leader
// miss queries its shard directly (Controller::query_ex), with no lane,
// and concurrent misses for one key still ride the leader's query.
TEST(ScaleStormTest, PassThroughStormEventStreamIsPinned) {
  fabric::ScaleConfig cfg = storm_10k();
  cfg.batch_window = 0;
  cfg.trace = true;
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  EXPECT_EQ(r.agent_batches, 0u);
  EXPECT_EQ(r.coalesced, 135u);
  EXPECT_EQ(r.sim_events, 356'684u);
  EXPECT_EQ(r.trace_hash, 0x04a2f2624a7d52a4ull);
}

// Every local cost at zero: cache hits, the setup ladder, the warm ladder
// and pair reuse all finish in the event that started them, so these
// streams pin the steps that take no time at all.
fabric::ScaleConfig zero_local_costs(fabric::ScaleConfig cfg) {
  cfg.cache_hit_cost = 0;
  cfg.ladder_cost = 0;
  cfg.warm_ladder_cost = 0;
  cfg.warm_reuse_cost = 0;
  return cfg;
}

TEST(ScaleStormTest, ZeroCostStormEventStreamsArePinned) {
  const auto [events, hash] = traced_stream(zero_local_costs(storm_smoke()));
  EXPECT_EQ(events, 2448u);
  EXPECT_EQ(hash, 0x05dfaa07ece194e4ull);
  const auto [churn_events, churn_hash] =
      traced_stream(zero_local_costs(storm_churn_smoke()));
  EXPECT_EQ(churn_events, 2880u);
  EXPECT_EQ(churn_hash, 0x9e55cc5282771054ull);
}

// No spread: every wave-0 connect starts at t=0, inside the t=0 event that
// launches it, and each later wave's starts all tie at the wave's time.
// With no wave gap either, every connect, IP change and rule reset starts
// at t=0, and the IP changes race the connects to their peers (75 of them
// find no mapping).
TEST(ScaleStormTest, UnjitteredStormEventStreamsArePinned) {
  fabric::ScaleConfig cfg = storm_smoke();
  cfg.spread = 0;
  const auto [events, hash] = traced_stream(cfg);
  EXPECT_EQ(events, 1725u);
  EXPECT_EQ(hash, 0x358b39e79f7a04afull);

  cfg.wave_gap = 0;
  cfg.trace = true;
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  EXPECT_EQ(r.not_found, 75u);
  EXPECT_EQ(r.sim_events, 1285u);
  EXPECT_EQ(r.trace_hash, 0xbe72373e51fb0699ull);

  fabric::ScaleConfig churn = storm_churn_smoke();
  churn.spread = 0;
  const auto [churn_events, churn_hash] = traced_stream(churn);
  EXPECT_EQ(churn_events, 5157u);
  EXPECT_EQ(churn_hash, 0xb716a3232cc52a24ull);
}

TEST(ScaleStormTest, ReportEchoesTopologyAndSeed) {
  fabric::ScaleConfig cfg;
  cfg.tenants = 3;
  cfg.hosts = 2;
  cfg.vms_per_host = 10;
  cfg.waves = 1;
  cfg.shards = 2;
  cfg.seed = 42;
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  EXPECT_EQ(r.tenants, 3u);
  EXPECT_EQ(r.hosts, 2u);
  EXPECT_EQ(r.vms, 20u);
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.seed, 42u);
  // The JSON report carries the per-shard array at the configured width.
  const std::string j = r.json();
  EXPECT_NE(j.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(j.find("\"seed\": 42"), std::string::npos);
}

}  // namespace
