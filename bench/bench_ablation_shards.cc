// Ablation: SDN control-plane sharding (DESIGN.md §12). Runs the same
// ~1000-VM connection storm against 1/2/4/8 controller shards and prints
// how per-shard queue pressure and tail setup latency respond. With one
// shard every resolve funnels through a single FIFO query service; each
// doubling of the shard count roughly halves the peak queue depth until
// the per-host miss lanes (one in-flight batch per host per shard)
// becomes the binding constraint.
#include <cstdio>

#include "bench/bench_util.h"
#include "fabric/scale.h"

namespace {

fabric::ScaleConfig storm(std::size_t shards) {
  fabric::ScaleConfig cfg;
  cfg.tenants = 8;
  cfg.hosts = 8;
  cfg.vms_per_host = 125;  // 1000 VMs
  cfg.conns_per_vm = 2;
  cfg.waves = 3;
  cfg.shards = shards;
  cfg.query_service = sim::microseconds(1);
  // Batching off: the host caches' one-batch-per-shard cap would mask the
  // queue pressure this ablation measures — here every miss hits the
  // shard's FIFO directly, so depth scales with concurrent misses.
  cfg.batch_window = 0;
  cfg.ip_changes = 50;
  cfg.rule_resets = 1;
  cfg.seed = 1;
  return cfg;
}

}  // namespace

int main() {
  bench::title("Ablation: controller shards",
               "1000-VM storm vs. shard count");
  bench::note("same workload/seed; only the shard count varies");
  std::printf("  %-7s %10s %10s %10s %12s %12s\n", "shards", "p50[us]",
              "p99[us]", "maxdepth", "kconn/s", "hit-rate");
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const fabric::ScaleReport r = fabric::run_scale_storm(storm(shards));
    std::size_t max_depth = 0;
    for (const auto& s : r.per_shard) {
      if (s.max_queue_depth > max_depth) max_depth = s.max_queue_depth;
    }
    std::printf("  %-7zu %10.3f %10.3f %10zu %12.3f %12.4f\n", shards,
                r.p50_us, r.p99_us, max_depth, r.kconn_per_s, r.hit_rate);
  }
  return 0;
}
