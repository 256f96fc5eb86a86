// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Every binary prints the paper's rows/series next to the values measured
// on the simulated testbed; absolute numbers need not match the authors'
// hardware, but the *shape* (who wins, by what factor, where crossovers
// fall) should. See EXPERIMENTS.md for the recorded comparison.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "fabric/testbed.h"

namespace bench {

inline void title(const std::string& experiment, const std::string& what) {
  std::printf("\n==========================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("==========================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

struct BedOptions {
  int instances = 2;
  bool masq_use_pf = false;
  bool masq_disable_cache = false;
  std::uint64_t host_dram = 48ull << 30;
  std::uint64_t vm_mem = 8ull << 30;
  int num_hosts = 2;
  // Warm-path connection pool (DESIGN.md §14); MasQ only, off by default
  // so every other figure keeps the cold-path golden numbers bit-exact.
  masq::WarmPoolConfig masq_warm;
  // Leaf–spine fabric under the hosts (DESIGN.md §17). The default single
  // leaf is the paper's direct wire.
  net::FabricConfig topology;
};

// One host per leaf, so any two testbed hosts talk across the spine tier —
// the smallest fabric that puts inter-instance traffic on shared spine
// links (spine_gbps below the 40 Gbps NIC models an oversubscribed core).
inline net::FabricConfig cross_leaf_fabric(std::size_t hosts,
                                           std::size_t spines,
                                           double spine_gbps) {
  net::FabricConfig fc;
  fc.leaves = hosts;
  fc.spines = spines;
  fc.spine_gbps = spine_gbps;
  return fc;
}

inline std::unique_ptr<fabric::Testbed> make_bed(sim::EventLoop& loop,
                                                 fabric::Candidate c,
                                                 BedOptions opts = {}) {
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  cfg.num_hosts = opts.num_hosts;
  cfg.masq_use_pf = opts.masq_use_pf;
  cfg.masq_disable_cache = opts.masq_disable_cache;
  cfg.cal.host_dram_bytes = opts.host_dram;
  cfg.cal.vm_mem_bytes = opts.vm_mem;
  cfg.masq_warm = opts.masq_warm;
  cfg.topology = opts.topology;
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(opts.instances);
  return bed;
}

// Runs a coroutine scenario to completion on the bed's loop.
inline void run(fabric::Testbed& bed, sim::Task<void> scenario) {
  bed.loop().spawn(std::move(scenario));
  bed.loop().run();
}

}  // namespace bench
