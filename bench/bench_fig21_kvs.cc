// Fig. 21: HERD-style key-value store throughput vs number of clients
// (95% GET / 5% PUT, 16 B keys, 32 B values, RC transport).
#include <cstdio>

#include "apps/kvs.h"
#include "bench/bench_util.h"

namespace {

double mops(fabric::Candidate c, int clients, bench::BedOptions opts = {}) {
  sim::EventLoop loop;
  auto bed = bench::make_bed(loop, c, opts);
  apps::kvs::Config cfg;
  cfg.num_clients = clients;
  cfg.warmup = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(5);
  cfg.num_keys = 50'000;
  return apps::kvs::run(*bed, cfg).mops;
}

}  // namespace

int main() {
  bench::title("Fig. 21", "KVS throughput vs number of clients (Mops)");
  const int clients[] = {2, 4, 6, 8, 10, 12, 14};
  std::printf("%-10s", "clients");
  for (int n : clients) std::printf(" %7d", n);
  std::printf("\n%.70s\n",
              "-----------------------------------------------------------"
              "-----------");
  for (fabric::Candidate c : fabric::kAllCandidates) {
    std::printf("%-10s", fabric::to_string(c));
    for (int n : clients) std::printf(" %7.2f", mops(c, n));
    std::printf("\n");
  }
  bench::note("paper: MasQ == Host-RDMA, peaking at 9.7 Mops with the RNIC "
              "as the bottleneck; SR-IOV ~1 Mops lower (IOMMU translation "
              "per DMA); FreeFlow flatlines ~1 Mops at the FFR");

  // Fabric re-run (DESIGN.md §17): server and clients on hosts one leaf
  // apart, so every GET/PUT crosses the spine tier.
  bench::title("Fig. 21 (fabric)", "MasQ KVS across a leaf-spine fabric");
  struct Variant {
    const char* name;
    net::FabricConfig topo;
  } variants[] = {
      {"direct", {}},
      {"2x2@40G", bench::cross_leaf_fabric(2, 2, 40.0)},
      {"2x1@10G", bench::cross_leaf_fabric(2, 1, 10.0)},
  };
  std::printf("%-10s", "fabric");
  for (int n : clients) std::printf(" %7d", n);
  std::printf("\n%.70s\n",
              "-----------------------------------------------------------"
              "-----------");
  for (const auto& v : variants) {
    bench::BedOptions opts;
    opts.topology = v.topo;
    std::printf("%-10s", v.name);
    for (int n : clients) {
      std::printf(" %7.2f", mops(fabric::Candidate::kMasq, n, opts));
    }
    std::printf("\n");
  }
  bench::note("small KVS messages are latency-bound, not rate-bound: the "
              "full-rate fabric matches the direct wire and even the "
              "starved 10 Gbps spine only clips the top of the curve");
  return 0;
}
