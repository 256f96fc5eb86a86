// Fig. 20: Graph500 BFS and SSSP performance (TEPS), 16 MPI processes on
// two instances. The paper ran scale=26/edgefactor=16 on real hardware; we
// run a scaled-down Kronecker graph with the same communication structure
// and validate every result. FreeFlow is reported too (the paper could not
// run it due to memory corruption in FreeFlow itself).
#include <cstdio>

#include "apps/graph500.h"
#include "bench/bench_util.h"

namespace {

apps::graph500::Result run_one(fabric::Candidate c,
                               bench::BedOptions opts = {},
                               int num_instances = 2) {
  sim::EventLoop loop;
  auto bed = bench::make_bed(loop, c, opts);
  apps::graph500::Config cfg;
  cfg.scale = 14;
  cfg.edge_factor = 16;
  cfg.num_ranks = 16;
  cfg.num_instances = num_instances;
  cfg.num_roots = 3;
  return apps::graph500::run(*bed, cfg);
}

}  // namespace

int main() {
  bench::title("Fig. 20", "Graph500 BFS / SSSP (TEPS, scale=14 ef=16, "
                          "16 ranks on 2 instances)");
  std::printf("%-10s | %12s %12s | %10s %10s | %s\n", "candidate",
              "BFS MTEPS", "SSSP MTEPS", "BFS ok", "SSSP ok", "note");
  std::printf("%.84s\n",
              "-----------------------------------------------------------"
              "-------------------------");
  for (fabric::Candidate c :
       {fabric::Candidate::kHostRdma, fabric::Candidate::kSriov,
        fabric::Candidate::kMasq, fabric::Candidate::kFreeFlow}) {
    const auto r = run_one(c);
    std::printf("%-10s | %12.1f %12.1f | %10s %10s | %s\n",
                fabric::to_string(c), r.bfs.teps / 1e6, r.sssp.teps / 1e6,
                r.bfs.validated ? "valid" : "INVALID",
                r.sssp.validated ? "valid" : "INVALID",
                c == fabric::Candidate::kFreeFlow
                    ? "(paper: could not run)"
                    : "");
  }
  bench::note("paper shape (scale 26): MasQ has almost no degradation vs "
              "Host-RDMA and matches SR-IOV on both kernels; absolute TEPS "
              "differ since the graph is scaled down");

  // Fabric re-run (DESIGN.md §17): the same MasQ workload spread over 8
  // hosts, one per leaf, so every rank exchange crosses the leaf-spine
  // fabric — first with a full-rate core, then oversubscribed.
  bench::title("Fig. 20 (fabric)", "Graph500 on MasQ, 16 ranks over 8 "
                                   "hosts across a leaf-spine fabric");
  std::printf("%-22s | %12s %12s | %10s %10s\n", "fabric", "BFS MTEPS",
              "SSSP MTEPS", "BFS ok", "SSSP ok");
  std::printf("%.76s\n",
              "-----------------------------------------------------------"
              "-----------------");
  struct Variant {
    const char* name;
    net::FabricConfig topo;
  } variants[] = {
      {"direct wire", {}},
      {"8 leaves x 2 @40G", bench::cross_leaf_fabric(8, 2, 40.0)},
      {"8 leaves x 1 @10G", bench::cross_leaf_fabric(8, 1, 10.0)},
  };
  for (const auto& v : variants) {
    bench::BedOptions opts;
    opts.instances = 8;
    opts.num_hosts = 8;
    opts.topology = v.topo;
    const auto r = run_one(fabric::Candidate::kMasq, opts, 8);
    std::printf("%-22s | %12.1f %12.1f | %10s %10s\n", v.name,
                r.bfs.teps / 1e6, r.sssp.teps / 1e6,
                r.bfs.validated ? "valid" : "INVALID",
                r.sssp.validated ? "valid" : "INVALID");
  }
  bench::note("a full-rate spine tier costs BFS/SSSP nothing (max-min "
              "shares match the direct wire); only starving the core to "
              "10 Gbps bends the curve — and validation still passes, the "
              "fabric changes rates, never bytes");
  return 0;
}
