// Fig. 22 + Fig. 23: RDMA-Spark GroupBy/SortBy job completion time and the
// GroupBy per-stage breakdown (FlatMap / GroupByKey).
#include <cstdio>

#include "apps/sparklite.h"
#include "bench/bench_util.h"

namespace {

apps::spark::JobResult job(fabric::Candidate c, apps::spark::Workload w,
                           bench::BedOptions opts = {}) {
  sim::EventLoop loop;
  auto bed = bench::make_bed(loop, c, opts);
  return apps::spark::run(*bed, w, {});
}

}  // namespace

int main() {
  bench::title("Fig. 22", "Spark job completion time (s), 131072 x 1 KB "
                          "pairs, 8 mappers / 8 reducers");
  std::printf("%-10s | %10s %10s\n", "candidate", "GroupBy", "SortBy");
  std::printf("%.36s\n", "------------------------------------");
  apps::spark::JobResult groupby[4];
  int i = 0;
  for (fabric::Candidate c : fabric::kAllCandidates) {
    groupby[i] = job(c, apps::spark::Workload::kGroupBy);
    const auto sortby = job(c, apps::spark::Workload::kSortBy);
    std::printf("%-10s | %10.2f %10.2f\n", fabric::to_string(c),
                groupby[i].total_s, sortby.total_s);
    ++i;
  }

  bench::title("Fig. 23", "GroupBy stage breakdown (s)");
  std::printf("%-10s | %10s %12s\n", "candidate", "FlatMap", "GroupByKey");
  std::printf("%.38s\n", "--------------------------------------");
  i = 0;
  for (fabric::Candidate c : fabric::kAllCandidates) {
    std::printf("%-10s | %10.2f %12.2f\n", fabric::to_string(c),
                groupby[i].flatmap_s, groupby[i].shuffle_s);
    ++i;
  }
  bench::note("paper: FlatMap (pure compute) is slower on VMs (MasQ, "
              "SR-IOV) than on host/container; in GroupByKey FreeFlow's "
              "network overhead eats its compute advantage, ending near "
              "MasQ — and MasQ spends zero CPU on networking while "
              "FreeFlow burns a core in the FFR");

  // Fabric re-run (DESIGN.md §17): the shuffle is the all-to-all phase —
  // exactly the traffic that crosses the spine when the two instances sit
  // one leaf apart.
  bench::title("Fig. 22 (fabric)", "MasQ GroupBy across a leaf-spine "
                                   "fabric");
  std::printf("%-10s | %10s | %10s %12s\n", "fabric", "total", "FlatMap",
              "GroupByKey");
  std::printf("%.50s\n",
              "--------------------------------------------------");
  struct Variant {
    const char* name;
    net::FabricConfig topo;
  } variants[] = {
      {"direct", {}},
      {"2x2@40G", bench::cross_leaf_fabric(2, 2, 40.0)},
      {"2x1@10G", bench::cross_leaf_fabric(2, 1, 10.0)},
  };
  for (const auto& v : variants) {
    bench::BedOptions opts;
    opts.topology = v.topo;
    const auto r =
        job(fabric::Candidate::kMasq, apps::spark::Workload::kGroupBy, opts);
    std::printf("%-10s | %10.2f | %10.2f %12.2f\n", v.name, r.total_s,
                r.flatmap_s, r.shuffle_s);
  }
  bench::note("FlatMap (compute) is fabric-invariant; the shuffle pays "
              "only when the spine is oversubscribed — the full-rate Clos "
              "reproduces the direct-wire job time");
  return 0;
}
