// Cross-candidate sweep invariants: properties the paper's evaluation
// implies must hold at *every* operating point, checked over a grid of
// (candidate x message size x operation) rather than at single points —
// latency monotonicity in size, the candidate ordering, bandwidth
// monotonicity, and conservation of the candidate ranking under load.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "apps/common.h"
#include "apps/perftest.h"
#include "fabric/scale.h"
#include "fabric/testbed.h"
#include "net/topology.h"
#include "pin_hash.h"

namespace {

using fabric::Candidate;

double lat_us(Candidate c, apps::perftest::Op op, std::uint32_t size,
              net::FabricConfig topo = {}) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  cfg.cal.host_dram_bytes = 16ull << 30;
  cfg.topology = topo;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  apps::perftest::LatConfig lc;
  lc.op = op;
  lc.msg_size = size;
  lc.iterations = 60;
  return apps::perftest::run_lat(bed, lc).mean();
}

double bw_gbps(Candidate c, std::uint32_t size,
               net::FabricConfig topo = {}) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  cfg.cal.host_dram_bytes = 16ull << 30;
  cfg.topology = topo;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  apps::perftest::BwConfig bc;
  bc.op = apps::perftest::Op::kWrite;
  bc.msg_size = size;
  bc.iterations = 192;
  return apps::perftest::run_bw(bed, bc);
}

// ---- latency grid --------------------------------------------------------

using LatPoint = std::tuple<Candidate, int /*op*/, std::uint32_t /*size*/>;

class LatencyGridTest : public ::testing::TestWithParam<LatPoint> {};

TEST_P(LatencyGridTest, HostIsTheFloorAndSizeCostsMore) {
  const auto [c, op_i, size] = GetParam();
  const auto op = static_cast<apps::perftest::Op>(op_i);
  const double mine = lat_us(c, op, size);
  // Host-RDMA is the performance floor at every point (Fig. 8/9).
  if (c != Candidate::kHostRdma) {
    const double host = lat_us(Candidate::kHostRdma, op, size);
    EXPECT_GE(mine, host - 0.02)
        << fabric::to_string(c) << " beat bare metal at size " << size;
  }
  // Latency grows with message size on the same candidate.
  if (size > 2) {
    const double smaller = lat_us(c, op, size / 8);
    EXPECT_GE(mine, smaller - 0.02)
        << fabric::to_string(c) << " latency not monotone at " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LatencyGridTest,
    ::testing::Combine(
        ::testing::Values(Candidate::kHostRdma, Candidate::kSriov,
                          Candidate::kFreeFlow, Candidate::kMasq),
        ::testing::Values(0, 1),  // send, write
        ::testing::Values(2u, 256u, 4096u)),
    [](const ::testing::TestParamInfo<LatPoint>& info) {
      std::string n = fabric::to_string(std::get<0>(info.param));
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n + (std::get<1>(info.param) == 0 ? "Send" : "Write") +
             std::to_string(std::get<2>(info.param)) + "B";
    });

// ---- bandwidth grid ------------------------------------------------------

class BandwidthGridTest : public ::testing::TestWithParam<Candidate> {};

TEST_P(BandwidthGridTest, ThroughputMonotoneAndBounded) {
  const Candidate c = GetParam();
  double prev = 0;
  for (std::uint32_t size : {512u, 4096u, 32768u}) {
    const double g = bw_gbps(c, size);
    EXPECT_GE(g, prev * 0.98)
        << fabric::to_string(c) << " throughput dipped at " << size;
    EXPECT_LE(g, 40.0 + 1e-6);  // never exceeds the physical line
    prev = g;
  }
  // Everyone saturates within 15% of line rate by 32 KB (Fig. 10).
  EXPECT_GT(prev, 34.0) << fabric::to_string(c);
}

INSTANTIATE_TEST_SUITE_P(AllCandidates, BandwidthGridTest,
                         ::testing::Values(Candidate::kHostRdma,
                                           Candidate::kSriov,
                                           Candidate::kFreeFlow,
                                           Candidate::kMasq),
                         [](const ::testing::TestParamInfo<Candidate>& i) {
                           std::string n = fabric::to_string(i.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

// ---- golden numbers: EXPERIMENTS.md Table 1 / Fig. 15, bit-exact ---------

// EXPERIMENTS.md records the measured per-verb call times (Table 1) and
// connection-setup totals (Fig. 15) of this simulated testbed. Those
// values are part of the repo's contract — the chapters reason from them —
// so this suite re-measures the same flow in-process and asserts equality
// at the documents' display precision. A failure here means calibration
// drifted: update the code or the document deliberately, not by accident.

struct SetupBreakdown {
  std::map<std::string, double> us;
  double total_ms = 0;
};

sim::Task<void> golden_client(fabric::Testbed* bed, SetupBreakdown* out) {
  verbs::Context& ctx = bed->ctx(0);
  sim::EventLoop& loop = bed->loop();
  auto pd = co_await ctx.alloc_pd();
  const mem::Addr buf = ctx.alloc_buffer(65536);

  sim::Time t0 = loop.now();
  auto mr = co_await ctx.reg_mr(pd.value, buf, 1024, apps::kFullAccess);
  out->us["reg_mr"] = sim::to_us(loop.now() - t0);

  t0 = loop.now();
  auto cq = co_await ctx.create_cq(200);
  out->us["create_cq"] = sim::to_us(loop.now() - t0);

  rnic::QpInitAttr init;
  init.pd = pd.value;
  init.send_cq = cq.value;
  init.recv_cq = cq.value;
  init.caps.max_send_wr = 100;
  init.caps.max_recv_wr = 100;
  t0 = loop.now();
  auto qp = co_await ctx.create_qp(init);
  out->us["create_qp"] = sim::to_us(loop.now() - t0);

  t0 = loop.now();
  auto gid = co_await ctx.query_gid();
  out->us["query_gid"] = sim::to_us(loop.now() - t0);

  verbs::ConnInfo info{qp.value, gid.value, buf, mr.value.rkey};
  overlay::Blob blob = overlay::pack(info);
  (void)co_await ctx.oob().send(bed->instance_vip(1), 7101, blob);
  overlay::Blob reply = co_await ctx.oob().recv(7101);
  const auto peer = overlay::unpack<verbs::ConnInfo>(reply);

  rnic::QpAttr attr;
  attr.state = rnic::QpState::kInit;
  t0 = loop.now();
  (void)co_await ctx.modify_qp(qp.value, attr, rnic::kAttrState);
  out->us["qp_INIT"] = sim::to_us(loop.now() - t0);

  attr.state = rnic::QpState::kRtr;
  attr.dest_gid = peer.gid;
  attr.dest_qpn = peer.qpn;
  t0 = loop.now();
  (void)co_await ctx.modify_qp(qp.value, attr,
                               rnic::kAttrState | rnic::kAttrDestGid |
                                   rnic::kAttrDestQpn);
  out->us["qp_RTR"] = sim::to_us(loop.now() - t0);

  attr.state = rnic::QpState::kRts;
  t0 = loop.now();
  (void)co_await ctx.modify_qp(qp.value, attr, rnic::kAttrState);
  out->us["qp_RTS"] = sim::to_us(loop.now() - t0);

  for (const auto& [verb, us] : out->us) out->total_ms += us / 1000.0;
}

sim::Task<void> golden_server(fabric::Testbed* bed) {
  verbs::Context& ctx = bed->ctx(1);
  auto ep = co_await apps::setup_endpoint(ctx);
  overlay::Blob blob = co_await ctx.oob().recv(7101);
  (void)blob;
  verbs::ConnInfo info{ep.qp, ep.local_gid, ep.buf, ep.mr.rkey};
  overlay::Blob reply = overlay::pack(info);
  (void)co_await ctx.oob().send(bed->instance_vip(0), 7101, reply);
}

SetupBreakdown conn_setup(Candidate c) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  cfg.cal.host_dram_bytes = 48ull << 30;
  cfg.cal.vm_mem_bytes = 8ull << 30;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  SetupBreakdown out;
  loop.spawn(golden_server(&bed));
  loop.spawn(golden_client(&bed, &out));
  loop.run();
  return out;
}

// Rounding to the documents' display precision makes the comparison
// exact: round1(77.75) and the literal 77.8 are the same double.
double round1(double v) { return std::round(v * 10.0) / 10.0; }
double round2(double v) { return std::round(v * 100.0) / 100.0; }

TEST(GoldenNumbersTest, Fig15SetupTotalsMatchExperimentsMd) {
  EXPECT_EQ(round2(conn_setup(Candidate::kHostRdma).total_ms), 0.80);
  EXPECT_EQ(round2(conn_setup(Candidate::kFreeFlow).total_ms), 4.13);
  EXPECT_EQ(round2(conn_setup(Candidate::kSriov).total_ms), 1.89);
  EXPECT_EQ(round2(conn_setup(Candidate::kMasq).total_ms), 1.98);
}

TEST(GoldenNumbersTest, Table1HostVerbTimesMatchExperimentsMd) {
  const SetupBreakdown b = conn_setup(Candidate::kHostRdma);
  // Table 1, "measured host" column (µs).
  EXPECT_EQ(round1(b.us.at("reg_mr")), 77.8);
  EXPECT_EQ(round1(b.us.at("create_cq")), 255.6);
  EXPECT_EQ(round1(b.us.at("create_qp")), 76.0);
  EXPECT_EQ(round1(b.us.at("query_gid")), 22.0);
  EXPECT_EQ(round1(b.us.at("qp_INIT")), 231.0);
  EXPECT_EQ(round1(b.us.at("qp_RTR")), 62.0);
  EXPECT_EQ(round1(b.us.at("qp_RTS")), 73.0);
  // Table 1, "measured w/ virtio" column: each forwarded verb plus the
  // 20 µs virtqueue round trip (the paper's estimation methodology).
  const double virtio_rtt = 20.0;
  EXPECT_EQ(round1(b.us.at("reg_mr") + virtio_rtt), 97.8);
  EXPECT_EQ(round1(b.us.at("create_cq") + virtio_rtt), 275.6);
  EXPECT_EQ(round1(b.us.at("create_qp") + virtio_rtt), 96.0);
  EXPECT_EQ(round1(b.us.at("qp_INIT") + virtio_rtt), 251.0);
  EXPECT_EQ(round1(b.us.at("qp_RTR") + virtio_rtt), 82.0);
  EXPECT_EQ(round1(b.us.at("qp_RTS") + virtio_rtt), 93.0);
}

// ---- the headline ordering, asserted as one fact -------------------------

TEST(OrderingTest, TwoByteLatencyRankingMatchesFig8a) {
  std::map<Candidate, double> l;
  for (Candidate c : {Candidate::kHostRdma, Candidate::kSriov,
                      Candidate::kFreeFlow, Candidate::kMasq}) {
    l[c] = lat_us(c, apps::perftest::Op::kSend, 2);
  }
  EXPECT_LT(l[Candidate::kHostRdma], l[Candidate::kMasq]);
  EXPECT_LE(l[Candidate::kMasq], l[Candidate::kSriov] + 0.15);
  EXPECT_LT(l[Candidate::kSriov], l[Candidate::kFreeFlow]);
  // MasQ within 0.5 us of bare metal — "almost the same performance".
  EXPECT_LT(l[Candidate::kMasq] - l[Candidate::kHostRdma], 0.5);
}

// ---- cross-leaf wire, pinned to the bit ---------------------------------

// Two hosts, one per leaf, under one spine: every frame crosses
// leaf->spine->leaf between the NIC links. No figure reads this path, so
// Host-RDMA and MasQ latency and bandwidth are pinned as exact doubles.
net::FabricConfig cross_leaf(double spine_gbps) {
  net::FabricConfig fc;
  fc.leaves = 2;
  fc.spines = 1;
  fc.spine_gbps = spine_gbps;
  return fc;
}

TEST(GoldenNumbersTest, CrossLeafFabricIsPinnedOnTheWire) {
  struct Pin {
    Candidate c;
    double spine_gbps;
    double lat_2b_us, lat_4kb_us, bw_32kb_gbps;
  };
  const Pin pins[] = {
      {Candidate::kHostRdma, 40.0, 0x1.5916872b020c2p-1,
       0x1.872b020c49bacp+0, 0x1.2e739ac4dc95dp+5},
      {Candidate::kMasq, 40.0, 0x1.f2b020c49ba51p-1, 0x1.d3f7ced91687cp+0,
       0x1.2e6264a7d4f51p+5},
      {Candidate::kHostRdma, 10.0, 0x1.6b851eb851ebep-1, 0x1.08p+2,
       0x1.2ebf6e75864ccp+3},
      {Candidate::kMasq, 10.0, 0x1.028f5c28f5c26p+0, 0x1.1b33333333339p+2,
       0x1.2ebb1adbee276p+3},
  };
  for (const Pin& p : pins) {
    const net::FabricConfig fc = cross_leaf(p.spine_gbps);
    SCOPED_TRACE(testing::Message() << fabric::to_string(p.c) << " spine "
                                    << p.spine_gbps << " G");
    EXPECT_EQ(lat_us(p.c, apps::perftest::Op::kSend, 2, fc), p.lat_2b_us);
    EXPECT_EQ(lat_us(p.c, apps::perftest::Op::kSend, 4096, fc),
              p.lat_4kb_us);
    EXPECT_EQ(bw_gbps(p.c, 32768, fc), p.bw_32kb_gbps);
  }
}

// ---- every candidate's event stream, pinned to the bit -------------------

// Folds one traced perftest run on a default two-instance testbed: the
// result's bits (folded by `run`), then the events executed and the trace
// hash.
template <typename Run>
std::uint64_t fold_perftest(std::uint64_t h, Candidate c, Run run) {
  sim::EventLoop loop;
  loop.enable_trace();
  fabric::TestbedConfig cfg;
  cfg.candidate = c;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  bed.allow_all(100);
  h = run(bed, h);
  h = pin::fnv1a(h, loop.events_executed());
  return pin::fnv1a(h, loop.trace_hash());
}

std::uint64_t fold_lat(std::uint64_t h, Candidate c,
                       apps::perftest::LatConfig lc) {
  return fold_perftest(h, c, [&](fabric::Testbed& bed, std::uint64_t f) {
    const sim::Stats lat = apps::perftest::run_lat(bed, lc);
    for (const double us : lat.samples()) {
      f = pin::fnv1a(f, std::bit_cast<std::uint64_t>(us));
    }
    return f;
  });
}

TEST(GoldenNumbersTest, PerftestStreamsArePinnedPerCandidate) {
  // Fig. 15 is pinned only to 0.01 ms, and nothing else pins SR-IOV's
  // stream. Per candidate: send latency at 2 B, write bandwidth over two
  // QPs at 64 KB, and write latency at 4 KB. Recorded while Host-RDMA and
  // SR-IOV still had a context class each.
  const std::pair<Candidate, std::uint64_t> pins[] = {
      {Candidate::kHostRdma, 0x17713fd5be6d09f7ull},
      {Candidate::kSriov, 0xdb14d9c7ec61de54ull},
      {Candidate::kFreeFlow, 0x34e82c34641303d6ull},
      {Candidate::kMasq, 0xe835b7cc058b1d7bull},
  };
  for (const auto& [c, want] : pins) {
    SCOPED_TRACE(fabric::to_string(c));
    apps::perftest::LatConfig send;
    send.iterations = 200;
    std::uint64_t h = fold_lat(pin::kFnvBasis, c, send);
    h = fold_perftest(h, c, [](fabric::Testbed& bed, std::uint64_t f) {
      apps::perftest::BwConfig bc;
      bc.iterations = 256;
      bc.num_qps = 2;
      return pin::fnv1a(
          f, std::bit_cast<std::uint64_t>(apps::perftest::run_bw(bed, bc)));
    });
    apps::perftest::LatConfig write;
    write.op = apps::perftest::Op::kWrite;
    write.msg_size = 4096;
    write.iterations = 100;
    h = fold_lat(h, c, write);
    EXPECT_EQ(h, want);
  }
}

TEST(GoldenNumbersTest, DeepWriteWindowIsPinned) {
  // rdma_bw16's shape: 16 QPs with 128 writes of 4 KB in flight each, so
  // FluidNet refills over ~2,000 flows on one path. Its goodput, events
  // and trace hash, pinned to the bit.
  const std::uint64_t h = fold_perftest(
      pin::kFnvBasis, Candidate::kMasq,
      [](fabric::Testbed& bed, std::uint64_t f) {
        apps::perftest::BwConfig bc;
        bc.msg_size = 4096;
        bc.iterations = 300;
        bc.window = 128;
        bc.num_qps = 16;
        return pin::fnv1a(f, std::bit_cast<std::uint64_t>(
                                 apps::perftest::run_bw(bed, bc)));
      });
  EXPECT_EQ(h, 0x1f46a6a5e15c9bb9ull);
}

// ---- 100-seed scale-report sweep -----------------------------------------

fabric::ScaleConfig sweep_cfg(std::uint64_t seed) {
  fabric::ScaleConfig cfg;
  cfg.hosts = 4;
  cfg.vms_per_host = 4;
  cfg.tenants = 2;
  cfg.waves = 1;
  cfg.shards = 2;
  cfg.ip_changes = 0;
  cfg.rule_resets = 0;
  cfg.seed = seed;
  cfg.traffic.enabled = true;
  cfg.traffic.spines = 1;
  cfg.traffic.host_gbps = 25;
  cfg.traffic.spine_gbps = 25;
  cfg.traffic.flows = 24;
  cfg.traffic.flow_kb = 64;
  return cfg;
}

TEST(DegenerateSweepTest, HundredSeedsByteIdenticalReports) {
  // BENCH_scale.json is the whole contract: at every seed the one-leaf
  // fabric must serialize to the bytes the old direct two-link wire mode
  // wrote. The pin is one FNV-1a fold over the 100 reports, recorded in
  // that mode before it was deleted.
  std::uint64_t fold = 14695981039346656037ull;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (char ch : fabric::run_scale_storm(sweep_cfg(seed)).json()) {
      fold = (fold ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
  }
  EXPECT_EQ(fold, 0x05aefa0e590d7c7cull);
}

}  // namespace
