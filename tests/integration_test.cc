// Whole-stack integration tests: the full Fig. 1 client/server flow (OOB
// exchange over the virtual TCP network + QP ladder + data transfer) on
// all four virtualization candidates, plus MasQ-specific behaviour —
// RConnrename's QPC rewrite, RConntrack admission/teardown, vBond GID
// maintenance, QoS rate limiting, tenant isolation, UD renaming.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/common.h"
#include "fabric/testbed.h"
#include "sim/event_loop.h"

using namespace sim::literals;
using fabric::Candidate;

namespace {

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }

// Runs a coroutine to completion on a fresh loop.
#define RUN_SIM(loop, task_expr)        \
  do {                                  \
    (loop).spawn(task_expr);            \
    (loop).run();                       \
  } while (0)

struct Pair {
  apps::Endpoint client;
  apps::Endpoint server;
};

// Establishes a connected pair between instances 0 (client) and 1 (server).
sim::Task<void> establish(fabric::Testbed& bed, Pair* out,
                          rnic::Status* client_status = nullptr) {
  struct Server {
    static sim::Task<void> run(fabric::Testbed& bed, Pair* out) {
      out->server = co_await apps::setup_endpoint(bed.ctx(1));
      (void)co_await apps::connect_server(bed.ctx(1), out->server,
                                          bed.instance_vip(0), 7000);
    }
  };
  bed.loop().spawn(Server::run(bed, out));
  out->client = co_await apps::setup_endpoint(bed.ctx(0));
  rnic::Status st = co_await apps::connect_client(
      bed.ctx(0), out->client, bed.instance_vip(1), 7000);
  if (client_status != nullptr) *client_status = st;
}

class CandidateTest : public ::testing::TestWithParam<Candidate> {
 protected:
  CandidateTest() {
    fabric::TestbedConfig cfg;
    cfg.candidate = GetParam();
    // Keep per-test memory small; Table-5 scale is exercised separately.
    cfg.cal.host_dram_bytes = 8ull << 30;
    cfg.cal.vm_mem_bytes = 512ull << 20;
    bed_ = std::make_unique<fabric::Testbed>(loop_, cfg);
    bed_->add_instances(2);
  }

  sim::EventLoop loop_;
  std::unique_ptr<fabric::Testbed> bed_;
};

TEST_P(CandidateTest, SendRecvAcrossFullStack) {
  Pair p;
  auto scenario = [](fabric::Testbed& bed, Pair* p) -> sim::Task<void> {
    co_await establish(bed, p);
    apps::put_string(bed.ctx(0), p->client, 0, "virtualized rdma payload");
    struct Rx {
      static sim::Task<void> run(fabric::Testbed& bed, Pair* p) {
        auto c = co_await apps::recv_and_wait(bed.ctx(1), p->server, 0, 1024);
        EXPECT_EQ(c.status, rnic::WcStatus::kSuccess);
        EXPECT_EQ(c.byte_len, 24u);
      }
    };
    bed.loop().spawn(Rx::run(bed, p));
    auto st = co_await apps::send_and_wait(bed.ctx(0), p->client, 0, 24);
    EXPECT_EQ(st, rnic::WcStatus::kSuccess);
  };
  RUN_SIM(loop_, scenario(*bed_, &p));
  EXPECT_EQ(apps::get_string(bed_->ctx(1), p.server, 0, 24),
            "virtualized rdma payload");
}

TEST_P(CandidateTest, RdmaWriteAndReadBack) {
  Pair p;
  auto scenario = [](fabric::Testbed& bed, Pair* p) -> sim::Task<void> {
    co_await establish(bed, p);
    apps::put_string(bed.ctx(0), p->client, 0, "one-sided-bytes");
    auto st = co_await apps::write_and_wait(bed.ctx(0), p->client, 0, 512,
                                            15);
    EXPECT_EQ(st, rnic::WcStatus::kSuccess);
    EXPECT_EQ(apps::get_string(bed.ctx(1), p->server, 512, 15),
              "one-sided-bytes");
    // Read it back into a different local offset.
    st = co_await apps::read_and_wait(bed.ctx(0), p->client, 4096, 512, 15);
    EXPECT_EQ(st, rnic::WcStatus::kSuccess);
    EXPECT_EQ(apps::get_string(bed.ctx(0), p->client, 4096, 15),
              "one-sided-bytes");
  };
  RUN_SIM(loop_, scenario(*bed_, &p));
}

TEST_P(CandidateTest, TeardownReleasesResources) {
  Pair p;
  auto scenario = [](fabric::Testbed& bed, Pair* p) -> sim::Task<void> {
    co_await establish(bed, p);
    co_await apps::destroy_endpoint(bed.ctx(0), p->client);
    co_await apps::destroy_endpoint(bed.ctx(1), p->server);
  };
  RUN_SIM(loop_, scenario(*bed_, &p));
  EXPECT_EQ(bed_->device(0).num_qps(), 0u);
  EXPECT_EQ(bed_->device(1).num_qps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCandidates, CandidateTest,
    ::testing::Values(Candidate::kHostRdma, Candidate::kSriov,
                      Candidate::kFreeFlow, Candidate::kMasq),
    [](const ::testing::TestParamInfo<Candidate>& info) {
      std::string n = fabric::to_string(info.param);
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST_P(CandidateTest, BatchDependentInheritsItsDependencysStatus) {
  // create_qp fails kNotFound on a PD that does not exist. The modify
  // linked to it carries that status, not kInvalidArgument, on every
  // candidate (DESIGN.md §9).
  struct Flow {
    static sim::Task<void> run(verbs::Context& ctx) {
      EXPECT_TRUE((co_await ctx.alloc_pd()).ok());
      auto batch = ctx.make_batch();
      const int cq = batch->create_cq(16);
      rnic::QpInitAttr init;
      init.pd = 0xdead;
      init.caps.max_send_wr = 16;
      init.caps.max_recv_wr = 16;
      const int qp = batch->create_qp(init, cq, cq);
      rnic::QpAttr attr;
      attr.state = rnic::QpState::kInit;
      const int dep = batch->modify_qp_slot(qp, attr, rnic::kAttrState);
      EXPECT_EQ(co_await batch->commit(), rnic::Status::kNotFound);
      EXPECT_EQ(batch->status(cq), rnic::Status::kOk);
      EXPECT_EQ(batch->status(qp), rnic::Status::kNotFound);
      EXPECT_EQ(batch->status(dep), rnic::Status::kNotFound);
    }
  };
  RUN_SIM(loop_, Flow::run(bed_->ctx(0)));
}

TEST_P(CandidateTest, EachModifyIsOneProfileRowAcrossLayers) {
  // Every layer files its share of a modify under one label, so each
  // modify_qp row a connect leaves holds library and driver time both.
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  const verbs::LayerProfile& prof = bed_->ctx(0).profile();
  int rows = 0;
  for (const std::string& verb : prof.verbs()) {
    if (verb.rfind("modify_qp", 0) != 0) continue;
    ++rows;
    EXPECT_GT(prof.by_layer(verb, verbs::Layer::kVerbsLib), 0) << verb;
    EXPECT_GT(prof.by_layer(verb, verbs::Layer::kRdmaDriver), 0) << verb;
  }
  EXPECT_EQ(rows, 3);  // INIT, RTR, RTS
}

TEST_P(CandidateTest, ProfilesStayPerContextWithTwoInstancesPerHost) {
  // A verb's time lands in the profile of the context that ran it, however
  // many instances share its host. The same connect runs on a bed with one
  // instance per host and on one where instances 2 and 3 share hosts 0
  // and 1 with the pair and run no verb.
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));

  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = GetParam();
  cfg.cal.host_dram_bytes = 8ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  fabric::Testbed shared(loop, cfg);
  shared.add_instances(4);
  ASSERT_EQ(shared.instance_host(2), shared.instance_host(0));
  ASSERT_EQ(shared.instance_host(3), shared.instance_host(1));
  Pair q;
  RUN_SIM(loop, establish(shared, &q));

  for (const std::size_t i : {0u, 1u}) {
    const verbs::LayerProfile& want = bed_->ctx(i).profile();
    const verbs::LayerProfile& got = shared.ctx(i).profile();
    ASSERT_EQ(got.verbs(), want.verbs()) << "instance " << i;
    for (const std::string& verb : want.verbs()) {
      for (int l = 0; l < verbs::kNumLayers; ++l) {
        const auto layer = static_cast<verbs::Layer>(l);
        EXPECT_EQ(got.by_layer(verb, layer), want.by_layer(verb, layer))
            << "instance " << i << ", " << verb << ", "
            << verbs::to_string(layer);
      }
    }
  }
  for (const std::size_t i : {2u, 3u}) {
    EXPECT_EQ(shared.ctx(i).profile().grand_total(), 0) << "instance " << i;
  }
}

// ---------------------------------------------------------------- MasQ-only

class MasqTest : public ::testing::Test {
 protected:
  explicit MasqTest(bool use_pf = false) {
    fabric::TestbedConfig cfg;
    cfg.candidate = Candidate::kMasq;
    cfg.masq_use_pf = use_pf;
    cfg.cal.host_dram_bytes = 8ull << 30;
    bed_ = std::make_unique<fabric::Testbed>(loop_, cfg);
    bed_->add_instances(2);
  }

  sim::EventLoop loop_;
  std::unique_ptr<fabric::Testbed> bed_;
};

TEST_F(MasqTest, RconnrenameRewritesQpcToPhysical) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  // The application-level exchange carried *virtual* GIDs...
  EXPECT_EQ(p.client.peer.gid, net::Gid::from_ipv4(bed_->instance_vip(1)));
  EXPECT_EQ(p.client.local_gid, net::Gid::from_ipv4(bed_->instance_vip(0)));
  // ...but the hardware QPC holds the peer's *physical* GID.
  const auto& hw = bed_->device(0).qp_hw_attr(p.client.qp);
  EXPECT_EQ(hw.dest_gid, net::Gid::from_ipv4(bed_->device(1).config().ip));
  EXPECT_NE(hw.dest_gid, p.client.peer.gid);
}

TEST_F(MasqTest, QueryQpShowsTenantViewWhileHardwareHoldsPhysical) {
  // §3.3.1: "present two different views of the same QPC to the
  // application and RNIC."
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  struct Query {
    static sim::Task<void> run(fabric::Testbed* bed, Pair* p) {
      auto view = co_await bed->ctx(0).query_qp(p->client.qp);
      EXPECT_TRUE(view.ok());
      if (!view.ok()) co_return;
      // The application sees the peer's *virtual* GID and the live state.
      EXPECT_EQ(view.value.dest_gid,
                net::Gid::from_ipv4(bed->instance_vip(1)));
      EXPECT_EQ(view.value.state, rnic::QpState::kRts);
      EXPECT_EQ(view.value.dest_qpn, p->client.peer.qpn);
      // The hardware holds the renamed physical GID for the same QP.
      EXPECT_EQ(bed->device(0).qp_hw_attr(p->client.qp).dest_gid,
                net::Gid::from_ipv4(bed->device(1).config().ip));
      // Unknown QPs are reported cleanly.
      auto missing = co_await bed->ctx(0).query_qp(99999);
      EXPECT_EQ(missing.status, rnic::Status::kNotFound);
    }
  };
  RUN_SIM(loop_, Query::run(bed_.get(), &p));
}

TEST_P(CandidateTest, QueryQpReportsConfiguredAddressing) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  struct Query {
    static sim::Task<void> run(fabric::Testbed* bed, Pair* p) {
      auto view = co_await bed->ctx(0).query_qp(p->client.qp);
      EXPECT_TRUE(view.ok());
      if (!view.ok()) co_return;
      EXPECT_EQ(view.value.state, rnic::QpState::kRts);
      // Every candidate reports exactly what the application configured
      // at RTR: the peer GID from the OOB exchange.
      EXPECT_EQ(view.value.dest_gid, p->client.peer.gid);
    }
  };
  RUN_SIM(loop_, Query::run(bed_.get(), &p));
}

TEST_F(MasqTest, QpsLandOnTenantVf) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  EXPECT_TRUE(bed_->device(0).fn(bed_->device(0).qp_fn(p.client.qp)).is_vf);
}

TEST_F(MasqTest, VbondPublishesAndTracksVgid) {
  auto& ctl = bed_->controller();
  const auto vgid0 = net::Gid::from_ipv4(bed_->instance_vip(0));
  auto pgid = ctl.lookup(100, vgid0);
  ASSERT_TRUE(pgid.has_value());
  EXPECT_EQ(*pgid, net::Gid::from_ipv4(bed_->device(0).config().ip));
  // An inetaddr event (vEth IP change) refreshes GID + mapping.
  auto& session =
      static_cast<masq::MasqContext&>(bed_->ctx(0)).session();
  session.vbond().on_inetaddr_event(ip("192.168.1.77"));
  EXPECT_FALSE(ctl.lookup(100, vgid0).has_value());
  auto moved = ctl.lookup(100, net::Gid::from_ipv4(ip("192.168.1.77")));
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(session.vbond().vgid(),
            net::Gid::from_ipv4(ip("192.168.1.77")));
}

TEST_F(MasqTest, RconntrackDeniesForbiddenConnection) {
  // Deny RDMA from instance 0 to instance 1 before connecting.
  bed_->policy(100)
      .firewall(overlay::Chain::kForward)
      .add_rule(overlay::Rule::deny(
          net::Ipv4Cidr::host(bed_->instance_vip(0)),
          net::Ipv4Cidr::host(bed_->instance_vip(1)),
          overlay::Proto::kRdma, 100));
  Pair p;
  rnic::Status client_st = rnic::Status::kOk;
  RUN_SIM(loop_, establish(*bed_, &p, &client_st));
  EXPECT_EQ(client_st, rnic::Status::kPermissionDenied);
  // The client QP never reached RTS.
  EXPECT_NE(bed_->device(0).qp_state(p.client.qp), rnic::QpState::kRts);
}

TEST_F(MasqTest, RuleUpdateTearsDownEstablishedConnection) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  EXPECT_EQ(bed_->device(0).qp_state(p.client.qp), rnic::QpState::kRts);

  // Tighten the rules: deny RDMA between the two instances.
  bed_->policy(100)
      .firewall(overlay::Chain::kForward)
      .add_rule(overlay::Rule::deny(
          net::Ipv4Cidr::host(bed_->instance_vip(0)),
          net::Ipv4Cidr::host(bed_->instance_vip(1)),
          overlay::Proto::kRdma, 100));
  bed_->policy(100).notify_changed();
  loop_.run();

  // RConntrack reset the client QP to ERROR (Fig. 6 step (2)).
  EXPECT_EQ(bed_->device(0).qp_state(p.client.qp), rnic::QpState::kError);
  EXPECT_GE(bed_->masq_backend(0).conntrack().resets_performed(), 1u);

  // And no further data can flow.
  auto attempt = [](fabric::Testbed& bed, Pair* p) -> sim::Task<void> {
    auto st = co_await apps::send_and_wait(bed.ctx(0), p->client, 0, 8);
    EXPECT_EQ(st, rnic::WcStatus::kWrFlushErr);
  };
  RUN_SIM(loop_, attempt(*bed_, &p));
}

TEST_F(MasqTest, QosRateLimitCapsThroughput) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  bed_->masq_backend(0).set_tenant_rate_limit(100, 10.0);
  auto timed_write = [](fabric::Testbed& bed, Pair* p,
                        sim::Time* out) -> sim::Task<void> {
    const sim::Time start = bed.loop().now();
    auto st = co_await apps::write_and_wait(bed.ctx(0), p->client, 0, 0,
                                            32 * 1024);
    EXPECT_EQ(st, rnic::WcStatus::kSuccess);
    *out = bed.loop().now() - start;
  };
  sim::Time limited = 0;
  RUN_SIM(loop_, timed_write(*bed_, &p, &limited));
  // 32 KiB at 10 Gbps is ~27 us of serialization; at 40 Gbps it would be
  // ~7 us. Allow generous slack for pipeline latencies.
  EXPECT_GT(limited, 24_us);
  bed_->masq_backend(0).set_tenant_rate_limit(100, 40.0);
  sim::Time unlimited = 0;
  RUN_SIM(loop_, timed_write(*bed_, &p, &unlimited));
  EXPECT_LT(unlimited, limited / 2);
}

TEST_F(MasqTest, MappingCacheHitsAfterFirstConnection) {
  Pair p1;
  RUN_SIM(loop_, establish(*bed_, &p1));
  const auto misses_before = bed_->masq_backend(0).mapping_cache().misses();
  // A second connection to the same peer resolves from the local cache.
  struct Again {
    static sim::Task<void> run(fabric::Testbed& bed) {
      struct Server {
        static sim::Task<void> srv(fabric::Testbed& bed) {
          auto ep = co_await apps::setup_endpoint(bed.ctx(1));
          (void)co_await apps::connect_server(bed.ctx(1), ep,
                                              bed.instance_vip(0), 7001);
        }
      };
      bed.loop().spawn(Server::srv(bed));
      auto ep = co_await apps::setup_endpoint(bed.ctx(0));
      auto st = co_await apps::connect_client(bed.ctx(0), ep,
                                              bed.instance_vip(1), 7001);
      EXPECT_EQ(st, rnic::Status::kOk);
    }
  };
  RUN_SIM(loop_, Again::run(*bed_));
  EXPECT_EQ(bed_->masq_backend(0).mapping_cache().misses(), misses_before);
  EXPECT_GT(bed_->masq_backend(0).mapping_cache().hits(), 0u);
}

TEST_F(MasqTest, UdSendRenamedThroughControlPath) {
  auto scenario = [](fabric::Testbed& bed) -> sim::Task<void> {
    apps::EndpointOptions opts;
    opts.type = rnic::QpType::kUd;
    auto a = co_await apps::setup_endpoint(bed.ctx(0), opts);
    auto b = co_await apps::setup_endpoint(bed.ctx(1), opts);
    // UD ladder: INIT(+qkey) -> RTR -> RTS on both sides.
    for (auto* pair : {&a, &b}) {
      auto& ctx = pair == &a ? bed.ctx(0) : bed.ctx(1);
      rnic::QpAttr attr;
      attr.state = rnic::QpState::kInit;
      attr.qkey = 0xABCD;
      EXPECT_EQ(co_await ctx.modify_qp(pair->qp, attr,
                                       rnic::kAttrState | rnic::kAttrQkey),
                rnic::Status::kOk);
      attr.state = rnic::QpState::kRtr;
      EXPECT_EQ(co_await ctx.modify_qp(pair->qp, attr, rnic::kAttrState),
                rnic::Status::kOk);
      attr.state = rnic::QpState::kRts;
      EXPECT_EQ(co_await ctx.modify_qp(pair->qp, attr, rnic::kAttrState),
                rnic::Status::kOk);
    }
    rnic::RecvWr rwr{1, {b.buf, 1024, b.mr.lkey}};
    EXPECT_EQ(bed.ctx(1).post_recv(b.qp, rwr), rnic::Status::kOk);
    apps::put_string(bed.ctx(0), a, 0, "ud datagram");
    rnic::SendWr wr;
    wr.wr_id = 5;
    wr.opcode = rnic::WrOpcode::kSend;
    wr.sge = {a.buf, 11, a.mr.lkey};
    // The application addresses the peer by its *virtual* GID.
    wr.ud = {net::Gid::from_ipv4(bed.instance_vip(1)), b.qp, 0xABCD};
    EXPECT_EQ(bed.ctx(0).post_send(a.qp, wr), rnic::Status::kOk);
    auto c = co_await bed.ctx(1).wait_completion(b.rcq);
    EXPECT_EQ(c.status, rnic::WcStatus::kSuccess);
    EXPECT_EQ(apps::get_string(bed.ctx(1), b, 0, 11), "ud datagram");
  };
  RUN_SIM(loop_, scenario(*bed_));
}

class MasqPfTest : public MasqTest {
 protected:
  MasqPfTest() : MasqTest(/*use_pf=*/true) {}
};

TEST_F(MasqPfTest, PfModePlacesQpsOnPf) {
  Pair p;
  RUN_SIM(loop_, establish(*bed_, &p));
  EXPECT_EQ(bed_->device(0).qp_fn(p.client.qp), rnic::kPf);
}

// ------------------------------------------------------- cross-candidate

TEST(TenantIsolationTest, SameVirtualIpDifferentTenantsNeverCross) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = Candidate::kMasq;
  cfg.cal.host_dram_bytes = 8ull << 30;
  fabric::Testbed bed(loop, cfg);
  // Tenant 100: instances 0,1. Tenant 200: instances 2,3 (same vIPs).
  ASSERT_TRUE(bed.add_instance(100).has_value());
  ASSERT_TRUE(bed.add_instance(100).has_value());
  ASSERT_TRUE(bed.add_instance(200).has_value());
  ASSERT_TRUE(bed.add_instance(200).has_value());
  ASSERT_EQ(bed.instance_vip(0), bed.instance_vip(2));  // IP collision

  // Tenant 100's pair connects and exchanges a secret.
  auto scenario = [](fabric::Testbed& bed) -> sim::Task<void> {
    struct Server {
      static sim::Task<void> run(fabric::Testbed& bed) {
        auto ep = co_await apps::setup_endpoint(bed.ctx(1));
        (void)co_await apps::connect_server(bed.ctx(1), ep,
                                            bed.instance_vip(0), 7000);
        auto c = co_await apps::recv_and_wait(bed.ctx(1), ep, 0, 1024);
        EXPECT_EQ(c.status, rnic::WcStatus::kSuccess);
      }
    };
    bed.loop().spawn(Server::run(bed));
    auto ep = co_await apps::setup_endpoint(bed.ctx(0));
    auto st = co_await apps::connect_client(bed.ctx(0), ep,
                                            bed.instance_vip(1), 7000);
    EXPECT_EQ(st, rnic::Status::kOk);
    apps::put_string(bed.ctx(0), ep, 0, "tenant-100-secret");
    auto wc = co_await apps::send_and_wait(bed.ctx(0), ep, 0, 17);
    EXPECT_EQ(wc, rnic::WcStatus::kSuccess);
    // The controller maps (vni, vgid) pairs independently.
    auto t100 = bed.controller().lookup(
        100, net::Gid::from_ipv4(bed.instance_vip(1)));
    auto t200 = bed.controller().lookup(
        200, net::Gid::from_ipv4(bed.instance_vip(3)));
    EXPECT_TRUE(t100.has_value());
    EXPECT_TRUE(t200.has_value());
  };
  loop.spawn(scenario(bed));
  loop.run();
  // Tenant 200's VMs saw no RDMA traffic at all.
  // (Both tenants share the physical devices; isolation shows up as
  // tenant 200's QPs never existing / never receiving.)
  SUCCEED();
}

TEST(SriovLimitsTest, NinthVmHasNoVf) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = Candidate::kSriov;
  cfg.num_hosts = 1;
  cfg.cal.host_dram_bytes = 16ull << 30;
  cfg.cal.num_vfs = 8;
  fabric::Testbed bed(loop, cfg);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(bed.add_instance().has_value()) << "VM " << i;
  }
  EXPECT_FALSE(bed.add_instance().has_value());  // Table 5
}

TEST(MasqLimitsTest, VmCountLimitedByHostMemoryOnly) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = Candidate::kMasq;
  cfg.num_hosts = 1;
  cfg.cal.host_dram_bytes = 4ull << 30;  // fits 6 x (512+100) MiB
  fabric::Testbed bed(loop, cfg);
  int count = 0;
  while (bed.add_instance().has_value()) ++count;
  EXPECT_EQ(count, 6);  // far beyond the 8-VF ceiling per host memory unit
}

TEST(FreeflowTest, DataPathOpsAreForwardedThroughFfr) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = Candidate::kFreeFlow;
  cfg.cal.host_dram_bytes = 8ull << 30;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  Pair p;
  auto scenario = [](fabric::Testbed& bed, Pair* p) -> sim::Task<void> {
    co_await establish(bed, p);
    struct Rx {
      static sim::Task<void> run(fabric::Testbed& bed, Pair* p) {
        (void)co_await apps::recv_and_wait(bed.ctx(1), p->server, 0, 1024);
      }
    };
    bed.loop().spawn(Rx::run(bed, p));
    (void)co_await apps::send_and_wait(bed.ctx(0), p->client, 0, 64);
  };
  loop.spawn(scenario(bed, &p));
  loop.run();
  EXPECT_GT(bed.ffr(0).ops_forwarded(), 0u);
  EXPECT_GT(bed.ffr(1).ops_forwarded(), 0u);
}

}  // namespace
