// Unit tests for the MasQ core module: vBond lifecycle, RConntrack rule
// management and diagnostics, backend QoS grouping, mapping-cache
// push-down coherence, and live migration.
#include <gtest/gtest.h>

#include <memory>

#include "apps/common.h"
#include "fabric/testbed.h"
#include "masq/frontend.h"
#include "masq/vbond.h"
#include "sdn/controller.h"

using namespace sim::literals;

namespace {

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }

// ----------------------------------------------------------------- vBond

class VbondTest : public ::testing::Test {
 protected:
  sim::EventLoop loop_;
  sdn::Controller ctl_{loop_};
  net::Gid pgid_ = net::Gid::from_ipv4(ip("10.0.0.1"));
};

TEST_F(VbondTest, BindDerivesGidFromVethIp) {
  masq::VBond vb(ctl_, 7, net::MacAddr::from_u64(0x1), pgid_);
  EXPECT_FALSE(vb.bound());
  vb.bind(ip("192.168.5.5"));
  EXPECT_TRUE(vb.bound());
  EXPECT_EQ(vb.vgid(), net::Gid::from_ipv4(ip("192.168.5.5")));
  EXPECT_EQ(ctl_.lookup(7, vb.vgid()), pgid_);
}

TEST_F(VbondTest, InetaddrEventMovesRegistration) {
  masq::VBond vb(ctl_, 7, net::MacAddr::from_u64(0x1), pgid_);
  vb.bind(ip("192.168.5.5"));
  vb.on_inetaddr_event(ip("192.168.5.99"));
  EXPECT_FALSE(
      ctl_.lookup(7, net::Gid::from_ipv4(ip("192.168.5.5"))).has_value());
  EXPECT_EQ(ctl_.lookup(7, net::Gid::from_ipv4(ip("192.168.5.99"))), pgid_);
}

TEST_F(VbondTest, DestructorUnregisters) {
  {
    masq::VBond vb(ctl_, 7, net::MacAddr::from_u64(0x1), pgid_);
    vb.bind(ip("192.168.5.5"));
    EXPECT_EQ(ctl_.table_size(), 1u);
  }
  EXPECT_EQ(ctl_.table_size(), 0u);
}

TEST_F(VbondTest, ReleaseHandsOverOwnership) {
  masq::VBond successor(ctl_, 7, net::MacAddr::from_u64(0x1),
                        net::Gid::from_ipv4(ip("10.0.0.2")));
  {
    masq::VBond vb(ctl_, 7, net::MacAddr::from_u64(0x1), pgid_);
    vb.bind(ip("192.168.5.5"));
    successor.bind(ip("192.168.5.5"));  // migration target re-registers
    vb.release();
  }  // destructor must NOT clobber the successor's mapping
  EXPECT_EQ(ctl_.lookup(7, net::Gid::from_ipv4(ip("192.168.5.5"))),
            net::Gid::from_ipv4(ip("10.0.0.2")));
}

// -------------------------------------------------------- backend / fabric

class MasqBackendTest : public ::testing::Test {
 protected:
  MasqBackendTest() {
    fabric::TestbedConfig cfg;
    cfg.candidate = fabric::Candidate::kMasq;
    cfg.cal.host_dram_bytes = 16ull << 30;
    cfg.cal.vm_mem_bytes = 512ull << 20;
    bed_ = std::make_unique<fabric::Testbed>(loop_, cfg);
  }

  sim::EventLoop loop_;
  std::unique_ptr<fabric::Testbed> bed_;
};

TEST_F(MasqBackendTest, TenantsGetDistinctVfsUntilWraparound) {
  auto& backend = bed_->masq_backend(0);
  std::set<rnic::FnId> fns;
  for (std::uint32_t vni = 1; vni <= 8; ++vni) {
    fns.insert(backend.tenant_fn(vni));
  }
  EXPECT_EQ(fns.size(), 8u);  // 8 VFs, 8 tenants, all distinct
  // The 9th tenant shares a limiter (round-robin wraparound).
  const rnic::FnId ninth = backend.tenant_fn(9);
  EXPECT_TRUE(fns.count(ninth) == 1);
  // Mapping is sticky.
  EXPECT_EQ(backend.tenant_fn(3), backend.tenant_fn(3));
}

TEST_F(MasqBackendTest, PfModeRejectsQos) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.masq_use_pf = true;
  cfg.cal.host_dram_bytes = 8ull << 30;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  EXPECT_EQ(bed.masq_backend(0).tenant_fn(100), rnic::kPf);
  EXPECT_THROW(bed.masq_backend(0).set_tenant_rate_limit(100, 10.0),
               std::logic_error);
}

TEST_F(MasqBackendTest, ControllerPushDownKeepsCachesCoherent) {
  bed_->add_instances(2);
  auto& cache = bed_->masq_backend(0).mapping_cache();
  // Instance 1's vGID was pushed at registration time: first resolve hits.
  struct Probe {
    static sim::Task<void> run(fabric::Testbed* bed, bool* hit) {
      auto& cache = bed->masq_backend(0).mapping_cache();
      const auto before = cache.misses();
      const auto r = co_await cache.resolve_ex(
          100, net::Gid::from_ipv4(bed->instance_vip(1)));
      *hit = r.pgid.has_value() && cache.misses() == before;
    }
  };
  bool hit = false;
  loop_.spawn(Probe::run(bed_.get(), &hit));
  loop_.run();
  EXPECT_TRUE(hit);
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(MasqBackendTest, DiagnosticsMapQpnToTenantFlow) {
  bed_->add_instances(2);
  apps::Endpoint client;
  struct Conn {
    static sim::Task<void> run(fabric::Testbed* bed, apps::Endpoint* out) {
      struct Srv {
        static sim::Task<void> srv(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7700);
        }
      };
      bed->loop().spawn(Srv::srv(bed));
      *out = co_await apps::setup_endpoint(bed->ctx(0));
      (void)co_await apps::connect_client(bed->ctx(0), *out,
                                          bed->instance_vip(1), 7700);
    }
  };
  loop_.spawn(Conn::run(bed_.get(), &client));
  loop_.run();
  // §5: underlay telemetry sees only (physical IP, QPN); RConntrack's
  // table recovers the tenant flow.
  const auto* entry =
      bed_->masq_backend(0).conntrack().lookup(client.qp, 100);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->src_vip, bed_->instance_vip(0));
  EXPECT_EQ(entry->dst_vip, bed_->instance_vip(1));
  EXPECT_EQ(entry->vni, 100u);
}

TEST_F(MasqBackendTest, UnregisterVgidInvalidatesHostCaches) {
  bed_->add_instances(2);
  const auto vgid1 = net::Gid::from_ipv4(bed_->instance_vip(1));
  struct Probe {
    static sim::Task<void> run(fabric::Testbed* bed, net::Gid g,
                               std::optional<net::Gid>* out) {
      const auto r =
          co_await bed->masq_backend(0).mapping_cache().resolve_ex(100, g);
      *out = r.pgid;
    }
  };
  // Warm: registration push-down already populated host 0's cache.
  std::optional<net::Gid> before;
  loop_.spawn(Probe::run(bed_.get(), vgid1, &before));
  loop_.run();
  ASSERT_TRUE(before.has_value());
  const auto queries = bed_->controller().queries_served();

  // vBond tears the vGID down (VM shutdown). Regression: without the
  // invalidation broadcast the host cache kept serving the stale pGID
  // forever — hits always stayed hits, even for dead peers.
  bed_->controller().unregister_vgid(100, vgid1);
  std::optional<net::Gid> after;
  loop_.spawn(Probe::run(bed_.get(), vgid1, &after));
  loop_.run();
  EXPECT_FALSE(after.has_value());
  // The resolve was a genuine miss that re-asked the controller, not a
  // stale local answer.
  EXPECT_EQ(bed_->controller().queries_served(), queries + 1);
}

// ------------------------------------------------------- batched control path

TEST_F(MasqBackendTest, BatchFailureDoesNotPoisonBatchmates) {
  bed_->add_instances(1);
  struct Flow {
    static sim::Task<void> run(fabric::Testbed* bed) {
      verbs::Context& ctx = bed->ctx(0);
      auto batch = ctx.make_batch();
      const int good_cq = batch->create_cq(64);
      rnic::QpAttr attr;
      attr.state = rnic::QpState::kInit;
      // No such QP: this entry must fail alone.
      const int bad = batch->modify_qp(999999, attr, rnic::kAttrState);
      const int good_cq2 = batch->create_cq(64);
      // An entry whose dependency failed inherits the dependency's status
      // without executing, so callers can tell retryable failures apart
      // from permanent ones.
      rnic::QpInitAttr init;
      init.caps.max_send_wr = 16;
      init.caps.max_recv_wr = 16;
      const int orphan = batch->create_qp(init, /*send_cq_slot=*/bad,
                                          /*recv_cq_slot=*/bad);
      const rnic::Status st = co_await batch->commit();
      EXPECT_NE(st, rnic::Status::kOk);  // first per-entry error surfaces
      EXPECT_EQ(batch->status(good_cq), rnic::Status::kOk);
      EXPECT_NE(batch->status(bad), rnic::Status::kOk);
      EXPECT_EQ(batch->status(good_cq2), rnic::Status::kOk);
      EXPECT_EQ(batch->status(orphan), batch->status(bad));
    }
  };
  loop_.spawn(Flow::run(bed_.get()));
  loop_.run();
}

TEST_F(MasqBackendTest, BatchAmortizesKicksAndInterrupts) {
  bed_->add_instances(1);
  auto* mc = dynamic_cast<masq::MasqContext*>(&bed_->ctx(0));
  ASSERT_NE(mc, nullptr);
  // Sequential: the four setup verbs pay four virtqueue round trips.
  struct Seq {
    static sim::Task<void> run(verbs::Context* ctx) {
      auto pd = co_await ctx->alloc_pd();
      const mem::Addr buf = ctx->alloc_buffer(4096);
      (void)co_await ctx->reg_mr(pd.value, buf, 4096, apps::kFullAccess);
      auto scq = co_await ctx->create_cq(16);
      auto rcq = co_await ctx->create_cq(16);
      rnic::QpInitAttr init;
      init.pd = pd.value;
      init.send_cq = scq.value;
      init.recv_cq = rcq.value;
      init.caps.max_send_wr = 16;
      init.caps.max_recv_wr = 16;
      (void)co_await ctx->create_qp(init);
    }
  };
  loop_.spawn(Seq::run(&bed_->ctx(0)));
  loop_.run();
  const auto seq_cost = mc->virtqueue().kicks() + mc->virtqueue().interrupts();
  EXPECT_EQ(seq_cost, 8u);  // 4 verbs x (kick + interrupt)

  // Batched: the same four verbs in one CmdBatch = one kick, one interrupt.
  struct Batched {
    static sim::Task<void> run(verbs::Context* ctx) {
      auto pd = co_await ctx->alloc_pd();
      const mem::Addr buf = ctx->alloc_buffer(4096);
      auto b = ctx->make_batch();
      (void)b->reg_mr(pd.value, buf, 4096, apps::kFullAccess);
      const int s = b->create_cq(16);
      const int r = b->create_cq(16);
      rnic::QpInitAttr init;
      init.pd = pd.value;
      init.caps.max_send_wr = 16;
      init.caps.max_recv_wr = 16;
      (void)b->create_qp(init, s, r);
      EXPECT_EQ(co_await b->commit(), rnic::Status::kOk);
    }
  };
  loop_.spawn(Batched::run(&bed_->ctx(0)));
  loop_.run();
  const auto batch_cost =
      mc->virtqueue().kicks() + mc->virtqueue().interrupts() - seq_cost;
  EXPECT_EQ(batch_cost, 2u);  // one kick + one interrupt for the whole batch
  EXPECT_LT(batch_cost, seq_cost);
}

TEST_F(MasqBackendTest, SequentialAndBatchedSubmissionAgree) {
  // The same connection-establishment command stream submitted verb-by-verb
  // and as pipelined batches must leave identical tenant-visible state:
  // same QPNs, same tenant QPC view (virtual GID, not the renamed physical
  // one), same RConntrack entry.
  struct Result {
    rnic::Qpn qpn = 0;
    rnic::QpAttr view;
    bool tracked = false;
    net::Ipv4Addr src_vip, dst_vip;
  };
  struct Flow {
    static sim::Task<void> client(fabric::Testbed* bed, bool batched,
                                  Result* out) {
      verbs::Context& ctx = bed->ctx(0);
      apps::Endpoint ep;
      if (batched) {
        ep = co_await apps::setup_endpoint(ctx);
      } else {
        ep.buf_len = 64 * 1024;
        auto pd = co_await ctx.alloc_pd();
        ep.pd = pd.value;
        ep.buf = ctx.alloc_buffer(ep.buf_len);
        auto mr = co_await ctx.reg_mr(ep.pd, ep.buf, ep.buf_len,
                                      apps::kFullAccess);
        ep.mr = mr.value;
        auto scq = co_await ctx.create_cq(1024);
        auto rcq = co_await ctx.create_cq(1024);
        ep.scq = scq.value;
        ep.rcq = rcq.value;
        rnic::QpInitAttr init;
        init.pd = ep.pd;
        init.send_cq = ep.scq;
        init.recv_cq = ep.rcq;
        init.caps.max_send_wr = 512;
        init.caps.max_recv_wr = 512;
        auto qp = co_await ctx.create_qp(init);
        ep.qp = qp.value;
        auto gid = co_await ctx.query_gid();
        ep.local_gid = gid.value;
      }
      // OOB exchange with the server (identical in both modes).
      verbs::ConnInfo info{ep.qp, ep.local_gid, ep.mr.addr, ep.mr.rkey};
      (void)co_await ctx.oob().send(bed->instance_vip(1), 7600,
                                    overlay::pack(info));
      overlay::Blob reply = co_await ctx.oob().recv(7600);
      ep.peer = overlay::unpack<verbs::ConnInfo>(reply);
      rnic::Status st;
      if (batched) {
        st = co_await apps::raise_to_rts_batched(ctx, ep.qp, ep.peer);
      } else {
        rnic::QpAttr attr;
        attr.state = rnic::QpState::kInit;
        st = co_await ctx.modify_qp(ep.qp, attr, rnic::kAttrState);
        if (st == rnic::Status::kOk) {
          attr.state = rnic::QpState::kRtr;
          attr.dest_gid = ep.peer.gid;
          attr.dest_qpn = ep.peer.qpn;
          attr.path_mtu = 1024;
          st = co_await ctx.modify_qp(
              ep.qp, attr,
              rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn |
                  rnic::kAttrPathMtu);
        }
        if (st == rnic::Status::kOk) {
          attr.state = rnic::QpState::kRts;
          st = co_await ctx.modify_qp(ep.qp, attr, rnic::kAttrState);
        }
      }
      EXPECT_EQ(st, rnic::Status::kOk);
      auto q = co_await ctx.query_qp(ep.qp);
      EXPECT_TRUE(q.ok());
      out->qpn = ep.qp;
      out->view = q.value;
      const auto* entry =
          bed->masq_backend(0).conntrack().lookup(ep.qp, 100);
      out->tracked = entry != nullptr;
      if (entry != nullptr) {
        out->src_vip = entry->src_vip;
        out->dst_vip = entry->dst_vip;
      }
    }
    static sim::Task<void> server(fabric::Testbed* bed) {
      auto ep = co_await apps::setup_endpoint(bed->ctx(1));
      (void)co_await apps::connect_server(bed->ctx(1), ep,
                                          bed->instance_vip(0), 7600);
    }
  };
  auto run_one = [](bool batched, Result* out) {
    sim::EventLoop loop;
    fabric::TestbedConfig cfg;
    cfg.candidate = fabric::Candidate::kMasq;
    cfg.cal.host_dram_bytes = 16ull << 30;
    cfg.cal.vm_mem_bytes = 512ull << 20;
    fabric::Testbed bed(loop, cfg);
    bed.add_instances(2);
    loop.spawn(Flow::server(&bed));
    loop.spawn(Flow::client(&bed, batched, out));
    loop.run();
  };
  Result seq, bat;
  run_one(false, &seq);
  run_one(true, &bat);
  EXPECT_EQ(seq.qpn, bat.qpn);  // deterministic resource numbering
  EXPECT_EQ(seq.view.state, bat.view.state);
  EXPECT_EQ(seq.view.dest_gid, bat.view.dest_gid);  // still the vGID
  EXPECT_EQ(seq.view.dest_qpn, bat.view.dest_qpn);
  EXPECT_EQ(seq.view.path_mtu, bat.view.path_mtu);
  ASSERT_TRUE(seq.tracked);
  ASSERT_TRUE(bat.tracked);
  EXPECT_EQ(seq.src_vip, bat.src_vip);
  EXPECT_EQ(seq.dst_vip, bat.dst_vip);
}

// ---------------------------------------------------------- live migration

TEST_F(MasqBackendTest, MigrationMovesVmAndRemapsVgid) {
  bed_->add_instances(2);
  const auto vgid0 = net::Gid::from_ipv4(bed_->instance_vip(0));
  EXPECT_EQ(bed_->controller().lookup(100, vgid0),
            net::Gid::from_ipv4(bed_->device(0).config().ip));
  const auto host0_used = bed_->host(0).dram_used_bytes();
  const auto host1_used = bed_->host(1).dram_used_bytes();

  ASSERT_EQ(bed_->migrate_instance(0, 1), rnic::Status::kOk);

  EXPECT_EQ(bed_->instance_host(0), 1u);
  EXPECT_EQ(bed_->controller().lookup(100, vgid0),
            net::Gid::from_ipv4(bed_->device(1).config().ip));
  EXPECT_LT(bed_->host(0).dram_used_bytes(), host0_used);
  EXPECT_GT(bed_->host(1).dram_used_bytes(), host1_used);

  // The instance is fully usable after migration: connect + transfer.
  struct After {
    static sim::Task<void> run(fabric::Testbed* bed) {
      struct Srv {
        static sim::Task<void> srv(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7800);
          auto c = co_await apps::recv_and_wait(bed->ctx(1), ep, 0, 256);
          EXPECT_EQ(c.status, rnic::WcStatus::kSuccess);
        }
      };
      bed->loop().spawn(Srv::srv(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0));
      const auto st = co_await apps::connect_client(
          bed->ctx(0), ep, bed->instance_vip(1), 7800);
      EXPECT_EQ(st, rnic::Status::kOk);
      // Both VMs now sit on host 1: the frame still routes (loopback
      // through the shared port).
      auto wc = co_await apps::send_and_wait(bed->ctx(0), ep, 0, 32);
      EXPECT_EQ(wc, rnic::WcStatus::kSuccess);
    }
  };
  loop_.spawn(After::run(bed_.get()));
  loop_.run();
}

TEST_F(MasqBackendTest, MigrationRejectedForNonMasq) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kSriov;
  cfg.cal.host_dram_bytes = 8ull << 30;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  EXPECT_EQ(bed.migrate_instance(0, 1), rnic::Status::kInvalidArgument);
}

TEST_F(MasqBackendTest, MigrationToSameHostIsNoop) {
  bed_->add_instances(2);
  EXPECT_EQ(bed_->migrate_instance(0, 0), rnic::Status::kOk);
  EXPECT_EQ(bed_->instance_host(0), 0u);
}

TEST_F(MasqBackendTest, SecurityRulesSurviveMigration) {
  bed_->add_instances(2);
  // Deny RDMA for this tenant before migrating.
  bed_->policy(100).firewall(overlay::Chain::kForward)
      .add_rule(overlay::Rule::deny(net::Ipv4Cidr::any(),
                                    net::Ipv4Cidr::any(),
                                    overlay::Proto::kRdma, 900));
  ASSERT_EQ(bed_->migrate_instance(0, 1), rnic::Status::kOk);
  struct Try {
    static sim::Task<void> run(fabric::Testbed* bed) {
      struct Srv {
        static sim::Task<void> srv(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7900);
        }
      };
      bed->loop().spawn(Srv::srv(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0));
      const auto st = co_await apps::connect_client(
          bed->ctx(0), ep, bed->instance_vip(1), 7900);
      EXPECT_EQ(st, rnic::Status::kPermissionDenied);
    }
  };
  loop_.spawn(Try::run(bed_.get()));
  loop_.run();
}

}  // namespace
