// Warm-path connection setup (DESIGN.md §14) and the control-path bugfix
// sweep that rode along with it.
//
// What the suite proves:
//   * a disabled pool is invisible: acquire_warm() answers kCold and the
//     classic flow runs unmodified;
//   * the pooled and reused rungs cut end-to-end connection setup by the
//     advertised factor (>= 5x for a reused pair vs the cold ladder);
//   * lazy teardown really is lazy: a disconnect parks the endpoint (no
//     destroy on the wire), and only the idle reclaim tears it down;
//   * under chaos — a forced command-failure window killing the staging
//     batch, a FaultPlane-scheduled QP ERROR on a parked endpoint, and an
//     SDN controller outage mid-refill — the pool degrades to the cold
//     path and recovers, with the QP-FSM / RConntrack auditors live the
//     whole run;
//   * three control-path regressions stay fixed: destroy_qp keeps its UD
//     routing entry when the command fails, a failed batch entry reports a
//     zeroed result value, and the batch round-trip share distribution
//     loses no nanoseconds to integer division.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/common.h"
#include "fabric/testbed.h"
#include "masq/frontend.h"
#include "masq/warm_pool.h"
#include "rnic/device.h"

using namespace sim::literals;

namespace {

masq::MasqContext& masq_ctx(fabric::Testbed& bed, std::size_t i) {
  return static_cast<masq::MasqContext&>(bed.ctx(i));
}

struct BedOpts {
  bool warm = false;
  sim::Time reclaim_after = 0;  // 0 = keep the pool default
  sim::FaultConfig faults;
  std::uint64_t seed = 1;
  bool check = false;
};

std::unique_ptr<fabric::Testbed> make_bed(sim::EventLoop& loop, BedOpts o) {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.cal.host_dram_bytes = 32ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  cfg.masq_warm.enabled = o.warm;
  if (o.reclaim_after > 0) cfg.masq_warm.reclaim_after = o.reclaim_after;
  cfg.faults = std::move(o.faults);
  cfg.fault_seed = o.seed;
  cfg.check_invariants = o.check;
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(2);
  return bed;
}

// One client-side churn cycle: warm connect, record (kind, duration),
// disconnect. The server side is driven by serve_cycles() on the peer.
struct Cycle {
  verbs::WarmKind kind = verbs::WarmKind::kCold;
  sim::Time dur = 0;
  rnic::Status status = rnic::Status::kOk;
};

sim::Task<void> serve_cycles(fabric::Testbed* bed, std::size_t n,
                             std::uint16_t port) {
  for (std::size_t i = 0; i < n; ++i) {
    apps::WarmConn conn;
    const auto st = co_await apps::warm_connect_server(
        bed->ctx(1), conn, bed->instance_vip(0), port);
    EXPECT_EQ(st, rnic::Status::kOk) << "server cycle " << i;
    co_await apps::warm_disconnect(bed->ctx(1), conn);
  }
}

sim::Task<void> client_cycles(fabric::Testbed* bed, std::size_t n,
                              std::uint16_t port, sim::Time think,
                              std::vector<Cycle>* out) {
  for (std::size_t i = 0; i < n; ++i) {
    apps::WarmConn conn;
    const sim::Time t0 = bed->loop().now();
    const auto st = co_await apps::warm_connect_client(
        bed->ctx(0), conn, bed->instance_vip(1), port);
    out->push_back({conn.kind, bed->loop().now() - t0, st});
    co_await apps::warm_disconnect(bed->ctx(0), conn);
    if (think > 0) co_await sim::delay(bed->loop(), think);
  }
}

// ------------------------------------------------------- disabled pool

TEST(WarmTest, DisabledPoolActsCold) {
  // Default config: no pool object exists at all, acquire_warm() answers
  // kCold, and the warm_connect helpers collapse to the classic ladder.
  sim::EventLoop loop;
  auto bed = make_bed(loop, {});
  EXPECT_EQ(masq_ctx(*bed, 0).warm_pool(), nullptr);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      const auto ep = co_await bed->ctx(0).acquire_warm(
          net::Gid::from_ipv4(bed->instance_vip(1)));
      EXPECT_EQ(ep.kind, verbs::WarmKind::kCold);
      *finished = true;
    }
  };
  bool finished = false;
  std::vector<Cycle> cycles;
  loop.spawn(serve_cycles(bed.get(), 1, 7300));
  loop.spawn(client_cycles(bed.get(), 1, 7300, 0, &cycles));
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].status, rnic::Status::kOk);
  EXPECT_EQ(cycles[0].kind, verbs::WarmKind::kCold);
}

// ------------------------------------------- warm rungs vs cold ladder

TEST(WarmTest, PooledAndReusedCutSetupLatency) {
  // Cold baseline: the same churn-cycle protocol on a pool-less bed.
  sim::Time cold = 0;
  {
    sim::EventLoop loop;
    auto bed = make_bed(loop, {});
    std::vector<Cycle> cycles;
    loop.spawn(serve_cycles(bed.get(), 1, 7310));
    loop.spawn(client_cycles(bed.get(), 1, 7310, 0, &cycles));
    loop.run();
    ASSERT_EQ(cycles.size(), 1u);
    ASSERT_EQ(cycles[0].status, rnic::Status::kOk);
    cold = cycles[0].dur;
    ASSERT_GT(cold, 0);
  }

  // Warm bed: after the pool stages, a returning peer rides the reused
  // rung — one OOB hello round, no verbs — and later cycles must beat the
  // cold ladder by the acceptance factor.
  sim::EventLoop loop;
  BedOpts o;
  o.warm = true;
  auto bed = make_bed(loop, o);
  std::vector<Cycle> cycles;
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, std::vector<Cycle>* out) {
      // Let the staging task (PD + slab MR) and first refills land — each
      // pre-built endpoint pays the real Table 1 verb costs (~1 ms).
      co_await sim::delay(bed->loop(), 10_ms);
      co_await client_cycles(bed, 4, 7311, 200_us, out);
    }
  };
  loop.spawn(serve_cycles(bed.get(), 4, 7311));
  loop.spawn(Run::go(bed.get(), &cycles));
  loop.run();

  ASSERT_EQ(cycles.size(), 4u);
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    EXPECT_EQ(cycles[i].status, rnic::Status::kOk) << "cycle " << i;
  }
  // The first cycle may land on any rung (pool warm-up); every later one
  // reconnects to a peer both sides just parked, so it must be reused.
  for (std::size_t i = 1; i < cycles.size(); ++i) {
    EXPECT_EQ(cycles[i].kind, verbs::WarmKind::kReused) << "cycle " << i;
  }
  const sim::Time reused = cycles.back().dur;
  EXPECT_GE(cold, 5 * reused)
      << "cold " << cold << " ns vs reused " << reused << " ns";

  masq::WarmPool* pool = masq_ctx(*bed, 0).warm_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_TRUE(pool->staged());
  EXPECT_GE(pool->reuse_hits(), 2u);
  EXPECT_GE(pool->refills(), 1u);
}

// ------------------------------------------------ lazy teardown/reclaim

TEST(WarmTest, LazyTeardownParksThenReclaims) {
  sim::EventLoop loop;
  BedOpts o;
  o.warm = true;
  o.reclaim_after = 2_ms;
  auto bed = make_bed(loop, o);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      // Staging + the first refill ladders pay real Table 1 verb costs
      // (~1 ms per pre-built endpoint), so give the pool time to come up.
      co_await sim::delay(bed->loop(), 10_ms);
      masq::MasqContext& ctx = masq_ctx(*bed, 0);
      masq::WarmPool* pool = ctx.warm_pool();
      EXPECT_NE(pool, nullptr);
      if (pool == nullptr) co_return;
      EXPECT_TRUE(pool->staged());
      EXPECT_GE(pool->ready_size(), 1u);

      apps::WarmConn conn;
      const auto st = co_await apps::warm_connect_client(
          bed->ctx(0), conn, bed->instance_vip(1), 7320);
      EXPECT_EQ(st, rnic::Status::kOk);
      EXPECT_TRUE(conn.warm.warm());
      co_await apps::warm_disconnect(bed->ctx(0), conn);

      // Disconnect parked the endpoint instead of destroying it: the QP is
      // still live on the backend and queued for the idle reclaim.
      EXPECT_EQ(pool->parked_size(), 1u);
      EXPECT_EQ(pool->reclaimed(), 0u);
      const std::uint64_t destroyed0 = ctx.session().qps_destroyed();

      // Idle past reclaim_after: the reclaim fires and the background
      // teardown actually destroys the parked QP.
      co_await sim::delay(bed->loop(), 10_ms);
      EXPECT_GE(pool->reclaimed(), 1u);
      EXPECT_EQ(pool->parked_size(), 0u);
      EXPECT_GT(ctx.session().qps_destroyed(), destroyed0);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(serve_cycles(bed.get(), 1, 7320));
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

// -------------------------------------------------- chaos: degrade/recover

TEST(WarmTest, PoolDegradesToColdUnderChaos) {
  // Three faults against a warm bed, auditors armed the whole run:
  //   1. a forced command-failure window at t=0 kills the staging batch —
  //      acquire answers kCold and the cold ladder still connects;
  //   2. a FaultPlane-scheduled QP ERROR on the parked pair purges it from
  //      the pool (and the next reconnect takes the downgrade path);
  //   3. an SDN controller outage lands mid-refill — pool verbs do not
  //      touch the controller, and a connect between cached peers still
  //      succeeds in degraded mode.
  sim::EventLoop loop;
  BedOpts o;
  o.warm = true;
  o.seed = 3;
  o.check = true;
  o.faults.sdn_outages.push_back({100_ms, 105_ms});
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->faults(), nullptr);
  ASSERT_NE(bed->checks(), nullptr);
  bed->faults()->set_force_cmd_failures(true);

  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      masq::MasqContext& ctx = masq_ctx(*bed, 0);
      masq::WarmPool* pool = ctx.warm_pool();
      EXPECT_NE(pool, nullptr);
      if (pool == nullptr) co_return;

      // 1. Staging's reg_mr exhausts its retry budget against the forced
      // failures; the pool stays cold rather than wedged.
      co_await sim::delay(bed->loop(), 2_ms);
      EXPECT_FALSE(pool->staged());
      bed->faults()->set_force_cmd_failures(false);

      const net::Gid peer_gid = net::Gid::from_ipv4(bed->instance_vip(1));
      const auto probe = co_await ctx.acquire_warm(peer_gid);
      EXPECT_EQ(probe.kind, verbs::WarmKind::kCold);  // degraded answer

      apps::WarmConn c1;
      auto st = co_await apps::warm_connect_client(bed->ctx(0), c1,
                                                   bed->instance_vip(1), 7330);
      EXPECT_EQ(st, rnic::Status::kOk);
      EXPECT_EQ(c1.kind, verbs::WarmKind::kCold);
      co_await apps::warm_disconnect(bed->ctx(0), c1);

      // Recovery: the acquire above re-kicked staging; with the fault
      // window over the pool comes up for real.
      co_await sim::delay(bed->loop(), 3_ms);
      EXPECT_TRUE(pool->staged());
      EXPECT_GE(pool->ready_size(), 1u);

      apps::WarmConn c2;
      st = co_await apps::warm_connect_client(bed->ctx(0), c2,
                                              bed->instance_vip(1), 7330);
      EXPECT_EQ(st, rnic::Status::kOk);
      EXPECT_EQ(c2.kind, verbs::WarmKind::kPooled);
      const rnic::Qpn victim = c2.qpn;
      co_await apps::warm_disconnect(bed->ctx(0), c2);
      EXPECT_EQ(pool->parked_size(), 1u);

      // 2. Kill the parked QP through the FaultPlane schedule; the device
      // hook must purge it from the pool.
      bed->faults()->inject_qp_error_at(bed->loop().now() + 500_us, victim,
                                        [bed, victim] {
                                          rnic::QpAttr attr;
                                          attr.state = rnic::QpState::kError;
                                          (void)bed->device(0).modify_qp(
                                              victim, attr, rnic::kAttrState);
                                        });
      co_await sim::delay(bed->loop(), 1_ms);
      EXPECT_GE(pool->purged(), 1u);
      EXPECT_EQ(pool->parked_size(), 0u);

      // 3. Reconnect during the controller outage: the client's parked
      // half is gone (purged), the server's is stale (wired to the dead
      // QP) — both sides downgrade cleanly, and the cached peer mapping
      // carries the connect through the outage.
      co_await sim::delay(bed->loop(), 101_ms - bed->loop().now());
      apps::WarmConn c3;
      st = co_await apps::warm_connect_client(bed->ctx(0), c3,
                                              bed->instance_vip(1), 7330);
      EXPECT_EQ(st, rnic::Status::kOk);
      EXPECT_EQ(c3.kind, verbs::WarmKind::kPooled);
      co_await apps::warm_disconnect(bed->ctx(0), c3);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(serve_cycles(bed.get(), 3, 7330));
  loop.spawn(Run::go(bed.get(), &finished));
  // Auditors run every check_audit_every events; a QP-FSM or RConntrack
  // violation throws out of run() and fails the test.
  loop.run();
  EXPECT_TRUE(finished);
  EXPECT_GT(bed->faults()->faults_fired(), 0u) << bed->faults()->dump_log();
}

// ----------------------------------------- bugfix: destroy_qp UD routing

TEST(WarmTest, DestroyQpFailureKeepsUdRouting) {
  // Regression: destroy_qp used to erase the QP's entry from the UD
  // routing table even when the command failed. A later retry would then
  // see the (still live) UD QP as RC and push its WQEs down the data path,
  // bypassing RConnrename (§3.3.4).
  sim::EventLoop loop;
  BedOpts o;
  o.seed = 11;
  // Far-future zero-length window: builds the fault plane without firing.
  o.faults.sdn_outages.push_back({sim::seconds(1), sim::seconds(1)});
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->faults(), nullptr);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      masq::MasqContext& ctx = masq_ctx(*bed, 0);
      apps::EndpointOptions opts;
      opts.type = rnic::QpType::kUd;
      auto ep = co_await apps::setup_endpoint(bed->ctx(0), opts);
      EXPECT_EQ(ctx.ud_control_sends(), 0u);

      bed->faults()->set_force_cmd_failures(true);
      const auto st = co_await ctx.destroy_qp(ep.qp);
      EXPECT_NE(st, rnic::Status::kOk);  // retries exhausted, QP survives
      bed->faults()->set_force_cmd_failures(false);

      // The failed destroy must NOT have dropped the routing entry: a UD
      // post_send still takes the control path.
      rnic::SendWr wr;
      wr.sge = {ep.buf, 64, ep.mr.lkey};
      wr.ud.gid = net::Gid::from_ipv4(bed->instance_vip(1));
      wr.ud.qpn = 1;
      EXPECT_EQ(ctx.post_send(ep.qp, wr), rnic::Status::kOk);
      EXPECT_EQ(ctx.ud_control_sends(), 1u);

      // A clean destroy still works and erases the entry for real.
      EXPECT_EQ(co_await ctx.destroy_qp(ep.qp), rnic::Status::kOk);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

// ------------------------------------------ bugfix: batch result zeroing

TEST(WarmTest, BatchFailedEntryZeroesValue) {
  // Regression: MasqBatch::record copied the response's v0 into the
  // entry's result value even when the entry failed, so callers reading
  // value() on a failed slot saw stale/garbage handles instead of 0.
  sim::EventLoop loop;
  BedOpts o;
  o.seed = 13;
  o.faults.sdn_outages.push_back({sim::seconds(1), sim::seconds(1)});
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->faults(), nullptr);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      // A batch whose entries all fail transiently until the retry budget
      // is gone: every slot must report a failure AND a zeroed value.
      bed->faults()->set_force_cmd_failures(true);
      auto failing = bed->ctx(0).make_batch();
      const int cq_slot = failing->create_cq(256);
      const auto st = co_await failing->commit();
      EXPECT_NE(st, rnic::Status::kOk);
      EXPECT_NE(failing->status(cq_slot), rnic::Status::kOk);
      EXPECT_EQ(failing->value(cq_slot), 0u);
      bed->faults()->set_force_cmd_failures(false);

      // Mixed batch, permanent per-entry error: the good entry keeps its
      // handle, the bad one reports kNotFound with value 0.
      auto mixed = bed->ctx(0).make_batch();
      const int good = mixed->create_cq(256);
      rnic::QpAttr attr;
      attr.state = rnic::QpState::kInit;
      const int bad = mixed->modify_qp(999999, attr, rnic::kAttrState);
      (void)co_await mixed->commit();
      EXPECT_EQ(mixed->status(good), rnic::Status::kOk);
      EXPECT_NE(mixed->value(good), 0u);
      EXPECT_EQ(mixed->status(bad), rnic::Status::kNotFound);
      EXPECT_EQ(mixed->value(bad), 0u);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

TEST(WarmTest, BatchLinkPastTheEndFailsInvalidArgument) {
  // Regression: the entry-retry rounds read a link as a dependency without
  // checking that it names an earlier entry, so a slot past the batch's
  // end indexed its results out of range (a garbage status, or a crash for
  // a far slot). Such a link names nothing: fault-free it fails
  // kInvalidArgument, and under forced command failures the entry runs
  // its retry budget out like any other.
  sim::EventLoop loop;
  BedOpts o;
  o.seed = 13;
  o.faults.sdn_outages.push_back({sim::seconds(1), sim::seconds(1)});
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->faults(), nullptr);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      rnic::QpAttr attr;
      attr.state = rnic::QpState::kInit;
      auto clean = bed->ctx(0).make_batch();
      const int slot = clean->modify_qp_slot(7, attr, rnic::kAttrState);
      EXPECT_EQ(co_await clean->commit(), rnic::Status::kInvalidArgument);
      EXPECT_EQ(clean->status(slot), rnic::Status::kInvalidArgument);

      bed->faults()->set_force_cmd_failures(true);
      for (const int far : {7, 1 << 30}) {
        auto forced = bed->ctx(0).make_batch();
        const int s = forced->modify_qp_slot(far, attr, rnic::kAttrState);
        (void)co_await forced->commit();
        EXPECT_EQ(forced->status(s), rnic::Status::kDeadlineExceeded)
            << "slot " << far;
      }
      bed->faults()->set_force_cmd_failures(false);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

// -------------------------------------- bugfix: batch round-trip shares

TEST(WarmTest, BatchRoundTripShareSumsExact) {
  // Regression: the per-entry virtqueue share was round_trip/n with plain
  // integer division, silently dropping up to n-1 ns per chunk from the
  // profile. The remainder is now distributed across the first entries,
  // so the per-layer total equals the charged round trip exactly.
  sim::EventLoop loop;
  auto bed = make_bed(loop, {});
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      masq::MasqContext& ctx = masq_ctx(*bed, 0);
      const sim::Time rt = ctx.virtqueue().costs().round_trip();
      EXPECT_NE(rt % 3, 0) << "pick an entry count that exercises the "
                              "remainder distribution";
      ctx.profile().clear();
      auto batch = bed->ctx(0).make_batch();
      batch->create_cq(64);
      batch->create_cq(64);
      batch->create_cq(64);
      EXPECT_EQ(co_await batch->commit(), rnic::Status::kOk);
      // Three same-verb entries, one virtqueue transit: the three shares
      // accumulate in one bucket and must reconstruct the round trip to
      // the nanosecond.
      EXPECT_EQ(ctx.profile().by_layer("create_cq", verbs::Layer::kVirtio),
                rt);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

}  // namespace
