// masq-check corruption suite: proves each runtime auditor actually fires.
//
// Every test drives a real MasQ workload to a healthy state with auditing
// on (so the auditors see only truth and stay silent), then corrupts one
// component through its *_for_test hook — bypassing exactly the mechanism
// whose invariant the auditor guards — and asserts the next audit reports
// a precise diagnostic. A silent checker is worse than no checker: this
// suite is the evidence the chaos-green-under-MASQ_CHECK runs mean
// something.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "check/auditors.h"
#include "check/invariant.h"
#include "fabric/testbed.h"
#include "net/topology.h"
#include "rnic/device.h"

using namespace sim::literals;

namespace {

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }

std::unique_ptr<fabric::Testbed> checked_bed(sim::EventLoop& loop,
                                             int instances = 2) {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.cal.host_dram_bytes = 32ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  cfg.check_invariants = true;  // independent of the MASQ_CHECK env var
  // The connect+write workload executes a few hundred events (its time is
  // dominated by ms-scale controller RTTs); audit often enough that the
  // periodic hook provably fires during it.
  cfg.check_audit_every = 32;
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(instances);
  return bed;
}

// Client/server connect + one RDMA write, with auditing on throughout.
void run_healthy_workload(sim::EventLoop& loop, fabric::Testbed& bed,
                          rnic::Qpn* client_qpn = nullptr) {
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, rnic::Qpn* out,
                              bool* finished) {
      struct Srv {
        static sim::Task<void> srv(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          const auto st = co_await apps::connect_server(
              bed->ctx(1), ep, bed->instance_vip(0), 9000);
          EXPECT_EQ(st, rnic::Status::kOk);
        }
      };
      bed->loop().spawn(Srv::srv(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0));
      const auto st = co_await apps::connect_client(bed->ctx(0), ep,
                                                    bed->instance_vip(1),
                                                    9000);
      EXPECT_EQ(st, rnic::Status::kOk);
      const auto wc =
          co_await apps::write_and_wait(bed->ctx(0), ep, 0, 0, 256);
      EXPECT_EQ(wc, rnic::WcStatus::kSuccess);
      if (out != nullptr) *out = ep.qp;
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(&bed, client_qpn, &finished));
  loop.run();
  ASSERT_TRUE(finished);
  // Auditing ran during the workload and saw a healthy system. (The
  // disabled-run determinism test drives this same workload with
  // check_invariants off, where there is nothing to assert.)
  if (bed.checks() != nullptr) {
    EXPECT_GT(bed.checks()->audits_run(), 0u);
    EXPECT_TRUE(bed.checks()->violations().empty())
        << bed.checks()->report();
  }
}

// ------------------------------------------------------- (1) qp-state

TEST(CheckTest, QpAuditorTripsOnStateChangeWithoutTransition) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  rnic::Qpn qpn = 0;
  run_healthy_workload(loop, *bed, &qpn);
  // Baseline audit pins the auditor's last observation of the QP.
  bed->checks()->audit("baseline");
  ASSERT_TRUE(bed->checks()->violations().empty());

  // Flip the QP's state underneath the device: no modify_qp, no hardware
  // edge — the transition counter stays put, which is the corruption
  // signature the auditor keys on.
  rnic::RnicDevice& dev = bed->device(bed->instance_host(0));
  rnic::QpAttr attr = dev.qp_hw_attr(qpn);
  attr.state = rnic::QpState::kError;
  dev.corrupt_qp_for_test(qpn, rnic::QpState::kError, attr);

  try {
    bed->checks()->audit("corruption");
    FAIL() << "qp-state auditor did not fire";
  } catch (const check::InvariantViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("qp-state"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("without performing any legal"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckTest, QpAuditorTripsOnVirtualGidPastRtr) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  rnic::Qpn qpn = 0;
  run_healthy_workload(loop, *bed, &qpn);

  // Undo RConnrename: plant the peer's *virtual* GID (its vIP-derived GID,
  // registered with the controller) back into the connected QPC.
  rnic::RnicDevice& dev = bed->device(bed->instance_host(0));
  rnic::QpAttr attr = dev.qp_hw_attr(qpn);
  attr.dest_gid = net::Gid::from_ipv4(bed->instance_vip(1));
  dev.corrupt_qp_for_test(qpn, dev.qp_state(qpn), attr);

  try {
    bed->checks()->audit("corruption");
    FAIL() << "qp-state auditor did not fire on a virtual GID in the QPC";
  } catch (const check::InvariantViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("tenant-virtual dest GID"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- (2) vq-ring

TEST(CheckTest, RingAuditorTripsOnAccountingDrift) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  run_healthy_workload(loop, *bed);

  // Fake one acquired-but-never-released descriptor: acquired/released
  // drift apart from in_flight, which is what a leaked descriptor across a
  // fault injection would look like.
  auto& ctx = static_cast<masq::MasqContext&>(bed->ctx(0));
  ctx.virtqueue().corrupt_ring_accounting_for_test();

  try {
    bed->checks()->audit("corruption");
    FAIL() << "vq-ring auditor did not fire";
  } catch (const check::InvariantViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("vq-ring[inst0]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("leaked or duplicated"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- (3) cache

TEST(CheckTest, CacheAuditorTripsOnDivergenceFromControllerTruth) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  run_healthy_workload(loop, *bed);

  // Rewrite a cached mapping to a bogus physical GID. The controller is
  // reachable and has no buffered broadcasts, so divergence is
  // illegitimate and the auditor must flag it.
  const net::Gid vgid = net::Gid::from_ipv4(bed->instance_vip(1));
  const net::Gid bogus = net::Gid::from_ipv4(ip("10.99.99.99"));
  bed->masq_backend(bed->instance_host(0))
      .mapping_cache()
      .corrupt_entry_for_test(bed->instance_vni(1), vgid, bogus);

  try {
    bed->checks()->audit("corruption");
    FAIL() << "cache auditor did not fire";
  } catch (const check::InvariantViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("controller truth"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- (4) conntrack

TEST(CheckTest, ConntrackAuditorTripsOnRowForDeadQp) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  run_healthy_workload(loop, *bed);

  // Plant a row referencing a QPN the device never created. No purge is
  // pending, so the auditor has no excuse to look away.
  masq::RConntrack::Entry orphan;
  orphan.vni = bed->instance_vni(0);
  orphan.src_vip = bed->instance_vip(0);
  orphan.dst_vip = bed->instance_vip(1);
  orphan.qpn = 0xdead;
  bed->masq_backend(bed->instance_host(0))
      .conntrack()
      .corrupt_insert_for_test(orphan);

  try {
    bed->checks()->audit("corruption");
    FAIL() << "conntrack auditor did not fire";
  } catch (const check::InvariantViolationError& e) {
    EXPECT_NE(std::string(e.what()).find("no longer exists"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- (5) determinism

TEST(CheckTest, DeterminismAuditorPassesOnIdenticalRuns) {
  auto scenario = [](sim::EventLoop& loop) {
    auto bed = checked_bed(loop);
    run_healthy_workload(loop, *bed);
  };
  const check::DeterminismResult r = check::run_twice(scenario);
  EXPECT_TRUE(r.identical())
      << std::hex << r.first_hash << " vs " << r.second_hash;
  EXPECT_NE(r.first_hash, 0u);
}

TEST(CheckTest, DeterminismAuditorTripsOnDivergentRuns) {
  // A scenario that leaks cross-run state into the event stream: the
  // second run schedules one extra event, which is exactly the class of
  // bug (iteration-order / hidden-global dependence) the checker exists
  // to catch.
  int runs = 0;
  auto scenario = [&runs](sim::EventLoop& loop) {
    for (int i = 0; i < 2 + runs; ++i) {
      loop.schedule_after(sim::microseconds(i + 1), [] {});
    }
    ++runs;
    loop.run();
  };
  sim::EventLoop loop;
  check::InvariantRegistry registry(loop);
  registry.set_policy(check::ViolationPolicy::kRecord);
  check::audit_determinism(registry, scenario);
  ASSERT_EQ(registry.violations().size(), 1u);
  EXPECT_EQ(registry.violations()[0].invariant, "determinism");
  EXPECT_NE(registry.violations()[0].diagnostic.find("diverged"),
            std::string::npos);
}

// ------------------------------------------------------- framework

TEST(CheckTest, DisabledRunIsBitIdenticalToCheckedRun) {
  // The audit hook must be an observer: with auditors registered and
  // firing, the event trace hash equals the unchecked run's. (Trace
  // hashing is orthogonal to auditing, so it can watch both.)
  auto run_hash = [](bool check) {
    sim::EventLoop loop;
    loop.enable_trace();
    fabric::TestbedConfig cfg;
    cfg.candidate = fabric::Candidate::kMasq;
    cfg.cal.host_dram_bytes = 32ull << 30;
    cfg.cal.vm_mem_bytes = 512ull << 20;
    cfg.check_invariants = check;
    cfg.check_audit_every = 64;  // audit often to maximize perturbation
    fabric::Testbed bed(loop, cfg);
    bed.add_instances(2);
    run_healthy_workload(loop, bed);
    return loop.trace_hash();
  };
  EXPECT_EQ(run_hash(false), run_hash(true));
}

TEST(CheckTest, QuiesceAuditCleanAfterDrainedRun) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  run_healthy_workload(loop, *bed);
  ASSERT_TRUE(loop.empty());
  bed->checks()->audit("quiesce");
  EXPECT_TRUE(bed->checks()->violations().empty()) << bed->checks()->report();
  EXPECT_GT(bed->checks()->checks_run(), 0u);
}

// ------------------------------------------- (6) spine-outage schedule

// A testbed on a 2-leaf/1-spine fabric (DESIGN.md §17): hosts 0 and 1 land
// on different leaves, so cutting the only spine severs every data path
// between them.
std::unique_ptr<fabric::Testbed> spine_bed(sim::EventLoop& loop) {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.num_hosts = 2;
  cfg.cal.host_dram_bytes = 32ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  cfg.check_invariants = true;
  cfg.check_audit_every = 32;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 1;
  cfg.topology.spine_gbps = 40.0;  // == cal.link_gbps
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(2);
  return bed;
}

// Drops the spine's links to zero capacity over [from, until) — a fabric
// outage the RC retransmission budget (7 x 4 ms) must outlast.
sim::Task<void> spine_outage(fabric::Testbed* bed, sim::Time from,
                             sim::Time until) {
  co_await sim::delay(bed->loop(), from);
  for (net::LinkId l : bed->topology().spine_links(0)) {
    bed->fluid().set_link_capacity(l, 0);
  }
  co_await sim::delay(bed->loop(), until - from);
  for (net::LinkId l : bed->topology().spine_links(0)) {
    bed->fluid().set_link_capacity(l, 40.0);
  }
}

// A paced cross-leaf stream whose middle messages land inside the outage
// window; each completion time is recorded so the test can prove traffic
// actually stalled and recovered rather than finishing early.
sim::Task<void> spine_stream(fabric::Testbed* bed, std::size_t msgs,
                             std::vector<sim::Time>* done, bool* finished) {
  struct Srv {
    static sim::Task<void> run(fabric::Testbed* bed, std::size_t msgs) {
      auto ep = co_await apps::setup_endpoint(bed->ctx(1));
      (void)co_await apps::connect_server(bed->ctx(1), ep,
                                          bed->instance_vip(0), 9100);
      for (std::size_t i = 0; i < msgs; ++i) {
        rnic::RecvWr wr;
        wr.wr_id = i;
        wr.sge = {ep.buf + i * 1024, 1024, ep.mr.lkey};
        EXPECT_EQ(bed->ctx(1).post_recv(ep.qp, wr), rnic::Status::kOk);
      }
    }
  };
  bed->loop().spawn(Srv::run(bed, msgs));
  auto ep = co_await apps::setup_endpoint(bed->ctx(0));
  const auto st = co_await apps::connect_client(bed->ctx(0), ep,
                                                bed->instance_vip(1), 9100);
  EXPECT_EQ(st, rnic::Status::kOk);
  if (st != rnic::Status::kOk) co_return;
  co_await sim::delay(bed->loop(), 50_us);
  for (std::size_t i = 0; i < msgs; ++i) {
    apps::put_string(bed->ctx(0), ep, i * 1024, "spine-" + std::to_string(i));
    EXPECT_EQ(co_await apps::send_and_wait(bed->ctx(0), ep, i * 1024, 64),
              rnic::WcStatus::kSuccess)
        << "send " << i;
    done->push_back(bed->loop().now());
    co_await sim::delay(bed->loop(), 1_ms);
  }
  *finished = true;
}

TEST(CheckTest, SpineOutageKeepsAuditorsSilent) {
  // The incast/outage recovery path is legal behavior, not corruption: a
  // 10 ms spine outage (inside the 28 ms RC retry budget) stalls the
  // stream, retransmission carries it across, and the cache-coherence and
  // QP-FSM auditors must stay silent the whole way — the default policy
  // throws out of loop.run() if any fires.
  sim::EventLoop loop;
  auto bed = spine_bed(loop);
  std::vector<sim::Time> done;
  bool finished = false;
  loop.spawn(spine_stream(bed.get(), 8, &done, &finished));
  loop.spawn(spine_outage(bed.get(), 4_ms, 14_ms));
  loop.run();

  EXPECT_TRUE(finished);
  ASSERT_EQ(done.size(), 8u);
  // The outage really bit: at least one message could only complete after
  // the spine came back.
  EXPECT_GT(done.back(), 14_ms);
  bool stalled = false;
  for (const sim::Time t : done) stalled |= (t >= 14_ms);
  EXPECT_TRUE(stalled);
  // And auditing saw a healthy system throughout and at quiescence.
  EXPECT_GT(bed->checks()->audits_run(), 0u);
  bed->checks()->audit("after-outage");
  EXPECT_TRUE(bed->checks()->violations().empty()) << bed->checks()->report();
}

TEST(CheckTest, SpineOutageCorruptionStillTrips) {
  // The silence above means something only if the same schedule can fire:
  // corrupt one cached mapping mid-outage and the cache auditor must flag
  // it — an outage is no excuse for ignoring divergence from controller
  // truth (only an SDN outage buffers broadcasts; the spine is data plane).
  sim::EventLoop loop;
  auto bed = spine_bed(loop);
  bed->checks()->set_policy(check::ViolationPolicy::kRecord);
  std::vector<sim::Time> done;
  bool finished = false;
  loop.spawn(spine_stream(bed.get(), 8, &done, &finished));
  loop.spawn(spine_outage(bed.get(), 4_ms, 14_ms));
  struct Corrupt {
    static sim::Task<void> go(fabric::Testbed* bed) {
      co_await sim::delay(bed->loop(), 8_ms);  // inside the outage window
      const net::Gid vgid = net::Gid::from_ipv4(bed->instance_vip(1));
      const net::Gid bogus = net::Gid::from_ipv4(ip("10.99.99.99"));
      bed->masq_backend(bed->instance_host(0))
          .mapping_cache()
          .corrupt_entry_for_test(bed->instance_vni(1), vgid, bogus);
      bed->checks()->audit("mid-outage-corruption");
    }
  };
  loop.spawn(Corrupt::go(bed.get()));
  loop.run();

  EXPECT_TRUE(finished);
  bool cache_fired = false;
  for (const check::Violation& v : bed->checks()->violations()) {
    if (v.invariant == "cache" && v.point == "mid-outage-corruption") {
      cache_fired = true;
      EXPECT_NE(v.diagnostic.find("controller truth"), std::string::npos)
          << v.diagnostic;
    }
  }
  EXPECT_TRUE(cache_fired) << "cache auditor silent under the fault schedule";
}

TEST(CheckTest, RecordPolicyCollectsInsteadOfThrowing) {
  sim::EventLoop loop;
  auto bed = checked_bed(loop);
  run_healthy_workload(loop, *bed);
  bed->checks()->set_policy(check::ViolationPolicy::kRecord);
  auto& ctx = static_cast<masq::MasqContext&>(bed->ctx(0));
  ctx.virtqueue().corrupt_ring_accounting_for_test();
  bed->checks()->audit("corruption");
  ASSERT_FALSE(bed->checks()->violations().empty());
  EXPECT_EQ(bed->checks()->violations()[0].point, "corruption");
}

}  // namespace
