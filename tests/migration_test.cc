// Transparent live migration of established RDMA connections (DESIGN.md
// §15) — the chaos + invariant tier that makes masq::Migrator trustworthy.
//
// What the suite proves:
//   * mid-traffic migration is invisible to the application: an RC stream
//     crosses the move with zero connection resets, every payload arrives
//     exactly once and in order, and the QP keeps its number and its RTS
//     state on the destination device;
//   * the chaos schedule holds under the awkward windows — a control-verb
//     batch in flight when the gate closes, an SDN controller outage
//     covering the whole move, a warm-pool refill ladder racing the drain
//     — all with the QP-FSM / ring / cache / conntrack auditors live;
//   * a drain timeout rolls the pause back completely: the VM stays on the
//     source host, paused QPs return to RTS, and the stalled traffic then
//     completes untouched;
//   * the no-WQE-lost auditor is not decorative: corruption hooks that
//     drop or duplicate one WQE between extract and restore fire the
//     "migration-wqe" invariant with a diagnostic naming the QP, both
//     digests and the queue-depth change;
//   * the warm pool purges parked pairs whose peer migrated (the parked
//     underlay route is stale) — the next connect downgrades instead of
//     reusing a mis-wired pair;
//   * a seed sweep (MASQ_CHAOS_SEEDS-sized, 100 in CI) shows migrated and
//     never-migrated runs of the same seeded workload deliver bit-identical
//     application payloads;
//   * with migration unused the testbed's event stream is untouched — a
//     same-host migrate_vm is a no-op and two fresh runs stay bit-identical
//     (the ctest golden suite pins BENCH_scale / Fig. 15 / Table 1 on top).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "check/invariant.h"
#include "fabric/testbed.h"
#include "masq/frontend.h"
#include "masq/warm_pool.h"
#include "mem/physical_memory.h"
#include "pin_hash.h"
#include "rnic/device.h"

using namespace sim::literals;

namespace {

masq::MasqContext& masq_ctx(fabric::Testbed& bed, std::size_t i) {
  return static_cast<masq::MasqContext&>(bed.ctx(i));
}

struct BedOpts {
  int num_hosts = 3;
  bool warm = false;
  bool check = false;
  sim::FaultConfig faults;
  std::uint64_t seed = 1;
  std::size_t warm_target_ready = 4;
};

std::unique_ptr<fabric::Testbed> make_bed(sim::EventLoop& loop, BedOpts o) {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.num_hosts = o.num_hosts;
  cfg.cal.host_dram_bytes = 32ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  cfg.masq_warm.enabled = o.warm;
  cfg.masq_warm.target_ready = o.warm_target_ready;
  cfg.faults = std::move(o.faults);
  cfg.fault_seed = o.seed;
  cfg.check_invariants = o.check;
  auto bed = std::make_unique<fabric::Testbed>(loop, cfg);
  bed->add_instances(2);  // instance 0 on host 0, instance 1 on host 1
  return bed;
}

// Deterministic splitmix-style generator (no std::rand: the sim forbids
// ambient nondeterminism and a fixed stream keeps every seed replayable).
struct Rng {
  std::uint64_t x;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  }
  std::uint64_t next(std::uint64_t bound) { return next() % bound; }
};

// One seeded client->server stream with an optional transparent migration
// of the server VM landing mid-stream. The transcript records everything
// an application could observe; migrated and baseline runs must agree.
struct Transcript {
  std::vector<std::string> server_rx;          // payloads, arrival order
  std::vector<rnic::WcStatus> client_cqes;     // one per send
  std::vector<rnic::WcStatus> server_cqes;     // one per recv
  rnic::Status connect = rnic::Status::kOk;
  rnic::Status migrate = rnic::Status::kOk;
  masq::MigrationReport report;
  bool client_done = false;
  bool server_done = false;
  // The run's stream, for the sweep fold (not application-visible).
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0;
};

constexpr std::uint64_t kSlot = 1024;  // per-message buffer slot

std::string payload_for(std::uint64_t seed, std::size_t i, std::size_t len) {
  std::string s = "seed" + std::to_string(seed) + "-msg" + std::to_string(i);
  while (s.size() < len) s.push_back('a' + static_cast<char>(s.size() % 26));
  s.resize(len);
  return s;
}

sim::Task<void> stream_server(fabric::Testbed* bed, std::size_t n,
                              std::uint16_t port, Transcript* out) {
  auto ep = co_await apps::setup_endpoint(bed->ctx(1));
  const auto st = co_await apps::connect_server(bed->ctx(1), ep,
                                               bed->instance_vip(0), port);
  EXPECT_EQ(st, rnic::Status::kOk);
  // Pre-post every recv in one synchronous burst the instant the ladder
  // lands (the client defers its first send past this moment): the stream
  // can never hit RNR, so any non-success CQE is a genuine transport event.
  for (std::size_t i = 0; i < n; ++i) {
    rnic::RecvWr wr;
    wr.wr_id = i;
    wr.sge = {ep.buf + i * kSlot, kSlot, ep.mr.lkey};
    EXPECT_EQ(bed->ctx(1).post_recv(ep.qp, wr), rnic::Status::kOk);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const rnic::Completion c = co_await bed->ctx(1).wait_completion(ep.rcq);
    out->server_cqes.push_back(c.status);
    out->server_rx.push_back(
        apps::get_string(bed->ctx(1), ep, c.wr_id * kSlot, c.byte_len));
  }
  out->server_done = true;
}

sim::Task<void> stream_client(fabric::Testbed* bed, std::uint64_t seed,
                              std::size_t n, std::uint16_t port,
                              sim::Time think, Transcript* out) {
  auto ep = co_await apps::setup_endpoint(bed->ctx(0));
  out->connect = co_await apps::connect_client(bed->ctx(0), ep,
                                               bed->instance_vip(1), port);
  if (out->connect != rnic::Status::kOk) co_return;
  // Grace period so the server's recv burst is posted before the first
  // send can arrive.
  co_await sim::delay(bed->loop(), 50_us);
  Rng rng{seed * 2 + 1};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 32 + rng.next(480);
    apps::put_string(bed->ctx(0), ep, i * kSlot, payload_for(seed, i, len));
    out->client_cqes.push_back(co_await apps::send_and_wait(
        bed->ctx(0), ep, i * kSlot, static_cast<std::uint32_t>(len)));
    if (think > 0) co_await sim::delay(bed->loop(), think);
  }
  out->client_done = true;
}

sim::Task<void> migrate_at(fabric::Testbed* bed, sim::Time when,
                           std::size_t inst, std::size_t target,
                           Transcript* out) {
  co_await sim::delay(bed->loop(), when);
  out->migrate = co_await bed->migrate_vm(inst, target);
  out->report = bed->last_migration_report();
}

// ------------------------------------------------- mid-traffic migration

TEST(MigrationTest, MidTrafficStreamSurvivesWithZeroResets) {
  // The flagship scenario: a 12-message RC stream, server VM migrated to
  // a third host mid-stream, every auditor armed. The application observes
  // added latency only: same QPN, no reset CQE, all payloads in order.
  sim::EventLoop loop;
  BedOpts o;
  o.check = true;
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->checks(), nullptr);

  constexpr std::size_t kMsgs = 12;
  Transcript t;
  loop.spawn(stream_server(bed.get(), kMsgs, 7400, &t));
  loop.spawn(stream_client(bed.get(), 1, kMsgs, 7400, 100_us, &t));
  // ~5 ms: the connect ladder is done and the stream is in full flight
  // (message cadence is one per ~100 us from ~4.8 ms).
  loop.spawn(migrate_at(bed.get(), 5_ms, 1, 2, &t));
  loop.run();  // an auditor violation throws out of run()

  EXPECT_TRUE(t.client_done);
  EXPECT_TRUE(t.server_done);
  EXPECT_EQ(t.migrate, rnic::Status::kOk);
  EXPECT_TRUE(t.report.ok);
  EXPECT_EQ(bed->instance_host(1), 2u);

  // Zero connection resets: every CQE on both sides is a success — in
  // particular no kTransportRetryExc (the Table 2 reset signature) and no
  // kWrFlushErr (a QP that fell to ERROR).
  ASSERT_EQ(t.client_cqes.size(), kMsgs);
  ASSERT_EQ(t.server_cqes.size(), kMsgs);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(t.client_cqes[i], rnic::WcStatus::kSuccess) << "send " << i;
    EXPECT_EQ(t.server_cqes[i], rnic::WcStatus::kSuccess) << "recv " << i;
  }
  // Exactly-once, in-order delivery across the move.
  ASSERT_EQ(t.server_rx.size(), kMsgs);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(t.server_rx[i], payload_for(1, i, t.server_rx[i].size()))
        << "message " << i;
  }

  // The moved objects live on the destination device under their original
  // IDs, and the connection's QP is back at RTS.
  EXPECT_GE(t.report.qps_moved, 1u);
  EXPECT_GE(t.report.cqs_moved, 2u);
  EXPECT_GE(t.report.mrs_moved, 1u);
  EXPECT_GE(t.report.conntrack_rows_moved, 1u);
  EXPECT_GE(t.report.peer_qps_paused, 1u);
  EXPECT_GT(t.report.guest_bytes_copied, 0u);
  masq::Backend::Session& s = masq_ctx(*bed, 1).session();
  EXPECT_EQ(&s.backend(), &bed->masq_backend(2));
  for (rnic::Qpn q : s.owned_qps()) {
    EXPECT_TRUE(bed->device(2).qp_exists(q));
    EXPECT_EQ(bed->device(2).qp_state(q), rnic::QpState::kRts);
  }
  // The tenant identity is unchanged: vBond re-registered the same vGID
  // against the new host's physical GID.
  EXPECT_EQ(s.vbond().vgid(), net::Gid::from_ipv4(bed->instance_vip(1)));
  EXPECT_EQ(*bed->controller().lookup(bed->instance_vni(1), s.vbond().vgid()),
            bed->device(2).gid(rnic::kPf));
}

TEST(MigrationTest, ReportIsDeterministicAndRoundTripWorks) {
  // An idle established connection: the report's pause time is a pure
  // function of the moved state (pause_base + per_qp + per_page), and a
  // second migration brings the VM straight back.
  sim::EventLoop loop;
  auto bed = make_bed(loop, {});
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      struct Srv {
        static sim::Task<void> run(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7410);
          // One recv for the post-roundtrip probe send.
          rnic::RecvWr wr;
          wr.sge = {ep.buf, 1024, ep.mr.lkey};
          EXPECT_EQ(bed->ctx(1).post_recv(ep.qp, wr), rnic::Status::kOk);
        }
      };
      bed->loop().spawn(Srv::run(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0));
      const auto cst = co_await apps::connect_client(bed->ctx(0), ep,
                                                     bed->instance_vip(1),
                                                     7410);
      EXPECT_EQ(cst, rnic::Status::kOk);
      if (cst != rnic::Status::kOk) co_return;

      masq::MigrationCosts costs;
      EXPECT_EQ(co_await bed->migrate_vm(1, 2, costs), rnic::Status::kOk);
      const masq::MigrationReport r1 = bed->last_migration_report();
      EXPECT_TRUE(r1.ok);
      const std::uint64_t pages =
          (r1.guest_bytes_copied + mem::kPageSize - 1) / mem::kPageSize;
      EXPECT_EQ(r1.pause_time,
                costs.pause_base +
                    costs.per_qp * static_cast<sim::Time>(r1.qps_moved) +
                    costs.per_page * static_cast<sim::Time>(pages));
      // An idle connection can drain instantly, so total == pause is legal.
      EXPECT_GE(r1.total_time, r1.pause_time);
      EXPECT_GE(r1.total_time, r1.drain_time + r1.pause_time);

      // Round trip: the same machinery moves it home again, and the
      // connection still carries traffic afterwards.
      EXPECT_EQ(co_await bed->migrate_vm(1, 1), rnic::Status::kOk);
      EXPECT_TRUE(bed->last_migration_report().ok);
      EXPECT_EQ(bed->instance_host(1), 1u);
      apps::put_string(bed->ctx(0), ep, 0, "post-roundtrip");
      EXPECT_EQ(co_await apps::send_and_wait(bed->ctx(0), ep, 0, 14),
                rnic::WcStatus::kSuccess);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

// -------------------------------------------------- chaos: mid-batch move

TEST(MigrationTest, MidBatchControlVerbsParkAndComplete) {
  // Control-plane chaos: the migrating VM streams pipelined verb batches
  // while it moves. Batches in the virtqueue when the gate closes drain
  // first (the migration waits for them); batches issued during the move
  // park at the gate and execute against the destination session. Every
  // commit must succeed and the created CQs must land on the destination.
  sim::EventLoop loop;
  BedOpts o;
  o.check = true;
  auto bed = make_bed(loop, o);

  struct Churn {
    static sim::Task<void> go(fabric::Testbed* bed, int rounds,
                              std::vector<rnic::Status>* sts,
                              std::vector<rnic::Cqn>* cqs) {
      for (int r = 0; r < rounds; ++r) {
        auto batch = bed->ctx(0).make_batch();
        const int a = batch->create_cq(64);
        const int b = batch->create_cq(64);
        sts->push_back(co_await batch->commit());
        cqs->push_back(static_cast<rnic::Cqn>(batch->value(a)));
        cqs->push_back(static_cast<rnic::Cqn>(batch->value(b)));
        co_await sim::delay(bed->loop(), 50_us);
      }
    }
  };
  struct Move {
    static sim::Task<void> go(fabric::Testbed* bed, rnic::Status* st) {
      co_await sim::delay(bed->loop(), 120_us);
      *st = co_await bed->migrate_vm(0, 2);
    }
  };
  std::vector<rnic::Status> sts;
  std::vector<rnic::Cqn> cqs;
  rnic::Status mst = rnic::Status::kUnavailable;
  loop.spawn(Churn::go(bed.get(), 12, &sts, &cqs));
  loop.spawn(Move::go(bed.get(), &mst));
  loop.run();

  EXPECT_EQ(mst, rnic::Status::kOk);
  EXPECT_TRUE(bed->last_migration_report().ok);
  EXPECT_EQ(bed->instance_host(0), 2u);
  ASSERT_EQ(sts.size(), 12u);
  for (std::size_t i = 0; i < sts.size(); ++i) {
    EXPECT_EQ(sts[i], rnic::Status::kOk) << "batch " << i;
  }
  // Every CQ — created before, during or after the move — is owned by the
  // destination session and exists on the destination device.
  masq::Backend::Session& s = masq_ctx(*bed, 0).session();
  EXPECT_EQ(&s.backend(), &bed->masq_backend(2));
  for (rnic::Cqn c : cqs) {
    EXPECT_NE(c, 0u);
    EXPECT_TRUE(s.owned_cqs().contains(c)) << "cq " << c;
  }
}

// ------------------------------------------- chaos: mid-controller outage

TEST(MigrationTest, MidControllerOutageMigrationKeepsStreamAlive) {
  // The controller goes dark for 7 ms and the migration lands inside the
  // window. Established connections never consult the controller — the
  // Migrator rewrites peer QPCs directly — so the stream must cross the
  // move reset-free; the re-registration broadcast is buffered and
  // replayed when the outage lifts (the cache auditor checks convergence).
  sim::EventLoop loop;
  BedOpts o;
  o.check = true;
  o.seed = 7;
  o.faults.sdn_outages.push_back({5_ms, 12_ms});
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->faults(), nullptr);

  constexpr std::size_t kMsgs = 10;
  Transcript t;
  loop.spawn(stream_server(bed.get(), kMsgs, 7420, &t));
  loop.spawn(stream_client(bed.get(), 7, kMsgs, 7420, 600_us, &t));
  loop.spawn(migrate_at(bed.get(), 6_ms, 1, 2, &t));  // inside the outage
  loop.run();

  EXPECT_TRUE(t.client_done);
  EXPECT_TRUE(t.server_done);
  EXPECT_EQ(t.migrate, rnic::Status::kOk);
  EXPECT_TRUE(t.report.ok);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(t.client_cqes[i], rnic::WcStatus::kSuccess) << "send " << i;
    EXPECT_EQ(t.server_rx[i], payload_for(7, i, t.server_rx[i].size()))
        << "message " << i;
  }
  // After the outage lifted and broadcasts replayed, controller truth
  // names the destination host for the migrant's unchanged vGID.
  EXPECT_EQ(*bed->controller().lookup(
                bed->instance_vni(1),
                net::Gid::from_ipv4(bed->instance_vip(1))),
            bed->device(2).gid(rnic::kPf));
  bed->checks()->audit("quiesce");
}

// --------------------------------------------- chaos: mid-warm-refill move

TEST(MigrationTest, MidWarmRefillMigrationDegradesCleanly) {
  // The warm pool's background refill ladder is in flight on the migrating
  // VM when the gate closes: the batch drains, the pool's staged QPs move
  // with the session, and a post-move warm connect still succeeds.
  sim::EventLoop loop;
  loop.enable_trace();
  BedOpts o;
  o.warm = true;
  o.check = true;
  auto bed = make_bed(loop, o);

  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      // Kick the pool, then migrate while staging/refill is still running
      // (staging + first refills take ~1 ms of Table 1 verb costs; the
      // migration gate closes at ~200 us, mid-ladder).
      co_await sim::delay(bed->loop(), 200_us);
      EXPECT_EQ(co_await bed->migrate_vm(0, 2), rnic::Status::kOk);
      EXPECT_TRUE(bed->last_migration_report().ok);

      // The pool survives the move and comes up for real on the new host.
      co_await sim::delay(bed->loop(), 10_ms);
      masq::WarmPool* pool = masq_ctx(*bed, 0).warm_pool();
      EXPECT_NE(pool, nullptr);
      if (pool == nullptr) co_return;
      EXPECT_TRUE(pool->staged());

      apps::WarmConn conn;
      const auto st = co_await apps::warm_connect_client(
          bed->ctx(0), conn, bed->instance_vip(1), 7430);
      EXPECT_EQ(st, rnic::Status::kOk);
      co_await apps::warm_disconnect(bed->ctx(0), conn);
      *finished = true;
    }
  };
  struct Srv {
    static sim::Task<void> go(fabric::Testbed* bed) {
      apps::WarmConn conn;
      const auto st = co_await apps::warm_connect_server(
          bed->ctx(1), conn, bed->instance_vip(0), 7430);
      EXPECT_EQ(st, rnic::Status::kOk);
      co_await apps::warm_disconnect(bed->ctx(1), conn);
    }
  };
  bool finished = false;
  loop.spawn(Srv::go(bed.get()));
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
  // Stream pin: the move's re-registration push reaches each host cache
  // and the frontends' warm-pool purges in one broadcast.
  EXPECT_EQ(loop.events_executed(), 206u);
  EXPECT_EQ(loop.trace_hash(), 0xc856bcc2f5e7540cull);
}

// --------------------------------- warm pool: stale parked pairs purged

TEST(MigrationTest, WarmPoolPurgesParkedPairWhenPeerMigrates) {
  // Regression for the satellite bugfix: a parked RTS pair is keyed by its
  // peer's vGID, and the peer's migration makes the parked underlay route
  // stale. The re-registration push (and any invalidation broadcast) must
  // purge the parked entry, so the next connect downgrades to a fresh rung
  // instead of reusing a pair wired to the old host.
  sim::EventLoop loop;
  loop.enable_trace();
  BedOpts o;
  o.warm = true;
  auto bed = make_bed(loop, o);

  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      co_await sim::delay(bed->loop(), 10_ms);  // pool staging + refill
      masq::WarmPool* pool = masq_ctx(*bed, 0).warm_pool();
      EXPECT_NE(pool, nullptr);
      if (pool == nullptr) co_return;

      // Park a pair toward the peer.
      apps::WarmConn c1;
      EXPECT_EQ(co_await apps::warm_connect_client(bed->ctx(0), c1,
                                                   bed->instance_vip(1), 7440),
                rnic::Status::kOk);
      co_await apps::warm_disconnect(bed->ctx(0), c1);
      EXPECT_EQ(pool->parked_size(), 1u);
      const std::uint64_t purged0 = pool->purged();

      // Peer migrates: the vBond re-push for its unchanged vGID reaches
      // the survivor's frontend subscription, which purges the parked
      // entry synchronously inside the move.
      EXPECT_EQ(co_await bed->migrate_vm(1, 2), rnic::Status::kOk);
      EXPECT_EQ(pool->parked_size(), 0u);
      EXPECT_GT(pool->purged(), purged0);

      // No stale reuse: the next acquire toward the migrated peer cannot
      // answer kReused (the parked pair is gone) — it downgrades to a
      // staged or cold rung, and a full warm connect still succeeds
      // against the peer on its new host.
      const auto ep = co_await bed->ctx(0).acquire_warm(
          net::Gid::from_ipv4(bed->instance_vip(1)));
      EXPECT_NE(ep.kind, verbs::WarmKind::kReused);
      co_await bed->ctx(0).discard_warm(ep);

      apps::WarmConn c2;
      EXPECT_EQ(co_await apps::warm_connect_client(bed->ctx(0), c2,
                                                   bed->instance_vip(1), 7441),
                rnic::Status::kOk);
      EXPECT_NE(c2.kind, verbs::WarmKind::kReused);
      co_await apps::warm_disconnect(bed->ctx(0), c2);
      *finished = true;
    }
  };
  struct Srv {
    static sim::Task<void> go(fabric::Testbed* bed) {
      for (std::uint16_t port : {std::uint16_t{7440}, std::uint16_t{7441}}) {
        apps::WarmConn conn;
        const auto st = co_await apps::warm_connect_server(
            bed->ctx(1), conn, bed->instance_vip(0), port);
        EXPECT_EQ(st, rnic::Status::kOk) << "port " << port;
        co_await apps::warm_disconnect(bed->ctx(1), conn);
      }
    }
  };
  bool finished = false;
  loop.spawn(Srv::go(bed.get()));
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
  // Stream pin: the peer's re-registration push reaches each host cache
  // and then the survivor's warm-pool purge, in one broadcast.
  EXPECT_EQ(loop.events_executed(), 355u);
  EXPECT_EQ(loop.trace_hash(), 0xca06d1108a383fbaull);
}

// ------------------------------------------------ drain-timeout rollback

TEST(MigrationTest, DrainTimeoutRollsBackAndTrafficCompletes) {
  // A saturated QP cannot drain inside an absurdly small timeout: the
  // Migrator must resume every paused QP, reopen the gate, and leave the
  // VM on the source host — and the stalled writes then finish normally.
  sim::EventLoop loop;
  auto bed = make_bed(loop, {});

  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      struct Srv {
        static sim::Task<void> run(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1),
                                                  {.buf_len = 4 << 20});
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7450);
        }
      };
      bed->loop().spawn(Srv::run(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0),
                                              {.buf_len = 4 << 20});
      const auto cst = co_await apps::connect_client(bed->ctx(0), ep,
                                                     bed->instance_vip(1),
                                                     7450);
      EXPECT_EQ(cst, rnic::Status::kOk);
      if (cst != rnic::Status::kOk) co_return;

      // Saturate: 48 writes of 32 KiB keep the send queue deep.
      constexpr int kWrites = 48;
      for (int i = 0; i < kWrites; ++i) {
        rnic::SendWr wr;
        wr.wr_id = static_cast<std::uint64_t>(i);
        wr.opcode = rnic::WrOpcode::kRdmaWrite;
        wr.sge = {ep.buf, 32 * 1024, ep.mr.lkey};
        wr.remote_addr = ep.peer.raddr;
        wr.rkey = ep.peer.rkey;
        EXPECT_EQ(bed->ctx(0).post_send(ep.qp, wr), rnic::Status::kOk);
      }
      // Let the engine launch the burst: a quiesce check only waits for
      // in-flight WQEs (a paused queue may stay deep), so the timeout can
      // only trip while transfers are actually on the wire.
      co_await sim::delay(bed->loop(), 20_us);

      masq::MigrationCosts costs;
      costs.drain_timeout = 20_us;  // the in-flight burst outlives this
      EXPECT_EQ(co_await bed->migrate_vm(0, 2, costs),
                rnic::Status::kDeadlineExceeded);
      EXPECT_FALSE(bed->last_migration_report().ok);
      EXPECT_EQ(bed->instance_host(0), 0u);  // still home

      // Rollback: the QP is back at RTS on the source device and every
      // stalled write completes successfully.
      EXPECT_EQ(bed->device(0).qp_state(ep.qp), rnic::QpState::kRts);
      for (int i = 0; i < kWrites; ++i) {
        const rnic::Completion c =
            co_await bed->ctx(0).wait_completion(ep.scq);
        EXPECT_EQ(c.status, rnic::WcStatus::kSuccess) << "write " << i;
      }

      // And a migration with a sane timeout still works afterwards.
      EXPECT_EQ(co_await bed->migrate_vm(0, 2), rnic::Status::kOk);
      EXPECT_EQ(bed->instance_host(0), 2u);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

// --------------------------------------- corruption hooks fire the auditor

// Shared harness: saturate the client QP so its send queue is deep when
// the pause sweep lands, migrate the client with a corruption hook armed,
// and return the recorded "migration-wqe" violations.
std::vector<check::Violation> run_corrupted_migration(
    fabric::Testbed::MigrationCorruption corrupt) {
  sim::EventLoop loop;
  BedOpts o;
  o.check = true;
  auto bed = make_bed(loop, o);
  bed->checks()->set_policy(check::ViolationPolicy::kRecord);

  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed,
                              fabric::Testbed::MigrationCorruption corrupt,
                              bool* finished) {
      struct Srv {
        static sim::Task<void> run(fabric::Testbed* bed) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1),
                                                  {.buf_len = 4 << 20});
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 7460);
        }
      };
      bed->loop().spawn(Srv::run(bed));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0),
                                              {.buf_len = 4 << 20});
      const auto cst = co_await apps::connect_client(bed->ctx(0), ep,
                                                     bed->instance_vip(1),
                                                     7460);
      EXPECT_EQ(cst, rnic::Status::kOk);
      if (cst != rnic::Status::kOk) co_return;
      // Deep send queue: the pause sweep freezes the engine mid-queue, so
      // the snapshot carries WQEs for the corruption hook to mutate.
      for (int i = 0; i < 48; ++i) {
        rnic::SendWr wr;
        wr.wr_id = static_cast<std::uint64_t>(i);
        wr.opcode = rnic::WrOpcode::kRdmaWrite;
        wr.sge = {ep.buf, 32 * 1024, ep.mr.lkey};
        wr.remote_addr = ep.peer.raddr;
        wr.rkey = ep.peer.rkey;
        EXPECT_EQ(bed->ctx(0).post_send(ep.qp, wr), rnic::Status::kOk);
      }
      (void)co_await bed->migrate_vm(0, 2, {}, corrupt);
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), corrupt, &finished));
  loop.run();
  EXPECT_TRUE(finished);

  std::vector<check::Violation> out;
  for (const check::Violation& v : bed->checks()->violations()) {
    if (v.invariant == "migration-wqe") out.push_back(v);
  }
  return out;
}

TEST(MigrationTest, DroppedWqeFiresNoWqeLostAuditor) {
  const auto violations =
      run_corrupted_migration(fabric::Testbed::MigrationCorruption::kDropWqe);
  ASSERT_GE(violations.size(), 1u);
  const check::Violation& v = violations.front();
  EXPECT_EQ(v.point, "restore");
  // The diagnostic is precise: it names the QP, both digests, the depth
  // change, and the verdict.
  EXPECT_NE(v.diagnostic.find("qp "), std::string::npos) << v.diagnostic;
  EXPECT_NE(v.diagnostic.find("wqe digest mismatch"), std::string::npos)
      << v.diagnostic;
  EXPECT_NE(v.diagnostic.find("before="), std::string::npos) << v.diagnostic;
  EXPECT_NE(v.diagnostic.find("send depth"), std::string::npos)
      << v.diagnostic;
  EXPECT_NE(v.diagnostic.find("lost or duplicated"), std::string::npos)
      << v.diagnostic;
}

TEST(MigrationTest, DuplicatedWqeFiresNoWqeLostAuditor) {
  const auto violations = run_corrupted_migration(
      fabric::Testbed::MigrationCorruption::kDuplicateWqe);
  ASSERT_GE(violations.size(), 1u);
  EXPECT_NE(violations.front().diagnostic.find("wqe digest mismatch"),
            std::string::npos)
      << violations.front().diagnostic;
}

TEST(MigrationTest, CleanMigrationKeepsAuditorSilent) {
  // Control for the corruption pair: the identical saturated workload with
  // no hook records no "migration-wqe" violation at all.
  const auto violations =
      run_corrupted_migration(fabric::Testbed::MigrationCorruption::kNone);
  EXPECT_TRUE(violations.empty())
      << violations.front().diagnostic;
}

// -------------------------------------------------- golden guard: unused

TEST(MigrationTest, SameHostMigrationIsANoOp) {
  // migrate_vm to the VM's current host returns immediately: no gate, no
  // pause, a zero report. (The ctest golden suite — BENCH_scale, Fig. 15,
  // Table 1 — pins that migration-unused event streams are bit-exact; this
  // guards the only new call site a non-migrating run could reach.)
  sim::EventLoop loop;
  auto bed = make_bed(loop, {});
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, bool* finished) {
      const sim::Time t0 = bed->loop().now();
      EXPECT_EQ(co_await bed->migrate_vm(0, 0), rnic::Status::kOk);
      EXPECT_EQ(bed->loop().now(), t0);  // no simulated time consumed
      EXPECT_EQ(bed->last_migration_report().qps_moved, 0u);
      EXPECT_EQ(bed->last_migration_report().pause_time, 0);
      EXPECT_FALSE(masq_ctx(*bed, 0).migration_in_progress());
      *finished = true;
    }
  };
  bool finished = false;
  loop.spawn(Run::go(bed.get(), &finished));
  loop.run();
  EXPECT_TRUE(finished);
}

TEST(MigrationTest, UnusedMigrationKeepsEventStreamBitExact) {
  // The warm-pool absent-block pattern, applied to migration: a run that
  // reaches the machinery but moves nothing (same-host no-op) must leave
  // the event stream bit-identical to a run that never calls it. With the
  // stream pinned here, the ctest golden suite (BENCH_scale trace hash,
  // Fig. 15, Table 1) pins the absolute numbers.
  auto run_hash = [](bool call_noop) {
    sim::EventLoop loop;
    loop.enable_trace();
    auto bed = make_bed(loop, {});
    Transcript t;
    loop.spawn(stream_server(bed.get(), 6, 7470, &t));
    loop.spawn(stream_client(bed.get(), 3, 6, 7470, 60_us, &t));
    struct Probe {
      static sim::Task<void> go(fabric::Testbed* bed, bool call) {
        // Both runs schedule the identical timer; only the no-op
        // migrate_vm call itself distinguishes them.
        co_await sim::delay(bed->loop(), 250_us);
        if (call) {
          EXPECT_EQ(co_await bed->migrate_vm(1, 1), rnic::Status::kOk);
        }
      }
    };
    loop.spawn(Probe::go(bed.get(), call_noop));
    loop.run();
    EXPECT_TRUE(t.server_done);
    return loop.trace_hash();
  };
  EXPECT_EQ(run_hash(false), run_hash(true));
}

// ------------------------------------ concurrent both-ends migration

TEST(MigrationTest, ConcurrentBothEndsMigrationZeroResets) {
  // Both ends of one established connection migrate at the same instant:
  // the server VM to host 2 and the client VM to host 3, gates closing in
  // the same event-loop tick, every auditor armed. This is the interleaving
  // where migration A pauses the peer's QP, migration B then moves that QP
  // to a new device, and A's resume runs against a stale device pointer —
  // the Env::device_by_qpn re-resolution must find the QP wherever it lives
  // now, or one end is stranded in SQD and the stream never finishes.
  sim::EventLoop loop;
  BedOpts o;
  o.num_hosts = 4;
  o.check = true;
  auto bed = make_bed(loop, o);
  ASSERT_NE(bed->checks(), nullptr);

  constexpr std::size_t kMsgs = 12;
  Transcript t;
  Transcript server_move, client_move;
  loop.spawn(stream_server(bed.get(), kMsgs, 7480, &t));
  loop.spawn(stream_client(bed.get(), 9, kMsgs, 7480, 100_us, &t));
  loop.spawn(migrate_at(bed.get(), 5_ms, 1, 2, &server_move));
  loop.spawn(migrate_at(bed.get(), 5_ms, 0, 3, &client_move));
  loop.run();  // an auditor violation throws out of run()

  EXPECT_EQ(server_move.migrate, rnic::Status::kOk);
  EXPECT_EQ(client_move.migrate, rnic::Status::kOk);
  EXPECT_TRUE(server_move.report.ok);
  EXPECT_TRUE(client_move.report.ok);
  EXPECT_EQ(bed->instance_host(1), 2u);
  EXPECT_EQ(bed->instance_host(0), 3u);

  // The stream crossed BOTH moves with zero resets and exactly-once,
  // in-order delivery.
  EXPECT_TRUE(t.client_done);
  EXPECT_TRUE(t.server_done);
  ASSERT_EQ(t.client_cqes.size(), kMsgs);
  ASSERT_EQ(t.server_rx.size(), kMsgs);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(t.client_cqes[i], rnic::WcStatus::kSuccess) << "send " << i;
    EXPECT_EQ(t.server_cqes[i], rnic::WcStatus::kSuccess) << "recv " << i;
    EXPECT_EQ(t.server_rx[i], payload_for(9, i, t.server_rx[i].size()))
        << "message " << i;
  }

  // No QP on either destination device is stranded in SQD: every owned QP
  // of both sessions is back at RTS where its VM now lives.
  for (std::size_t inst : {std::size_t{0}, std::size_t{1}}) {
    masq::Backend::Session& s = masq_ctx(*bed, inst).session();
    const std::size_t host = bed->instance_host(inst);
    EXPECT_EQ(&s.backend(), &bed->masq_backend(host));
    for (rnic::Qpn q : s.owned_qps()) {
      EXPECT_TRUE(bed->device(host).qp_exists(q))
          << "instance " << inst << " qp " << q;
      EXPECT_EQ(bed->device(host).qp_state(q), rnic::QpState::kRts)
          << "instance " << inst << " qp " << q;
    }
  }
}

TEST(MigrationTest, ConcurrentBothEndsDigestMatchesBaseline) {
  // Digest equality under the race: for several seeds the both-ends-moved
  // run must deliver the byte-identical payload sequence of a run that
  // never migrates, with every CQE a success.
  for (std::uint64_t seed : {2ull, 5ull, 11ull}) {
    auto run = [&](bool migrate, Transcript* out) {
      sim::EventLoop loop;
      BedOpts o;
      o.num_hosts = 4;
      o.check = true;
      o.seed = seed;
      auto bed = make_bed(loop, o);
      Rng rng{seed};
      const std::size_t msgs = 6 + rng.next(6);
      const sim::Time think = sim::microseconds(60 + rng.next(120));
      const sim::Time when = sim::microseconds(200 + rng.next(400));
      const std::uint16_t port = static_cast<std::uint16_t>(7600 + seed);
      Transcript server_move, client_move;
      loop.spawn(stream_server(bed.get(), msgs, port, out));
      loop.spawn(stream_client(bed.get(), seed, msgs, port, think, out));
      if (migrate) {
        loop.spawn(migrate_at(bed.get(), when, 1, 2, &server_move));
        loop.spawn(migrate_at(bed.get(), when, 0, 3, &client_move));
      }
      loop.run();
      EXPECT_TRUE(out->client_done) << "seed " << seed;
      EXPECT_TRUE(out->server_done) << "seed " << seed;
      if (migrate) {
        EXPECT_EQ(server_move.migrate, rnic::Status::kOk) << "seed " << seed;
        EXPECT_EQ(client_move.migrate, rnic::Status::kOk) << "seed " << seed;
      }
    };
    Transcript base, moved;
    run(false, &base);
    run(true, &moved);
    ASSERT_EQ(moved.server_rx.size(), base.server_rx.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < base.server_rx.size(); ++i) {
      EXPECT_EQ(moved.server_rx[i], base.server_rx[i])
          << "seed " << seed << " message " << i;
    }
    for (const rnic::WcStatus st : moved.client_cqes) {
      EXPECT_EQ(st, rnic::WcStatus::kSuccess) << "seed " << seed;
    }
    for (const rnic::WcStatus st : moved.server_cqes) {
      EXPECT_EQ(st, rnic::WcStatus::kSuccess) << "seed " << seed;
    }
  }
}

// ------------------------------------------------ seed-sweep equivalence

void run_seeded_workload(std::uint64_t seed, bool migrate, Transcript* out) {
  sim::EventLoop loop;
  loop.enable_trace();
  BedOpts o;
  o.seed = seed;
  auto bed = make_bed(loop, o);
  Rng rng{seed};
  const std::size_t msgs = 6 + rng.next(6);
  const sim::Time think = sim::microseconds(40 + rng.next(120));
  const sim::Time when = sim::microseconds(150 + rng.next(500));
  const std::uint16_t port = static_cast<std::uint16_t>(7500 + seed % 100);
  loop.spawn(stream_server(bed.get(), msgs, port, out));
  loop.spawn(stream_client(bed.get(), seed, msgs, port, think, out));
  if (migrate) loop.spawn(migrate_at(bed.get(), when, 1, 2, out));
  loop.run();
  out->events = loop.events_executed();
  out->trace_hash = loop.trace_hash();
  EXPECT_TRUE(out->client_done) << "seed " << seed;
  EXPECT_TRUE(out->server_done) << "seed " << seed;
  if (migrate) {
    EXPECT_EQ(out->migrate, rnic::Status::kOk) << "seed " << seed;
    EXPECT_TRUE(out->report.ok) << "seed " << seed;
    EXPECT_EQ(bed->instance_host(1), 2u) << "seed " << seed;
  }
}

TEST(MigrationTest, SeedSweepMigratedMatchesBaseline) {
  // For every seed, the same seeded workload runs twice — once untouched,
  // once with the server VM transparently migrated at a seed-chosen moment
  // — and the application-visible transcripts must be identical: same
  // payloads, same order, all successes. MASQ_CHAOS_SEEDS sizes the sweep
  // (CI runs 100); locally it covers 12 seeds.
  std::size_t count = 12;
  if (const char* env = std::getenv("MASQ_CHAOS_SEEDS")) {
    // Accept either a count ("100") or a pinned list ("17,42,1337").
    const std::string s = env;
    if (s.find(',') == std::string::npos) {
      count = std::strtoull(s.c_str(), nullptr, 10);
    }
  }
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    Transcript base;
    run_seeded_workload(seed, /*migrate=*/false, &base);
    Transcript moved;
    run_seeded_workload(seed, /*migrate=*/true, &moved);

    ASSERT_EQ(moved.server_rx.size(), base.server_rx.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < base.server_rx.size(); ++i) {
      EXPECT_EQ(moved.server_rx[i], base.server_rx[i])
          << "seed " << seed << " message " << i;
    }
    for (std::size_t i = 0; i < moved.client_cqes.size(); ++i) {
      EXPECT_EQ(moved.client_cqes[i], rnic::WcStatus::kSuccess)
          << "seed " << seed << " send " << i;
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;  // first divergent seed names itself; stop the sweep
    }
  }
}

TEST(MigrationTest, SeedSweepStreamsMatchRecording) {
  // Seeds 1-12 of the sweep above, baseline and migrated: each run's event
  // count and trace hash, folded into one FNV-1a value. The width is fixed
  // here, whatever MASQ_CHAOS_SEEDS says. Recorded before the command
  // channel took one shape; the migration gate parks and releases control
  // verbs, so a change to their submission shows here.
  std::uint64_t h = pin::kFnvBasis;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool migrate : {false, true}) {
      Transcript t;
      run_seeded_workload(seed, migrate, &t);
      h = pin::fnv1a(h, t.events);
      h = pin::fnv1a(h, t.trace_hash);
    }
  }
  EXPECT_EQ(h, 0x85dd628e3d2a696eull);
}

}  // namespace
