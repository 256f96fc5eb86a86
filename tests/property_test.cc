// Property-based tests: exhaustive QP-FSM matrix, randomized
// reference-model checks for rule chains / allocators / sparse memory,
// fluid-model conservation under random event sequences, FIFO ordering
// properties, and whole-stack determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/kvs.h"
#include "fabric/testbed.h"
#include "mem/physical_memory.h"
#include "mem/region_allocator.h"
#include "net/fluid.h"
#include "overlay/security.h"
#include "pin_hash.h"
#include "rnic/qp_state.h"
#include "sim/rng.h"
#include "virtio/virtqueue.h"

using namespace sim::literals;

namespace {

// Sweep width for the seed-indexed suites below (ChaosSweep,
// ShardEquivalence). MASQ_CHAOS_SEEDS=<count> shrinks or grows the sweep
// (see tools/chaos.knobs); default 100 seeds. chaos_test's pinned-seed
// runner reads the same variable as a comma list — strtoul stops at the
// first comma, so a list like "17,42,1337" still yields a sane width here.
int chaos_sweep_seed_count() {
  if (const char* env = std::getenv("MASQ_CHAOS_SEEDS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0 && n <= 10'000) return static_cast<int>(n);
  }
  return 100;
}

// ------------------------------------------------- QP FSM, full 7x7 matrix

using rnic::QpState;

struct FsmCase {
  QpState from;
  QpState to;
};

class QpFsmMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(QpFsmMatrixTest, ModifyMatchesFig5) {
  const QpState states[] = {QpState::kReset, QpState::kInit, QpState::kRtr,
                            QpState::kRts,   QpState::kSqd,  QpState::kSqe,
                            QpState::kError};
  const int idx = GetParam();
  const QpState from = states[idx / 7];
  const QpState to = states[idx % 7];
  // Fig. 5's driver-initiated edges, spelled out.
  const std::set<std::pair<QpState, QpState>> allowed = {
      {QpState::kReset, QpState::kInit}, {QpState::kInit, QpState::kInit},
      {QpState::kInit, QpState::kRtr},   {QpState::kRtr, QpState::kRts},
      {QpState::kRts, QpState::kSqd},    {QpState::kSqd, QpState::kRts},
      {QpState::kSqe, QpState::kRts},
  };
  bool expect = allowed.count({from, to}) > 0;
  if (to == QpState::kError || to == QpState::kReset) expect = true;
  EXPECT_EQ(rnic::modify_allowed(from, to), expect)
      << rnic::to_string(from) << " -> " << rnic::to_string(to);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, QpFsmMatrixTest, ::testing::Range(0, 49));

TEST(QpFsmTest, TableTwoConsistency) {
  // In every state, Table 2's behaviour flags must be internally
  // consistent: a transmitting state accepts packets, ERROR does neither.
  for (QpState s : {QpState::kReset, QpState::kInit, QpState::kRtr,
                    QpState::kRts, QpState::kSqd, QpState::kSqe,
                    QpState::kError}) {
    if (rnic::can_transmit(s)) {
      EXPECT_TRUE(rnic::can_accept_packets(s));
    }
    if (s == QpState::kError) {
      EXPECT_FALSE(rnic::can_transmit(s));
      EXPECT_FALSE(rnic::can_accept_packets(s));
      EXPECT_TRUE(rnic::can_post_send(s));  // Table 2: posting allowed
      EXPECT_TRUE(rnic::can_post_recv(s));
    }
  }
}

// ------------------------------------ rule chain vs linear reference model

class RuleChainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RuleChainPropertyTest, FirstMatchEqualsReferenceScan) {
  sim::Rng rng(GetParam() * 77 + 5);
  overlay::RuleChain chain;
  struct Ref {
    int priority;
    std::uint64_t seq;
    overlay::Rule rule;
  };
  std::vector<Ref> reference;
  std::uint64_t seq = 0;
  const int n_rules = static_cast<int>(1 + rng.next_below(30));
  for (int i = 0; i < n_rules; ++i) {
    overlay::Rule r;
    r.priority = static_cast<int>(rng.next_below(6));
    r.action = rng.next_bool(0.5) ? overlay::RuleAction::kAllow
                                  : overlay::RuleAction::kDeny;
    r.proto = rng.next_bool(0.3) ? overlay::Proto::kRdma
                                 : overlay::Proto::kAny;
    r.src = net::Ipv4Cidr{net::Ipv4Addr{static_cast<std::uint32_t>(
                              0xC0A80000u + rng.next_below(4) * 256)},
                          static_cast<std::uint8_t>(22 + rng.next_below(10))};
    r.dst = net::Ipv4Cidr::any();
    chain.add_rule(r);
    reference.push_back({r.priority, seq++, r});
  }
  // Reference model: stable sort by priority desc, insertion order asc.
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) {
                     return a.priority > b.priority;
                   });
  for (int t = 0; t < 200; ++t) {
    overlay::FlowTuple tuple{
        net::Ipv4Addr{static_cast<std::uint32_t>(0xC0A80000u +
                                                 rng.next_below(1024))},
        net::Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
        rng.next_bool(0.5) ? overlay::Proto::kRdma : overlay::Proto::kTcp};
    overlay::RuleAction expect = overlay::RuleAction::kDeny;
    for (const Ref& ref : reference) {
      if (ref.rule.matches(tuple)) {
        expect = ref.rule.action;
        break;
      }
    }
    EXPECT_EQ(chain.evaluate(tuple), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleChainPropertyTest,
                         ::testing::Range(1, 13));

// ------------------------------------------ region allocator vs reference

class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, NoOverlapAndFullRecovery) {
  sim::Rng rng(GetParam() * 131 + 7);
  const mem::Addr base = 0x100000;
  const mem::Addr size = 256 * mem::kPageSize;
  mem::RegionAllocator ra(base, size);
  std::map<mem::Addr, mem::Addr> live;  // addr -> len
  for (int step = 0; step < 400; ++step) {
    if (rng.next_bool(0.6) || live.empty()) {
      const mem::Addr len =
          (1 + rng.next_below(8)) * mem::kPageSize;
      try {
        const mem::Addr a = ra.alloc(len);
        // In range and page aligned.
        ASSERT_GE(a, base);
        ASSERT_LE(a + len, base + size);
        ASSERT_EQ(a % mem::kPageSize, 0u);
        // No overlap with any live allocation.
        for (const auto& [la, ll] : live) {
          ASSERT_TRUE(a + len <= la || la + ll <= a)
              << "overlap at step " << step;
        }
        live[a] = len;
      } catch (const std::bad_alloc&) {
        // Exhaustion is legal; accounting must agree something is live.
        ASSERT_FALSE(live.empty());
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng.next_below(live.size()));
      ra.free(it->first, it->second);
      live.erase(it);
    }
  }
  for (const auto& [a, l] : live) ra.free(a, l);
  EXPECT_EQ(ra.bytes_allocated(), 0u);
  // Full region allocatable again -> coalescing worked.
  EXPECT_EQ(ra.alloc(size), base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------ sparse bytes vs reference

class SparseBytesPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseBytesPropertyTest, MatchesDenseReference) {
  sim::Rng rng(GetParam() * 997);
  const std::size_t size = 1 << 20;
  mem::SparseBytes sparse(size);
  std::vector<std::uint8_t> dense(size, 0);
  for (int step = 0; step < 200; ++step) {
    const std::size_t off = rng.next_below(size - 1);
    const std::size_t len = 1 + rng.next_below(
        std::min<std::uint64_t>(size - off, 200 * 1024));
    if (rng.next_bool(0.5)) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
      sparse.write(off, data);
      std::copy(data.begin(), data.end(), dense.begin() + off);
    } else {
      std::vector<std::uint8_t> got(len);
      sparse.read(off, got);
      ASSERT_EQ(0, std::memcmp(got.data(), dense.data() + off, len))
          << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseBytesPropertyTest,
                         ::testing::Range(1, 7));

// --------------------------------------------- fluid model conservation

class FluidConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidConservationTest, FiniteFlowsDeliverExactlyTheirBytes) {
  sim::Rng rng(GetParam() * 31 + 3);
  sim::EventLoop loop;
  net::FluidNet fnet(loop);
  std::vector<net::LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(
        fnet.add_link(5.0 + rng.next_below(36), 100_ns));
  }
  int completions = 0;
  int flows = 0;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 24; ++i) {
    std::vector<net::LinkId> path{links[rng.next_below(links.size())]};
    if (rng.next_bool(0.4)) {
      auto extra = links[rng.next_below(links.size())];
      if (extra != path[0]) path.push_back(extra);
    }
    const std::uint64_t bytes = 1000 + rng.next_below(2'000'000);
    const double cap = rng.next_bool(0.3)
                           ? 1.0 + static_cast<double>(rng.next_below(20))
                           : net::kUncapped;
    // Stagger arrivals.
    loop.schedule_after(static_cast<sim::Time>(rng.next_below(500'000)),
                        [&fnet, path, bytes, cap, &completions] {
                          fnet.start_flow(path, bytes, cap,
                                          [&completions] { ++completions; });
                        });
    ++flows;
    total_bytes += bytes;
  }
  loop.run();
  EXPECT_EQ(completions, flows);  // every finite flow completes exactly once
  EXPECT_EQ(fnet.active_flows(), 0u);
  (void)total_bytes;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidConservationTest,
                         ::testing::Range(1, 9));

// -------------------------------------------------- virtqueue FIFO order

TEST(VirtioPropertyTest, ResponsesPreserveSubmissionOrderPerCaller) {
  sim::EventLoop loop;
  virtio::Virtqueue<int, int> vq(loop, {}, 4);
  std::vector<int> completion_order;
  vq.set_backend([&loop](int x) -> sim::Task<int> {
    co_await sim::delay(loop, 5_us);
    co_return x;
  });
  auto caller = [](virtio::Virtqueue<int, int>& q, int id,
                   std::vector<int>* order) -> sim::Task<void> {
    const int r = co_await q.call(id);
    order->push_back(r);
  };
  for (int i = 0; i < 12; ++i) loop.spawn(caller(vq, i, &completion_order));
  loop.run();
  ASSERT_EQ(completion_order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(completion_order[i], i);
}

// ------------------------------------------- chaos invariants, 100 seeds

// Randomized resilience sweep: every seed draws a different fault
// schedule (descriptor drop/dup/delay, transient command failures, cache
// expiry, a controller outage window, one injected QP error), and every
// run must uphold the same invariants:
//   * a QP in ERROR has no RConntrack entry (Table 2: it carries no
//     connection any more),
//   * degraded mode never serves a mapping staler than the bound,
//   * every verb reaches a terminal status — the workload coroutine runs
//     to completion instead of hanging on a lost descriptor.
// Each run also reports its event count and fault replay log, which the
// fold test below pins across seeds 1-100.
struct SweepStream {
  std::uint64_t events = 0;
  std::string fault_log;
};

void run_chaos_sweep(std::uint64_t seed, SweepStream* stream) {
  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.cal.host_dram_bytes = 32ull << 30;
  cfg.cal.vm_mem_bytes = 512ull << 20;
  cfg.faults.vq_drop_p = 0.04;
  cfg.faults.vq_dup_p = 0.04;
  cfg.faults.vq_delay_p = 0.10;
  cfg.faults.cmd_fail_p = 0.04;
  cfg.faults.cache_expire_p = 0.02;
  cfg.faults.sdn_outages.push_back(
      {sim::milliseconds(1 + seed % 5), sim::milliseconds(4 + seed % 7)});
  cfg.fault_seed = seed;
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  struct Run {
    static sim::Task<void> go(fabric::Testbed* bed, std::uint64_t seed,
                              std::vector<rnic::Qpn>* qps, bool* finished) {
      struct Srv {
        static sim::Task<void> srv(fabric::Testbed* bed,
                                   std::vector<rnic::Qpn>* qps) {
          auto ep = co_await apps::setup_endpoint(bed->ctx(1));
          qps->push_back(ep.qp);
          (void)co_await apps::connect_server(bed->ctx(1), ep,
                                              bed->instance_vip(0), 9400);
        }
      };
      bed->loop().spawn(Srv::srv(bed, qps));
      auto ep = co_await apps::setup_endpoint(bed->ctx(0));
      qps->push_back(ep.qp);
      const auto st = co_await apps::connect_client(
          bed->ctx(0), ep, bed->instance_vip(1), 9400);
      if (st == rnic::Status::kOk) {
        (void)co_await apps::write_and_wait(bed->ctx(0), ep, 0, 0, 128);
      }
      // Force the client QP into ERROR at a seed-derived instant —
      // sometimes mid-traffic, sometimes idle.
      const rnic::Qpn victim = ep.qp;
      bed->faults()->inject_qp_error_at(
          bed->loop().now() + sim::microseconds(seed % 300), victim,
          [bed, victim] {
            rnic::QpAttr attr;
            attr.state = rnic::QpState::kError;
            (void)bed->device(0).modify_qp(victim, attr, rnic::kAttrState);
          });
      co_await sim::delay(bed->loop(), sim::milliseconds(1));
      *finished = true;
    }
  };
  std::vector<rnic::Qpn> qps;
  bool finished = false;
  loop.spawn(Run::go(&bed, seed, &qps, &finished));
  loop.run();
  ASSERT_TRUE(finished) << "seed " << seed << " hung";
  for (std::size_t h = 0; h < bed.num_hosts(); ++h) {
    // No RConntrack entry references a dead QP.
    for (rnic::Qpn qp : qps) {
      if (bed.device(h).qp_exists(qp) &&
          bed.device(h).qp_state(qp) == rnic::QpState::kError) {
        EXPECT_FALSE(bed.masq_backend(h).conntrack().has_qp(qp))
            << "seed " << seed << " qp " << qp;
      }
    }
    // Degraded serves stayed within the staleness bound.
    const auto& cache = bed.masq_backend(h).mapping_cache();
    EXPECT_LE(cache.max_served_staleness(), cache.staleness_bound())
        << "seed " << seed << " host " << h;
  }
  stream->events = loop.events_executed();
  stream->fault_log = bed.faults()->dump_log();
}

class ChaosSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSweepTest, ErrorQpsUntrackedAndStalenessBounded) {
  SweepStream stream;
  run_chaos_sweep(static_cast<std::uint64_t>(GetParam()), &stream);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweepTest,
                         ::testing::Range(1, chaos_sweep_seed_count() + 1));

TEST(ChaosSweepFoldTest, SeedsOneToHundredMatchRecording) {
  // Every sweep seed's event count and fault log, folded into one FNV-1a
  // value. The width is fixed here (MASQ_CHAOS_SEEDS sizes only the
  // sweep above), so the pin means the same thing in every job. Recorded
  // before the command channel took one shape.
  std::uint64_t h = pin::kFnvBasis;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SweepStream stream;
    run_chaos_sweep(seed, &stream);
    h = pin::fnv1a(h, stream.events);
    h = pin::fnv1a(h, stream.fault_log);
  }
  EXPECT_EQ(h, 0xb2f7513144a7da00ull);
}

// --------------------------- sharded controller vs single-shard reference

// Equivalence sweep: the same pre-generated schedule of directory
// mutations (register / re-register / unregister) and resolve bursts is
// driven against two worlds —
//   A: 4 shards, a 1 us per-key service budget, and host caches batching
//      leader misses in 3 us miss lanes (the full DESIGN.md §12 tier), and
//   B: the flat single-shard controller with lane-less caches (the
//      pre-sharding reference).
// Sharding and batching may only change *when* things happen, never what
// they resolve to: both worlds must produce identical resolution logs
// (status + pGID per burst slot), identical push/invalidate broadcast
// sequences, and identical final cache contents.
class ShardEquivalenceTest : public ::testing::TestWithParam<int> {};

namespace shardeq {

constexpr std::size_t kKeys = 24;
constexpr std::size_t kHosts = 2;  // two hosts' worth of caches

net::Gid vgid_of(std::size_t key) {
  return net::Gid::from_ipv4(
      net::Ipv4Addr{static_cast<std::uint32_t>(0x0A640000u + key)});
}
std::uint32_t vni_of(std::size_t key) { return 100 + key % 3; }
net::Gid pgid_of(std::size_t key, std::uint32_t gen) {
  return net::Gid::from_ipv4(net::Ipv4Addr{
      static_cast<std::uint32_t>(0x0AC80000u + key + (gen << 12))});
}

struct Op {
  enum Kind : std::uint8_t { kRegister, kUnregister, kBurst } kind;
  std::size_t key = 0;        // kRegister / kUnregister
  std::uint32_t gen = 0;      // kRegister: pGID generation (IP churn)
  // kBurst: (host, key) resolve slots, all spawned at once, drained
  // before the next op.
  std::vector<std::pair<std::size_t, std::size_t>> resolves;
};

// The schedule is pure data derived from the seed — both worlds consume
// the identical vector, so any divergence is the controller's fault.
std::vector<Op> make_schedule(std::uint64_t seed) {
  sim::Rng rng(seed * 9176 + 11);
  std::vector<Op> ops;
  std::vector<std::uint32_t> gen(kKeys, 0);
  std::vector<bool> live(kKeys, false);
  // Seed the directory so the first burst has something to find.
  for (std::size_t k = 0; k < kKeys; k += 2) {
    ops.push_back({Op::kRegister, k, 0, {}});
    live[k] = true;
  }
  const int steps = 10 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < steps; ++i) {
    const double roll = rng.next_double();
    if (roll < 0.25) {
      const std::size_t k = rng.next_below(kKeys);
      ops.push_back({Op::kRegister, k, live[k] ? ++gen[k] : gen[k], {}});
      live[k] = true;
    } else if (roll < 0.40) {
      const std::size_t k = rng.next_below(kKeys);
      if (live[k]) {
        ops.push_back({Op::kUnregister, k, 0, {}});
        live[k] = false;
      }
    } else {
      Op burst{Op::kBurst, 0, 0, {}};
      const std::size_t n = 4 + rng.next_below(10);
      for (std::size_t j = 0; j < n; ++j) {
        burst.resolves.emplace_back(rng.next_below(kHosts),
                                    rng.next_below(kKeys));
      }
      ops.push_back(std::move(burst));
    }
  }
  return ops;
}

struct World {
  World(std::size_t shards, sim::Time service, sim::Time window)
      : controller(loop, sdn::ControllerConfig{sim::microseconds(100),
                                               shards, service}) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      caches.push_back(std::make_unique<sdn::MappingCache>(
          loop, controller, sdn::CacheConfig{.batch_window = window}));
    }
    push_sub = controller.subscribe(
        [this](std::uint32_t vni, net::Gid vgid, net::Gid pgid) {
          broadcasts.push_back({0, vni, vgid, pgid});
        });
    inval_sub = controller.subscribe_invalidate(
        [this](std::uint32_t vni, net::Gid vgid) {
          broadcasts.push_back({1, vni, vgid, net::Gid{}});
        });
  }
  ~World() {
    controller.unsubscribe(push_sub);
    controller.unsubscribe_invalidate(inval_sub);
  }

  struct Broadcast {
    int kind;  // 0 = push, 1 = invalidate
    std::uint32_t vni;
    net::Gid vgid;
    net::Gid pgid;
    bool operator==(const Broadcast&) const = default;
  };
  struct Outcome {
    std::uint8_t status = 255;
    net::Gid pgid;
    bool operator==(const Outcome&) const = default;
  };

  static sim::Task<void> resolve_slot(sdn::MappingCache* cache,
                                      std::uint32_t vni, net::Gid vgid,
                                      Outcome* out) {
    const auto r = co_await cache->resolve_ex(vni, vgid);
    out->status = static_cast<std::uint8_t>(r.status);
    if (r.pgid) out->pgid = *r.pgid;
  }

  // Runs the whole schedule; bursts drain fully (loop.run()) before the
  // next mutation, so both worlds apply mutations to quiesced caches.
  void run(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kRegister:
          controller.register_vgid(vni_of(op.key), vgid_of(op.key),
                                   pgid_of(op.key, op.gen));
          break;
        case Op::kUnregister:
          controller.unregister_vgid(vni_of(op.key), vgid_of(op.key));
          break;
        case Op::kBurst: {
          const std::size_t base = results.size();
          results.resize(base + op.resolves.size());
          for (std::size_t j = 0; j < op.resolves.size(); ++j) {
            const auto [host, key] = op.resolves[j];
            loop.spawn(resolve_slot(caches[host].get(), vni_of(key),
                                    vgid_of(key), &results[base + j]));
          }
          loop.run();
          break;
        }
      }
    }
  }

  sim::EventLoop loop;
  sdn::Controller controller;
  std::vector<std::unique_ptr<sdn::MappingCache>> caches;
  std::vector<Broadcast> broadcasts;
  std::vector<Outcome> results;
  sdn::Controller::SubId push_sub = 0;
  sdn::Controller::SubId inval_sub = 0;
};

}  // namespace shardeq

TEST_P(ShardEquivalenceTest, ShardedMatchesSingleShardReference) {
  const auto ops =
      shardeq::make_schedule(static_cast<std::uint64_t>(GetParam()));
  shardeq::World sharded(4, sim::microseconds(1), sim::microseconds(3));
  shardeq::World reference(1, sim::Time{0}, sim::Time{0});
  sharded.run(ops);
  reference.run(ops);

  // Same resolution, slot for slot: sharding/batching shifted timing only.
  ASSERT_EQ(sharded.results.size(), reference.results.size());
  for (std::size_t i = 0; i < sharded.results.size(); ++i) {
    EXPECT_EQ(sharded.results[i], reference.results[i]) << "slot " << i;
  }
  // Identical broadcast sequences on both channels, in order.
  EXPECT_EQ(sharded.broadcasts.size(), reference.broadcasts.size());
  EXPECT_TRUE(sharded.broadcasts == reference.broadcasts);
  // Final per-host cache contents agree (timestamps aside).
  for (std::size_t h = 0; h < shardeq::kHosts; ++h) {
    std::vector<std::pair<sdn::VirtKey, net::Gid>> sh, ref;
    sharded.caches[h]->for_each_entry(
        [&sh](const sdn::VirtKey& k, net::Gid p, sim::Time) {
          sh.emplace_back(k, p);
        });
    reference.caches[h]->for_each_entry(
        [&ref](const sdn::VirtKey& k, net::Gid p, sim::Time) {
          ref.emplace_back(k, p);
        });
    EXPECT_TRUE(sh == ref) << "host " << h << " cache diverged";
  }
  // The sharded world actually exercised the tier under test.
  EXPECT_EQ(sharded.controller.num_shards(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceTest,
                         ::testing::Range(1, chaos_sweep_seed_count() + 1));

// ------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  auto run_once = [](std::uint64_t* events) {
    sim::EventLoop loop;
    fabric::TestbedConfig cfg;
    cfg.candidate = fabric::Candidate::kMasq;
    cfg.cal.host_dram_bytes = 16ull << 30;
    cfg.cal.vm_mem_bytes = 4ull << 30;
    fabric::Testbed bed(loop, cfg);
    bed.add_instances(2);
    apps::kvs::Config kc;
    kc.num_clients = 4;
    kc.warmup = sim::milliseconds(1);
    kc.measure = sim::milliseconds(2);
    kc.num_keys = 5'000;
    const auto r = apps::kvs::run(bed, kc);
    *events = loop.events_executed();
    return r;
  };
  std::uint64_t e1 = 0, e2 = 0;
  const auto r1 = run_once(&e1);
  const auto r2 = run_once(&e2);
  EXPECT_EQ(r1.ops, r2.ops);
  EXPECT_EQ(r1.gets, r2.gets);
  EXPECT_EQ(r1.puts, r2.puts);
  EXPECT_EQ(e1, e2);  // bit-for-bit reproducible schedules
}

}  // namespace
