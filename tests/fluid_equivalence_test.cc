// FluidNet against a reference solver (DESIGN.md §17, "FluidNet cost
// model"). RefFluidNet below is the straightforward form of the model:
// progressive filling over a freshly built std::map of every flow and every
// link on each event, and a link load that scans every flow. net::FluidNet
// caches link loads and fills over reusable, live-link-only buffers; both
// must produce the same bits. Each seed drives both through one random
// sequence of starts, cap changes, cancels, link-capacity changes
// (outages included) and natural completions on a 16-host 4x2 Clos with
// per-tenant limiter links, and compares every flow rate, every link load
// and every completion timestamp with == after every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/fluid.h"
#include "net/topology.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace {

using net::FlowId;
using net::LinkId;

class RefFluidNet {
 public:
  explicit RefFluidNet(sim::EventLoop& loop) : loop_(loop) {}

  LinkId add_link(double gbps, sim::Time prop_delay) {
    links_.push_back(Link{net::gbps_to_bytes_per_ns(gbps), prop_delay});
    return static_cast<LinkId>(links_.size() - 1);
  }

  void set_link_capacity(LinkId id, double gbps) {
    settle();
    links_.at(id).capacity = net::gbps_to_bytes_per_ns(gbps);
    reallocate();
  }

  FlowId start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                    double cap_gbps, std::function<void()> on_complete) {
    settle();
    Flow f;
    f.path = std::move(path);
    f.bytes_total = bytes;
    f.bytes_remaining = static_cast<double>(bytes);
    f.cap = cap_gbps == net::kUncapped ? net::kUncapped
                                       : net::gbps_to_bytes_per_ns(cap_gbps);
    f.on_complete = std::move(on_complete);
    const FlowId id = next_flow_id_++;
    flows_.emplace(id, std::move(f));
    reallocate();
    return id;
  }

  void set_flow_cap(FlowId id, double cap_gbps) {
    auto it = flows_.find(id);
    if (it == flows_.end()) throw std::out_of_range("no such flow");
    settle();
    it->second.cap = cap_gbps == net::kUncapped
                         ? net::kUncapped
                         : net::gbps_to_bytes_per_ns(cap_gbps);
    reallocate();
  }

  void cancel_flow(FlowId id) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    settle();
    flows_.erase(it);
    reallocate();
  }

  bool has_flow(FlowId id) const { return flows_.count(id) != 0; }

  double current_rate_gbps(FlowId id) const {
    auto it = flows_.find(id);
    if (it == flows_.end()) return 0.0;
    return net::bytes_per_ns_to_gbps(it->second.rate);
  }

  double link_load_gbps(LinkId id) const {
    double load = 0;
    for (const auto& [fid, f] : flows_) {
      for (LinkId l : f.path) {
        if (l == id) {
          load += f.rate;
          break;
        }
      }
    }
    return net::bytes_per_ns_to_gbps(load);
  }

 private:
  static constexpr double kByteEpsilon = 1e-6;

  struct Link {
    double capacity;  // bytes/ns
    sim::Time prop_delay;
  };
  struct Flow {
    std::vector<LinkId> path;
    std::uint64_t bytes_total;
    double bytes_remaining;
    double bytes_done = 0;
    double cap;
    double rate = 0;
    std::function<void()> on_complete;
  };

  sim::Time path_propagation(const std::vector<LinkId>& path) const {
    sim::Time t = 0;
    for (LinkId l : path) t += links_.at(l).prop_delay;
    return t;
  }

  void settle() {
    const sim::Time now = loop_.now();
    const double dt = static_cast<double>(now - last_settle_);
    if (dt > 0) {
      for (auto& [id, f] : flows_) {
        const double sent = f.rate * dt;
        f.bytes_done += sent;
        if (f.bytes_total > 0) {
          f.bytes_remaining = std::max(0.0, f.bytes_remaining - sent);
        }
      }
    }
    last_settle_ = now;
  }

  void reallocate() {
    struct LinkState {
      double remaining;
      int unfixed_flows = 0;
    };
    std::vector<LinkState> ls(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      ls[i].remaining = links_[i].capacity;
    }
    std::map<FlowId, Flow*> unfixed;
    for (auto& [id, f] : flows_) {
      f.rate = 0;
      unfixed.emplace(id, &f);
      for (LinkId l : f.path) ++ls[l].unfixed_flows;
    }
    while (!unfixed.empty()) {
      double bottleneck_share = std::numeric_limits<double>::infinity();
      for (const auto& s : ls) {
        if (s.unfixed_flows > 0) {
          bottleneck_share =
              std::min(bottleneck_share, s.remaining / s.unfixed_flows);
        }
      }
      std::vector<FlowId> capped;
      for (auto& [id, f] : unfixed) {
        if (f->cap <= bottleneck_share) capped.push_back(id);
      }
      if (!capped.empty()) {
        for (FlowId id : capped) {
          Flow* f = unfixed[id];
          f->rate = f->cap;
          for (LinkId l : f->path) {
            ls[l].remaining = std::max(0.0, ls[l].remaining - f->rate);
            --ls[l].unfixed_flows;
          }
          unfixed.erase(id);
        }
        continue;
      }
      if (!std::isfinite(bottleneck_share)) {
        for (auto& [id, f] : unfixed) {
          if (f->path.empty()) {
            throw std::logic_error("flow with empty path and no cap");
          }
        }
        break;
      }
      std::vector<FlowId> at_bottleneck;
      for (auto& [id, f] : unfixed) {
        for (LinkId l : f->path) {
          if (ls[l].unfixed_flows > 0 &&
              ls[l].remaining / ls[l].unfixed_flows <=
                  bottleneck_share * (1 + 1e-12)) {
            at_bottleneck.push_back(id);
            break;
          }
        }
      }
      assert(!at_bottleneck.empty());
      for (FlowId id : at_bottleneck) {
        Flow* f = unfixed[id];
        f->rate = bottleneck_share;
        for (LinkId l : f->path) {
          ls[l].remaining = std::max(0.0, ls[l].remaining - f->rate);
          --ls[l].unfixed_flows;
        }
        unfixed.erase(id);
      }
    }
    arm_completion_timer();
  }

  void arm_completion_timer() {
    ++timer_generation_;
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& [id, f] : flows_) {
      if (f.bytes_total == 0) continue;
      if (f.bytes_remaining <= kByteEpsilon) {
        earliest = 0;
        break;
      }
      if (f.rate > 0) {
        earliest = std::min(earliest, f.bytes_remaining / f.rate);
      }
    }
    if (!std::isfinite(earliest)) return;
    const auto gen = timer_generation_;
    const sim::Time dt = static_cast<sim::Time>(std::ceil(earliest));
    loop_.schedule_after(dt, [this, gen] {
      if (gen != timer_generation_) return;
      fire_completions();
    });
  }

  void fire_completions() {
    settle();
    std::vector<std::pair<std::function<void()>, sim::Time>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      Flow& f = it->second;
      if (f.bytes_total > 0 && f.bytes_remaining <= kByteEpsilon) {
        done.emplace_back(std::move(f.on_complete), path_propagation(f.path));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [cb, prop] : done) {
      if (cb) loop_.schedule_after(prop, std::move(cb));
    }
    reallocate();
  }

  sim::EventLoop& loop_;
  std::vector<Link> links_;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;
  sim::Time last_settle_ = 0;
  std::uint64_t timer_generation_ = 0;
};

using Completions = std::vector<std::pair<FlowId, sim::Time>>;

constexpr std::size_t kHosts = 16;
constexpr std::size_t kTenants = 4;
constexpr int kOps = 300;

// Capacities and caps are drawn as arbitrary doubles, not whole Gbps: whole
// Gbps are exact in binary, so sums of them hide any reordering of the
// floating-point operations the pins depend on.
class FluidEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  // Every flow rate and link load, and the completion logs, are equal.
  void expect_same(const char* op, int step) {
    SCOPED_TRACE(testing::Message() << "op " << step << " (" << op << ")");
    for (FlowId id : started_) {
      ASSERT_EQ(fast_.has_flow(id), ref_.has_flow(id)) << "flow " << id;
      ASSERT_EQ(fast_.current_rate_gbps(id), ref_.current_rate_gbps(id))
          << "flow " << id;
    }
    for (LinkId l = 0; l < links_; ++l) {
      ASSERT_EQ(fast_.link_load_gbps(l), ref_.link_load_gbps(l))
          << "link " << l;
    }
    ASSERT_EQ(fast_done_, ref_done_);
  }

  sim::EventLoop fast_loop_;
  sim::EventLoop ref_loop_;
  net::FluidNet fast_{fast_loop_};
  RefFluidNet ref_{ref_loop_};
  LinkId links_ = 0;
  std::vector<FlowId> started_;
  Completions fast_done_;
  Completions ref_done_;
};

TEST_P(FluidEquivalenceTest, BitIdenticalToReferenceSolver) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));

  // Per-host NIC links with propagation delay, then the fabric between
  // them, then the tenant limiters.
  std::vector<LinkId> tx, rx;
  for (std::size_t h = 0; h < kHosts; ++h) {
    tx.push_back(fast_.add_link(100.0, 1000));
    rx.push_back(fast_.add_link(100.0, 1000));
  }
  net::FabricConfig fc;
  fc.leaves = 4;
  fc.spines = 2;
  fc.spine_gbps = 40.0;  // oversubscribed: spine links bottleneck
  const net::FabricTopology topo(fast_, kHosts, fc);
  std::vector<LinkId> limiter;
  for (std::size_t t = 0; t < kTenants; ++t) {
    limiter.push_back(fast_.add_link(5.0 + 60.0 * rng.next_double(), 0));
  }
  links_ = static_cast<LinkId>(2 * kHosts + 2 * fc.leaves * fc.spines +
                               kTenants);
  std::vector<double> base_gbps;
  for (LinkId l = 0; l < links_; ++l) {
    base_gbps.push_back(fast_.link_capacity_gbps(l));
    ASSERT_EQ(ref_.add_link(base_gbps.back(), fast_.path_propagation({l})),
              l);
  }

  std::vector<FlowId> unbounded;
  int outages = 0;
  for (int step = 0; step < kOps; ++step) {
    const std::uint64_t op = rng.next_below(100);
    const char* name = "";
    if (op < 35) {
      name = "start_flow";
      const std::size_t src = rng.next_below(kHosts);
      const std::size_t dst = rng.next_below(kHosts);
      net::EcmpKey key;
      key.src_ip = static_cast<std::uint32_t>(src);
      key.dst_ip = static_cast<std::uint32_t>(dst);
      key.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
      std::vector<LinkId> path{limiter[rng.next_below(kTenants)], tx[src]};
      for (LinkId l : topo.path(src, dst, key)) path.push_back(l);
      path.push_back(rx[dst]);
      // A repeated link: the load counts each flow once per distinct link.
      if (rng.next_bool(0.05)) path.push_back(path.back());
      const std::uint64_t bytes =
          rng.next_bool(0.2) ? 0 : 1000 + rng.next_below(2'000'000);
      const double cap =
          rng.next_bool(0.3) ? 1.0 + 40.0 * rng.next_double() : net::kUncapped;
      const FlowId next = started_.size() + 1;
      const FlowId a = fast_.start_flow(path, bytes, cap, [this, next] {
        fast_done_.emplace_back(next, fast_loop_.now());
      });
      const FlowId b = ref_.start_flow(path, bytes, cap, [this, next] {
        ref_done_.emplace_back(next, ref_loop_.now());
      });
      ASSERT_EQ(a, next);
      ASSERT_EQ(b, next);
      started_.push_back(a);
      if (bytes == 0) unbounded.push_back(a);
    } else if (op < 50 && !started_.empty()) {
      name = "set_flow_cap";
      const FlowId id = started_[rng.next_below(started_.size())];
      const double cap =
          rng.next_bool(0.2) ? net::kUncapped : 50.0 * rng.next_double();
      if (ref_.has_flow(id)) {
        fast_.set_flow_cap(id, cap);
        ref_.set_flow_cap(id, cap);
      }
    } else if (op < 60 && !started_.empty()) {
      name = "cancel_flow";  // may name a finished flow: a no-op on both
      const FlowId id = started_[rng.next_below(started_.size())];
      fast_.cancel_flow(id);
      ref_.cancel_flow(id);
    } else if (op < 70) {
      name = "set_link_capacity";
      const auto l = static_cast<LinkId>(rng.next_below(links_));
      double gbps = base_gbps[l];
      if (rng.next_bool(0.3)) {
        gbps = 0;
        ++outages;
      } else if (rng.next_bool(0.5)) {
        gbps = 1.0 + 100.0 * rng.next_double();
      }
      fast_.set_link_capacity(l, gbps);
      ref_.set_link_capacity(l, gbps);
    } else {
      name = "advance";  // lets flows finish on their own
      const sim::Time until =
          fast_loop_.now() + static_cast<sim::Time>(rng.next_below(300'000));
      fast_loop_.run_until(until);
      ref_loop_.run_until(until);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(name, step));
  }

  // Lift every outage and cap, stop the unbounded flows, and let every
  // finite flow finish.
  for (LinkId l = 0; l < links_; ++l) {
    fast_.set_link_capacity(l, base_gbps[l]);
    ref_.set_link_capacity(l, base_gbps[l]);
  }
  for (FlowId id : started_) {
    if (!ref_.has_flow(id)) continue;
    fast_.set_flow_cap(id, net::kUncapped);
    ref_.set_flow_cap(id, net::kUncapped);
  }
  for (FlowId id : unbounded) {
    fast_.cancel_flow(id);
    ref_.cancel_flow(id);
  }
  fast_loop_.run();
  ref_loop_.run();
  ASSERT_NO_FATAL_FAILURE(expect_same("drain", kOps));
  EXPECT_EQ(fast_.active_flows(), 0u);
  EXPECT_EQ(fast_loop_.now(), ref_loop_.now());
  EXPECT_GT(outages, 0);
  EXPECT_GT(fast_done_.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidEquivalenceTest, ::testing::Range(0, 100));

// rdma_bw16's shape: over a thousand finite flows in flight on one tx->rx
// path, where a refill fixes every flow in one round. A few are capped
// near the fair share (some caps bind, some changes skip the refill), a
// few are cancelled, and the rest complete on their own.
class FluidDepthEquivalenceTest : public FluidEquivalenceTest {};

TEST_P(FluidDepthEquivalenceTest, ThousandsOfFlowsOnOnePath) {
  sim::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const double tx_gbps = 30.0 + 20.0 * rng.next_double();
  const double rx_gbps = 30.0 + 20.0 * rng.next_double();
  const LinkId tx = fast_.add_link(tx_gbps, 500);
  const LinkId rx = fast_.add_link(rx_gbps, 500);
  ASSERT_EQ(ref_.add_link(tx_gbps, 500), tx);
  ASSERT_EQ(ref_.add_link(rx_gbps, 500), rx);
  links_ = 2;
  const std::vector<LinkId> path{tx, rx};
  const auto flows = static_cast<std::size_t>(1000 + rng.next_below(200));
  const double share = std::min(tx_gbps, rx_gbps) / static_cast<double>(flows);

  int capped = 0;
  int cancelled = 0;
  int step = 0;
  while (started_.size() < flows) {
    const std::uint64_t op = rng.next_below(100);
    const char* name = "";
    if (op < 70) {
      name = "start_flow";
      const std::uint64_t bytes = 4096 + rng.next_below(60'000);
      const bool cap_it = rng.next_bool(0.02);
      capped += cap_it;
      const double cap =
          cap_it ? share * (0.5 + rng.next_double()) : net::kUncapped;
      const FlowId next = started_.size() + 1;
      ASSERT_EQ(fast_.start_flow(path, bytes, cap,
                                 [this, next] {
                                   fast_done_.emplace_back(next,
                                                           fast_loop_.now());
                                 }),
                next);
      ASSERT_EQ(ref_.start_flow(path, bytes, cap,
                                [this, next] {
                                  ref_done_.emplace_back(next, ref_loop_.now());
                                }),
                next);
      started_.push_back(next);
    } else if (op < 72) {
      name = "set_flow_cap";
      const FlowId id = started_[rng.next_below(started_.size())];
      const double cap = share * (0.5 + rng.next_double());
      if (ref_.has_flow(id)) {
        fast_.set_flow_cap(id, cap);
        ref_.set_flow_cap(id, cap);
      }
    } else if (op < 75) {
      name = "cancel_flow";
      const FlowId id = started_[rng.next_below(started_.size())];
      cancelled += ref_.has_flow(id);
      fast_.cancel_flow(id);
      ref_.cancel_flow(id);
    } else {
      name = "advance";
      const sim::Time until =
          fast_loop_.now() + static_cast<sim::Time>(rng.next_below(40));
      fast_loop_.run_until(until);
      ref_loop_.run_until(until);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(name, step++));
  }
  EXPECT_GT(fast_.active_flows(), 900u);

  // Drain in steps, so that many completions are compared mid-flight.
  while (fast_.active_flows() > 0) {
    const sim::Time until = fast_loop_.now() + 20'000;
    fast_loop_.run_until(until);
    ref_loop_.run_until(until);
    ASSERT_NO_FATAL_FAILURE(expect_same("drain", step++));
  }
  fast_loop_.run();
  ref_loop_.run();
  ASSERT_NO_FATAL_FAILURE(expect_same("drain", step));
  EXPECT_EQ(fast_loop_.now(), ref_loop_.now());
  EXPECT_GT(capped, 0);
  EXPECT_GT(cancelled, 0);
  EXPECT_GT(fast_done_.size(), flows * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDepthEquivalenceTest,
                         ::testing::Range(0, 4));

}  // namespace
