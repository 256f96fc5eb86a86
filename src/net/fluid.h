// Fluid (max-min fair) flow-level bandwidth model.
//
// Long-lived transfers are modeled as fluid flows over a set of links. On
// every topology event (flow start/finish/cancel, rate-cap change) rates are
// re-assigned by progressive filling: repeatedly saturate the most
// constrained resource — either a link shared by its remaining flows or an
// individual flow's rate cap — and fix the affected flows. This yields the
// classic max-min fair allocation with per-flow caps, which is what a
// lossless RoCEv2 fabric with hardware rate limiters converges to. A cap
// change that provably leaves every rate as it was skips the refill
// (DESIGN.md §17).
//
// Finite flows complete after `bytes / rate` of serialization plus the
// path's propagation delay; unbounded flows (bytes == 0) run until
// cancelled and are sampled by the QoS/timeline benches via current_rate().
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/time.h"

namespace net {

using LinkId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr double kUncapped = std::numeric_limits<double>::infinity();

// 1 Gbps expressed in bytes per nanosecond.
inline constexpr double gbps_to_bytes_per_ns(double gbps) {
  return gbps / 8.0;  // 1 Gb/s = 1e9 b/s = 0.125e9 B/s = 0.125 B/ns
}
inline constexpr double bytes_per_ns_to_gbps(double bpn) { return bpn * 8.0; }

class FluidNet {
 public:
  explicit FluidNet(sim::EventLoop& loop) : loop_(loop) {}

  // Adds a unidirectional link of `gbps` capacity and `prop_delay` latency.
  LinkId add_link(double gbps, sim::Time prop_delay);

  double link_capacity_gbps(LinkId id) const;

  // Reprograms a link's capacity (models a hardware rate limiter exposed as
  // a virtual link; 0 blocks all flows through it).
  void set_link_capacity(LinkId id, double gbps);

  // Starts a flow over `path` (links traversed in order).
  //  bytes     > 0: finite transfer; on_complete fires once after the last
  //                 byte serializes and propagates down the path.
  //  bytes    == 0: unbounded flow; never completes; cancel explicitly.
  //  cap_gbps     : per-flow rate limiter (kUncapped for none).
  // Throws std::invalid_argument for a negative or NaN cap, or an empty
  // path with no cap (its rate would be unbounded).
  FlowId start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                    double cap_gbps, sim::Callback on_complete);

  // Changes a flow's rate cap (hardware rate-limiter reprogramming). The
  // same caps as start_flow's are refused.
  void set_flow_cap(FlowId id, double cap_gbps);

  // Removes a flow without firing its completion callback.
  void cancel_flow(FlowId id);

  bool has_flow(FlowId id) const { return flows_.count(id) != 0; }

  // Instantaneous allocated rate, in Gbps.
  double current_rate_gbps(FlowId id) const;
  // Bytes fully serialized so far (settled up to now()).
  std::uint64_t bytes_sent(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }

  // Total propagation delay along a path (used for one-way latency math).
  sim::Time path_propagation(const std::vector<LinkId>& path) const;

  // Instantaneous offered load on a link (sum of crossing flows' rates),
  // in Gbps — what an ECN marking engine watches. The first call after a
  // refill sums every link's load; later ones look it up. Throws
  // std::out_of_range for an unknown link.
  double link_load_gbps(LinkId id);
  // The links a flow traverses (nullptr if the flow is gone).
  const std::vector<LinkId>* flow_path(FlowId id) const;

 private:
  struct Link {
    double capacity;  // bytes/ns; never -0.0
    sim::Time prop_delay;
    double load = 0;  // bytes/ns; summed by sum_loads() in FlowId order
    int path_entries = 0;  // in live flows' paths; > 0 iff in live_links_
    // Progressive-filling state, valid while the link is in live_links_.
    double remaining = 0;  // bytes/ns
    int unfixed_flows = 0;
    bool bottleneck = false;  // at this round's share
  };
  struct Flow {
    std::vector<LinkId> path;
    std::uint64_t bytes_total;      // 0 = unbounded
    double bytes_remaining;         // meaningful when bytes_total > 0
    double bytes_done = 0;
    double cap;                     // bytes/ns
    double rate = 0;                // bytes/ns, assigned by reallocate()
    // If a link share fixed this flow: the highest bottleneck share of the
    // filling rounds up to that one. Any cap above it refills to the same
    // allocation. +inf if its cap fixed it, or nothing did.
    double slack_above = kUncapped;
    sim::Callback on_complete;

    // Sends `dt` ns worth of bytes at the current rate.
    void advance(double dt);
    // Time until the flow completes at its current rate: 0 once its bytes
    // are out, +inf if it is unbounded or stalled.
    double time_left() const;
  };

  // Moves the settle point to now(); returns the ns since the last one,
  // by which the caller must advance every flow.
  double take_elapsed();
  // Advances every flow's byte counts to now(). With `timed`, also returns
  // the earliest time_left() over the flows; +inf otherwise.
  double settle(bool timed = false);
  // Counts a new flow into the live links and capped_flows_, or a leaving
  // one out; a link that leaves the set carries no load.
  void enter(const Flow& f);
  void leave(const Flow& f);
  // Sums every link's load from the current rates (DESIGN.md §17).
  void sum_loads();
  // Settles every flow, recomputes the max-min allocation and re-arms the
  // completion timer.
  void reallocate();
  // Starts a new timer epoch that fires `earliest` ns from now, rounded up
  // (none if +inf).
  void arm_completion_timer(double earliest);
  void fire_completions();

  sim::EventLoop& loop_;
  std::vector<Link> links_;
  // Iterates in FlowId order (ids only grow and FlatMap keeps insertion
  // order). Rates, link loads and completion-event order all depend on
  // reallocate(), sum_loads() and fire_completions() walking flows in
  // this order.
  sim::FlatMap<FlowId, Flow> flows_;
  std::vector<LinkId> live_links_;  // links at least one flow crosses
  bool loads_stale_ = false;        // rates moved since sum_loads()
  std::size_t capped_flows_ = 0;    // flows whose cap is finite
  // reallocate() scratch, kept across calls so filling allocates nothing.
  std::vector<Flow*> unfixed_;      // FlowId order
  std::vector<Flow*> fixing_;       // fixed this round, FlowId order
  FlowId next_flow_id_ = 1;
  sim::Time last_settle_ = 0;
  std::uint64_t timer_generation_ = 0;
};

}  // namespace net
