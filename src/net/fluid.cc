#include "net/fluid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace net {

namespace {
// Completion times are rounded up to the next nanosecond; a flow whose
// remaining bytes fall below this is considered finished (guards float
// accumulation error).
constexpr double kByteEpsilon = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();

// A cap in bytes/ns. Refuses a negative or NaN cap, and no cap on a flow
// that crosses no link, which the filling would give +inf.
double checked_cap(double cap_gbps, bool empty_path, const char* what) {
  if (!(cap_gbps >= 0) || (empty_path && cap_gbps == kUncapped)) {
    throw std::invalid_argument(
        std::string(what) + ": negative or NaN cap, or none on an empty path");
  }
  return gbps_to_bytes_per_ns(cap_gbps);
}
}  // namespace

LinkId FluidNet::add_link(double gbps, sim::Time prop_delay) {
  if (!(gbps > 0 && gbps < kInf)) {  // NaN fails every comparison
    throw std::invalid_argument("add_link: capacity must be finite and > 0");
  }
  links_.push_back(Link{gbps_to_bytes_per_ns(gbps), prop_delay});
  return static_cast<LinkId>(links_.size() - 1);
}

double FluidNet::link_capacity_gbps(LinkId id) const {
  return bytes_per_ns_to_gbps(links_.at(id).capacity);
}

void FluidNet::set_link_capacity(LinkId id, double gbps) {
  if (!(gbps >= 0 && gbps < kInf)) {
    throw std::invalid_argument(
        "set_link_capacity: negative, infinite or NaN capacity");
  }
  // + 0.0 turns -0.0 into +0.0, so no share is -0.0 (DESIGN.md §17).
  links_.at(id).capacity = gbps_to_bytes_per_ns(gbps) + 0.0;
  reallocate();
}

sim::Time FluidNet::path_propagation(const std::vector<LinkId>& path) const {
  sim::Time t = 0;
  for (LinkId l : path) t += links_.at(l).prop_delay;
  return t;
}

FlowId FluidNet::start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                            double cap_gbps,
                            sim::Callback on_complete) {
  for (LinkId l : path) {
    if (l >= links_.size()) throw std::out_of_range("start_flow: bad link id");
  }
  Flow f;
  f.cap = checked_cap(cap_gbps, path.empty(), "start_flow");
  f.path = std::move(path);
  f.bytes_total = bytes;
  f.bytes_remaining = static_cast<double>(bytes);
  f.on_complete = std::move(on_complete);
  const FlowId id = next_flow_id_++;
  enter(flows_.emplace(id, std::move(f)).first->second);
  reallocate();
  return id;
}

void FluidNet::set_flow_cap(FlowId id, double cap_gbps) {
  auto it = flows_.find(id);
  if (it == flows_.end()) throw std::out_of_range("set_flow_cap: no such flow");
  Flow& f = it->second;
  const double cap = checked_cap(cap_gbps, f.path.empty(), "set_flow_cap");
  capped_flows_ += (cap != kUncapped) - (f.cap != kUncapped);
  f.cap = cap;
  if (f.cap > f.slack_above) {
    // The refill would fix the same flows at the same rates. The timer is
    // still re-armed, exactly as the refill would re-arm it.
    arm_completion_timer(settle(/*timed=*/true));
    return;
  }
  reallocate();
}

void FluidNet::cancel_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  leave(it->second);
  flows_.erase(it);
  reallocate();
}

double FluidNet::link_load_gbps(LinkId id) {
  const Link& k = links_.at(id);
  if (loads_stale_) sum_loads();
  return bytes_per_ns_to_gbps(k.load);
}

const std::vector<LinkId>* FluidNet::flow_path(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second.path;
}

double FluidNet::current_rate_gbps(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  return bytes_per_ns_to_gbps(it->second.rate);
}

std::uint64_t FluidNet::bytes_sent(FlowId id) {
  settle();
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0;
  return static_cast<std::uint64_t>(it->second.bytes_done);
}

void FluidNet::Flow::advance(double dt) {
  const double sent = rate * dt;
  bytes_done += sent;
  if (bytes_total > 0) bytes_remaining = std::max(0.0, bytes_remaining - sent);
}

double FluidNet::Flow::time_left() const {
  if (bytes_total == 0) return kInf;
  if (bytes_remaining <= kByteEpsilon) return 0;
  return rate > 0 ? bytes_remaining / rate : kInf;
}

double FluidNet::take_elapsed() {
  const sim::Time now = loop_.now();
  const double dt = static_cast<double>(now - last_settle_);
  last_settle_ = now;
  return dt;
}

double FluidNet::settle(bool timed) {
  const double dt = take_elapsed();
  double earliest = kInf;
  if (dt <= 0 && !timed) return earliest;
  for (auto& [id, f] : flows_) {
    if (dt > 0) f.advance(dt);
    if (timed) earliest = std::min(earliest, f.time_left());
  }
  return earliest;
}

void FluidNet::enter(const Flow& f) {
  capped_flows_ += f.cap != kUncapped;
  for (LinkId l : f.path) {
    if (links_[l].path_entries++ == 0) live_links_.push_back(l);
  }
}

void FluidNet::leave(const Flow& f) {
  capped_flows_ -= f.cap != kUncapped;
  for (LinkId l : f.path) {
    Link& k = links_[l];
    if (--k.path_entries > 0) continue;
    k.load = 0;
    *std::find(live_links_.begin(), live_links_.end(), l) = live_links_.back();
    live_links_.pop_back();
  }
}

void FluidNet::sum_loads() {
  // Every flow adds its rate once per distinct link on its path, in
  // FlowId order, from 0.
  for (LinkId l : live_links_) links_[l].load = 0;
  for (const auto& [id, f] : flows_) {
    for (auto l = f.path.begin(); l != f.path.end(); ++l) {
      if (std::find(f.path.begin(), l, *l) == l) links_[*l].load += f.rate;
    }
  }
  loads_stale_ = false;
}

void FluidNet::reallocate() {
  // Progressive filling with per-flow caps. Only links some flow crosses
  // take part; the rest could not lower the bottleneck share. The first
  // pass visits every flow, and settles each before it reads or sets its
  // rate; no other flow's settling changes what the pass reads.
  const double dt = take_elapsed();
  loads_stale_ = true;
  for (LinkId l : live_links_) {
    Link& k = links_[l];
    k.remaining = k.capacity;
    k.unfixed_flows = k.path_entries;
  }
  // A lower bound on the unfixed flows' caps, exact after every pass. If
  // any cap is finite, the first round starts with a cap pass.
  double min_cap = capped_flows_ > 0 ? -kInf : kInf;
  bool first = true;  // every flow is unfixed, and unfixed_ not yet built
  double earliest = kInf;
  // One round's pass over the unfixed flows, in FlowId order. A flow that
  // passes `test` is fixed at once: the tests read only state from before
  // the round, which the round updates after the pass, and only if
  // another round follows. The completion minimum takes each flow as its
  // rate becomes final.
  const auto sweep = [&](auto test, auto rate_of, double slack_above) {
    fixing_.clear();
    min_cap = kInf;
    const auto stays = [&](Flow& f) {  // fixes `f` unless it stays unfixed
      if (!test(f)) {
        min_cap = std::min(min_cap, f.cap);
        return true;
      }
      f.rate = rate_of(f);
      f.slack_above = slack_above;
      earliest = std::min(earliest, f.time_left());
      fixing_.push_back(&f);
      return false;
    };
    if (first) {
      unfixed_.clear();
      for (auto& [id, f] : flows_) {
        if (dt > 0) f.advance(dt);
        if (stays(f)) unfixed_.push_back(&f);
      }
      first = false;
    } else {
      std::size_t kept = 0;
      for (Flow* f : unfixed_) {
        if (stays(*f)) unfixed_[kept++] = f;
      }
      unfixed_.resize(kept);
    }
    if (unfixed_.empty()) return;
    for (const Flow* f : fixing_) {
      for (LinkId l : f->path) {
        Link& k = links_[l];
        k.remaining = std::max(0.0, k.remaining - f->rate);
        --k.unfixed_flows;
      }
    }
  };

  // Shares rise round by round, but can dip by an ulp: slack_above takes
  // the running maximum, the bound every cap test so far compared against.
  double highest_share = 0;
  while (first ? !flows_.empty() : !unfixed_.empty()) {
    // Fair share currently offered by the most constrained link.
    double share = kInf;
    for (LinkId l : live_links_) {
      const Link& k = links_[l];
      if (k.unfixed_flows > 0) {
        share = std::min(share, k.remaining / k.unfixed_flows);
      }
    }
    highest_share = std::max(highest_share, share);
    // Flows whose own cap binds before the bottleneck share get fixed at
    // their cap; if none, every flow on the bottleneck link(s) gets the
    // fair share.
    if (min_cap <= share) {
      sweep([&](const Flow& f) { return f.cap <= share; },
            [](const Flow& f) { return f.cap; }, kInf);
      continue;
    }
    for (LinkId l : live_links_) {
      Link& k = links_[l];
      k.bottleneck = k.unfixed_flows > 0 &&
                     k.remaining / k.unfixed_flows <= share * (1 + 1e-12);
    }
    sweep(
        [&](const Flow& f) {
          for (LinkId l : f.path) {
            if (links_[l].bottleneck) return true;
          }
          return false;
        },
        [&](const Flow&) { return share; }, highest_share);
    assert(!fixing_.empty());
  }
  arm_completion_timer(earliest);
}

void FluidNet::arm_completion_timer(double earliest) {
  ++timer_generation_;
  if (!std::isfinite(earliest)) return;
  const auto gen = timer_generation_;
  const sim::Time dt = static_cast<sim::Time>(std::ceil(earliest));
  loop_.schedule_after(dt, [this, gen] {
    if (gen != timer_generation_) return;  // superseded by a newer epoch
    fire_completions();
  });
}

void FluidNet::fire_completions() {
  // Settles every flow and removes the finished ones in one walk.
  const double dt = take_elapsed();
  std::vector<std::pair<sim::Callback, sim::Time>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    if (dt > 0) f.advance(dt);
    if (f.bytes_total > 0 && f.bytes_remaining <= kByteEpsilon) {
      done.emplace_back(std::move(f.on_complete), path_propagation(f.path));
      leave(f);
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

}  // namespace net
