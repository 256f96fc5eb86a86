#include "net/fluid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace net {

namespace {
// Completion times are rounded up to the next nanosecond; a flow whose
// remaining bytes fall below this is considered finished (guards float
// accumulation error).
constexpr double kByteEpsilon = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

LinkId FluidNet::add_link(double gbps, sim::Time prop_delay) {
  if (!(gbps > 0)) {  // refuses NaN too: every NaN comparison is false
    throw std::invalid_argument("add_link: capacity must be > 0");
  }
  links_.push_back(Link{gbps_to_bytes_per_ns(gbps), prop_delay});
  return static_cast<LinkId>(links_.size() - 1);
}

double FluidNet::link_capacity_gbps(LinkId id) const {
  return bytes_per_ns_to_gbps(links_.at(id).capacity);
}

void FluidNet::set_link_capacity(LinkId id, double gbps) {
  if (!(gbps >= 0)) {
    throw std::invalid_argument("set_link_capacity: negative or NaN capacity");
  }
  settle();
  links_.at(id).capacity = gbps_to_bytes_per_ns(gbps);
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
  settle();
  Flow f;
  f.path = std::move(path);
  f.bytes_total = bytes;
  f.bytes_remaining = static_cast<double>(bytes);
  f.cap = cap_gbps == kUncapped ? kUncapped : gbps_to_bytes_per_ns(cap_gbps);
  f.on_complete = std::move(on_complete);
  const FlowId id = next_flow_id_++;
  flows_.emplace(id, std::move(f));
  reallocate();
  return id;
}

void FluidNet::set_flow_cap(FlowId id, double cap_gbps) {
  auto it = flows_.find(id);
  if (it == flows_.end()) throw std::out_of_range("set_flow_cap: no such flow");
  Flow& f = it->second;
  f.cap = cap_gbps == kUncapped ? kUncapped : gbps_to_bytes_per_ns(cap_gbps);
  if (f.cap > f.slack_above) {
    // The refill would fix the same flows at the same rates. The timer is
    // still re-armed, exactly as the refill would re-arm it.
    arm_completion_timer(settle(/*timed=*/true));
    return;
  }
  settle();
  reallocate();
}

void FluidNet::cancel_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle();
  flows_.erase(it);
  reallocate();
}

double FluidNet::link_load_gbps(LinkId id) const {
  return bytes_per_ns_to_gbps(links_.at(id).load);
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

double FluidNet::Flow::time_left() const {
  if (bytes_total == 0) return kInf;
  if (bytes_remaining <= kByteEpsilon) return 0;
  return rate > 0 ? bytes_remaining / rate : kInf;
}

double FluidNet::settle(bool timed) {
  const sim::Time now = loop_.now();
  const double dt = static_cast<double>(now - last_settle_);
  last_settle_ = now;
  double earliest = kInf;
  if (dt <= 0 && !timed) return earliest;
  for (auto& [id, f] : flows_) {
    if (dt > 0) {
      const double sent = f.rate * dt;
      f.bytes_done += sent;
      if (f.bytes_total > 0) {
        f.bytes_remaining = std::max(0.0, f.bytes_remaining - sent);
      }
    }
    if (timed) earliest = std::min(earliest, f.time_left());
  }
  return earliest;
}

void FluidNet::reallocate() {
  // Progressive filling with per-flow caps. Only links some flow crosses
  // take part; the rest could not lower the bottleneck share.
  for (LinkId l : live_links_) {
    links_[l].load = 0;
    links_[l].unfixed_flows = 0;
  }
  live_links_.clear();
  unfixed_.clear();
  for (auto& [id, f] : flows_) {
    f.rate = 0;
    f.slack_above = kInf;
    unfixed_.push_back(&f);
    for (LinkId l : f.path) {
      if (links_[l].unfixed_flows++ == 0) {
        links_[l].remaining = links_[l].capacity;
        live_links_.push_back(l);
      }
    }
  }
  // Moves the unfixed flows matching `pred` to fixing_. Every flow is
  // tested before any is fixed, and both lists stay in FlowId order.
  const auto take = [this](auto pred) {
    fixing_.clear();
    std::size_t kept = 0;
    for (Flow* f : unfixed_) {
      if (pred(*f)) {
        fixing_.push_back(f);
      } else {
        unfixed_[kept++] = f;
      }
    }
    unfixed_.resize(kept);
    return !fixing_.empty();
  };
  const auto fix = [this](Flow* f, double rate) {
    f->rate = rate;
    for (LinkId l : f->path) {
      links_[l].remaining = std::max(0.0, links_[l].remaining - rate);
      --links_[l].unfixed_flows;
    }
  };

  // Shares rise round by round, but can dip by an ulp: slack_above takes
  // the running maximum, the bound every cap test so far compared against.
  double highest_share = 0;
  while (!unfixed_.empty()) {
    // Fair share currently offered by the most constrained link.
    double bottleneck_share = kInf;
    for (LinkId l : live_links_) {
      const Link& s = links_[l];
      if (s.unfixed_flows > 0) {
        bottleneck_share =
            std::min(bottleneck_share, s.remaining / s.unfixed_flows);
      }
    }
    highest_share = std::max(highest_share, bottleneck_share);
    // Flows whose own cap binds before the bottleneck share get fixed at
    // their cap; if none, every flow on the bottleneck link(s) gets the
    // fair share.
    if (take([&](const Flow& f) { return f.cap <= bottleneck_share; })) {
      for (Flow* f : fixing_) fix(f, f->cap);
      continue;
    }
    if (!std::isfinite(bottleneck_share)) {
      // Flows with no links and no cap: unbounded model error.
      for (const Flow* f : unfixed_) {
        if (f->path.empty()) {
          throw std::logic_error("flow with empty path and no cap");
        }
      }
      break;
    }
    // Fix all unfixed flows crossing a bottleneck link at the share.
    take([&](const Flow& f) {
      for (LinkId l : f.path) {
        const Link& s = links_[l];
        if (s.unfixed_flows > 0 &&
            s.remaining / s.unfixed_flows <= bottleneck_share * (1 + 1e-12)) {
          return true;
        }
      }
      return false;
    });
    assert(!fixing_.empty());
    for (Flow* f : fixing_) {
      fix(f, bottleneck_share);
      f->slack_above = highest_share;
    }
  }

  // Cache each link's load: every flow adds its rate once per distinct
  // link on its path, in FlowId order. The same pass finds the earliest
  // completion; a minimum of non-NaN doubles does not depend on order.
  double earliest = kInf;
  for (const auto& [id, f] : flows_) {
    for (auto l = f.path.begin(); l != f.path.end(); ++l) {
      if (std::find(f.path.begin(), l, *l) == l) links_[*l].load += f.rate;
    }
    earliest = std::min(earliest, f.time_left());
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
  settle();
  std::vector<std::pair<sim::Callback, sim::Time>> done;
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

}  // namespace net
