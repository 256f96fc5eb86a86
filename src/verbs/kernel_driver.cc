#include "verbs/kernel_driver.h"

namespace verbs {

KernelDriver::KernelDriver(sim::EventLoop& loop, rnic::RnicDevice& device,
                           rnic::FnId fn, DriverCosts costs)
    : loop_(loop), device_(device), fn_(fn), costs_(costs) {}

sim::Task<void> KernelDriver::charge(const char* verb, sim::Time t) {
  if (device_.fn(fn_).is_vf) {
    t = static_cast<sim::Time>(static_cast<double>(t) * costs_.vf_factor);
  }
  if (profile_ != nullptr) profile_->add(verb, layer_, t);
  co_await sim::delay(loop_, t);
}

sim::Task<rnic::Expected<rnic::PdId>> KernelDriver::alloc_pd() {
  co_await charge("alloc_pd", costs_.alloc_pd);
  co_return device_.alloc_pd(fn_);
}

sim::Task<rnic::Expected<MrHandle>> KernelDriver::reg_mr(
    rnic::PdId pd, mem::AddressSpace& space, mem::Addr addr, std::uint64_t len,
    std::uint32_t access) {
  const std::uint64_t pages =
      (mem::page_ceil(addr + len) - mem::page_floor(addr)) / mem::kPageSize;
  co_await charge("reg_mr",
                  costs_.reg_mr_base +
                      costs_.reg_mr_per_page * static_cast<sim::Time>(pages));
  std::vector<mem::Segment> mtt;
  try {
    // Pin at every translation level, then walk the chain for the MTT.
    space.pin_chain(addr, len);
    mtt = space.resolve_hpa_range(addr, len);
  } catch (const std::exception&) {
    co_return rnic::Expected<MrHandle>::error(rnic::Status::kInvalidArgument);
  }
  auto mr = device_.create_mr(fn_, pd, addr, len, access, std::move(mtt));
  if (!mr.ok()) {
    space.unpin_chain(addr, len);
    co_return rnic::Expected<MrHandle>::error(mr.status);
  }
  mrs_[mr.value.lkey] = MrRecord{&space, addr, len};
  co_return rnic::Expected<MrHandle>::of(
      MrHandle{mr.value.lkey, mr.value.rkey, addr, len});
}

rnic::Status KernelDriver::adopt_mr(const rnic::RnicDevice::MrSnapshot& snap,
                                    mem::AddressSpace& space) {
  std::vector<mem::Segment> mtt;
  try {
    space.pin_chain(snap.va, snap.len);
    mtt = space.resolve_hpa_range(snap.va, snap.len);
  } catch (const std::exception&) {
    return rnic::Status::kInvalidArgument;
  }
  // The MR is re-homed on this driver's function: the destination VF need
  // not have the same id the source VF had.
  rnic::RnicDevice::MrSnapshot homed = snap;
  homed.fn = fn_;
  const rnic::Status st = device_.restore_mr(homed, std::move(mtt));
  if (st != rnic::Status::kOk) {
    space.unpin_chain(snap.va, snap.len);
    return st;
  }
  mrs_[snap.lkey] = MrRecord{&space, snap.va, snap.len};
  return rnic::Status::kOk;
}

sim::Task<rnic::Expected<rnic::Cqn>> KernelDriver::create_cq(int cqe) {
  co_await charge("create_cq",
                  costs_.create_cq_base +
                      costs_.create_cq_per_cqe * static_cast<sim::Time>(cqe));
  co_return device_.create_cq(fn_, cqe);
}

sim::Task<rnic::Expected<rnic::Qpn>> KernelDriver::create_qp(
    rnic::QpInitAttr attr) {
  co_await charge("create_qp", costs_.create_qp);
  co_return device_.create_qp(fn_, attr);
}

sim::Task<rnic::Status> KernelDriver::modify_qp(rnic::Qpn qpn,
                                                const rnic::QpAttr& attr,
                                                std::uint32_t mask) {
  const char* verb = modify_qp_verb(attr, mask);
  sim::Time cost = 0;
  if (mask & rnic::kAttrState) {
    switch (attr.state) {
      case rnic::QpState::kInit:
        cost = costs_.modify_init;
        break;
      case rnic::QpState::kRts:
        cost = costs_.modify_rts;
        break;
      case rnic::QpState::kError:
        // Fig. 18: kernel routine + RNIC processing (drain-dependent).
        cost = costs_.modify_error_kernel +
               device_.qp_error_processing_time(qpn);
        break;
      default:  // RTR, and any other state at RTR's cost
        cost = costs_.modify_rtr;
        break;
    }
  }
  // The ERROR path's device share is already absolute (not VF-scaled by
  // charge(), which would double-count): charge it directly.
  if ((mask & rnic::kAttrState) && attr.state == rnic::QpState::kError) {
    if (profile_ != nullptr) profile_->add(verb, layer_, cost);
    co_await sim::delay(loop_, cost);
  } else {
    co_await charge(verb, cost);
  }
  co_return device_.modify_qp(qpn, attr, mask);
}

sim::Task<rnic::Expected<net::Gid>> KernelDriver::query_gid() {
  co_await charge("query_gid", costs_.query_gid);
  co_return rnic::Expected<net::Gid>::of(device_.gid(fn_));
}

sim::Task<rnic::Status> KernelDriver::destroy_qp(rnic::Qpn qpn) {
  co_await charge("destroy_qp", costs_.destroy_qp);
  co_return device_.destroy_qp(qpn);
}

sim::Task<rnic::Status> KernelDriver::destroy_cq(rnic::Cqn cq) {
  co_await charge("destroy_cq", costs_.destroy_cq);
  co_return device_.destroy_cq(cq);
}

void KernelDriver::forget_mr(rnic::Key lkey) {
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) return;
  it->second.space->unpin_chain(it->second.addr, it->second.len);
  mrs_.erase(it);
}

sim::Task<rnic::Status> KernelDriver::dereg_mr(rnic::Key lkey) {
  co_await charge("dereg_mr", costs_.dereg_mr);
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) co_return rnic::Status::kNotFound;
  const rnic::Status st = device_.destroy_mr(lkey);
  if (st == rnic::Status::kOk) {
    it->second.space->unpin_chain(it->second.addr, it->second.len);
    mrs_.erase(it);
  }
  co_return st;
}

sim::Task<rnic::Status> KernelDriver::dealloc_pd(rnic::PdId pd) {
  co_await charge("dealloc_pd", costs_.dealloc_pd);
  co_return device_.dealloc_pd(pd);
}

}  // namespace verbs
