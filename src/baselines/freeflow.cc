#include "baselines/freeflow.h"

namespace baselines {

using verbs::lib_share;

FfRouter::FfRouter(sim::EventLoop& loop, rnic::RnicDevice& device,
                   sdn::Controller& controller, FfCosts costs,
                   verbs::DriverCosts driver_costs)
    : loop_(loop),
      device_(device),
      driver_(loop, device, rnic::kPf, driver_costs),
      cache_(loop, controller),
      costs_(costs),
      core_(loop) {}

FreeflowContext::FreeflowContext(hyp::Container& container, FfRouter& ffr,
                                 overlay::OobEndpoint& oob)
    : container_(container), ffr_(ffr), oob_(oob) {}

sim::Task<rnic::Expected<rnic::PdId>> FreeflowContext::alloc_pd() {
  co_await lib_charge("alloc_pd", lib_share(ffr_.driver().costs().alloc_pd));
  co_return co_await driver().alloc_pd();
}

sim::Task<rnic::Expected<verbs::MrHandle>> FreeflowContext::reg_mr(
    rnic::PdId pd, mem::Addr addr, std::uint64_t len, std::uint32_t access) {
  co_await lib_charge("reg_mr",
                      lib_share(ffr_.driver().costs().reg_mr_base));
  // FFR allocates matching shared-memory regions and maps them into the
  // container — the dominant extra cost of FreeFlow's control path.
  co_await sim::delay(loop(), ffr_.costs().reg_mr_extra);
  co_return co_await driver().reg_mr(pd, container_.va(), addr, len,
                                          access);
}

sim::Task<rnic::Expected<rnic::Cqn>> FreeflowContext::create_cq(int cqe) {
  co_await lib_charge("create_cq",
                      lib_share(ffr_.driver().costs().create_cq_base));
  co_await sim::delay(loop(), ffr_.costs().create_cq_extra);
  auto cq = co_await driver().create_cq(cqe);
  if (cq.ok()) {
    shadows_[cq.value] = std::make_unique<ShadowCq>();
  }
  co_return cq;
}

sim::Task<rnic::Expected<rnic::Qpn>> FreeflowContext::create_qp(
    const rnic::QpInitAttr& attr) {
  co_await lib_charge("create_qp",
                      lib_share(ffr_.driver().costs().create_qp));
  co_await sim::delay(loop(), ffr_.costs().create_qp_extra);
  co_return co_await driver().create_qp(attr);
}

sim::Task<rnic::Status> FreeflowContext::modify_qp(rnic::Qpn qpn,
                                                   const rnic::QpAttr& attr,
                                                   std::uint32_t mask) {
  co_await lib_charge(verbs::modify_qp_verb(attr, mask),
                      lib_share(ffr_.driver().costs().modify_rtr));
  co_await sim::delay(loop(), ffr_.costs().modify_extra);
  rnic::QpAttr renamed = attr;
  if ((mask & rnic::kAttrDestGid) != 0 && !attr.dest_gid.is_zero()) {
    // FFR translates the container-overlay GID to the host's physical GID
    // using its own mapping service.
    const auto res = co_await ffr_.cache().resolve_ex(
        container_.config().vni, attr.dest_gid);
    if (!res.pgid) co_return rnic::Status::kNotFound;
    renamed.dest_gid = *res.pgid;
  }
  const rnic::Status st = co_await driver().modify_qp(qpn, renamed,
                                                           mask);
  if (st == rnic::Status::kOk) {
    rnic::QpAttr& view = tenant_view_[qpn];
    if (mask & rnic::kAttrState) view.state = attr.state;
    if (mask & rnic::kAttrDestGid) view.dest_gid = attr.dest_gid;
    if (mask & rnic::kAttrDestQpn) view.dest_qpn = attr.dest_qpn;
    if (mask & rnic::kAttrPathMtu) view.path_mtu = attr.path_mtu;
    if (mask & rnic::kAttrQkey) view.qkey = attr.qkey;
  }
  co_return st;
}

sim::Task<rnic::Expected<rnic::QpAttr>> FreeflowContext::query_qp(
    rnic::Qpn qpn) {
  co_await lib_charge("query_qp",
                      lib_share(ffr_.driver().costs().query_gid));
  co_await ffr_.forward();
  if (!ffr_.device().qp_exists(qpn)) {
    co_return rnic::Expected<rnic::QpAttr>::error(rnic::Status::kNotFound);
  }
  auto it = tenant_view_.find(qpn);
  rnic::QpAttr view = it != tenant_view_.end() ? it->second : rnic::QpAttr{};
  view.state = ffr_.device().qp_state(qpn);
  co_return rnic::Expected<rnic::QpAttr>::of(view);
}

sim::Task<rnic::Expected<net::Gid>> FreeflowContext::query_gid() {
  co_await lib_charge("query_gid",
                      lib_share(ffr_.driver().costs().query_gid));
  // The container sees its overlay (Weave) address as its GID.
  co_return rnic::Expected<net::Gid>::of(
      net::Gid::from_ipv4(container_.config().vip));
}

sim::Task<rnic::Status> FreeflowContext::destroy_qp(rnic::Qpn qpn) {
  co_await lib_charge("destroy_qp",
                      lib_share(ffr_.driver().costs().destroy_qp));
  co_return co_await driver().destroy_qp(qpn);
}

sim::Task<rnic::Status> FreeflowContext::destroy_cq(rnic::Cqn cq) {
  co_await lib_charge("destroy_cq",
                      lib_share(ffr_.driver().costs().destroy_cq));
  shadows_.erase(cq);
  co_return co_await driver().destroy_cq(cq);
}

sim::Task<rnic::Status> FreeflowContext::dereg_mr(const verbs::MrHandle& mr) {
  co_await lib_charge("dereg_mr", lib_share(ffr_.driver().costs().dereg_mr));
  co_return co_await driver().dereg_mr(mr.lkey);
}

sim::Task<rnic::Status> FreeflowContext::dealloc_pd(rnic::PdId pd) {
  co_await lib_charge("dealloc_pd",
                      lib_share(ffr_.driver().costs().dealloc_pd));
  co_return co_await driver().dealloc_pd(pd);
}

sim::Task<void> FreeflowContext::forward_send(rnic::Qpn qpn, rnic::SendWr wr) {
  co_await ffr_.forward();
  co_await sim::delay(loop(), ffr_.costs().data_op_latency);
  (void)ffr_.device().post_send(qpn, wr);
}

sim::Task<void> FreeflowContext::forward_recv(rnic::Qpn qpn, rnic::RecvWr wr) {
  co_await ffr_.forward();
  co_await sim::delay(loop(), ffr_.costs().data_op_latency);
  (void)ffr_.device().post_recv(qpn, wr);
}

rnic::Status FreeflowContext::post_send(rnic::Qpn qpn,
                                        const rnic::SendWr& wr) {
  loop().spawn(forward_send(qpn, wr));
  return rnic::Status::kOk;
}

rnic::Status FreeflowContext::post_recv(rnic::Qpn qpn,
                                        const rnic::RecvWr& wr) {
  loop().spawn(forward_recv(qpn, wr));
  return rnic::Status::kOk;
}

sim::Task<void> FreeflowContext::pump(rnic::Cqn cq) {
  auto it = shadows_.find(cq);
  if (it == shadows_.end()) co_return;
  ShadowCq* shadow = it->second.get();
  while (true) {
    rnic::Completion c;
    if (ffr_.device().poll_cq(cq, 1, &c) == 1) {
      co_await ffr_.forward();  // FFR relays the completion
      shadow->ring.push_back(c);
      for (auto& w : shadow->waiters) w.set_value(true);
      shadow->waiters.clear();
      continue;
    }
    if (!shadow->ring.empty() || shadow->waiters.empty()) {
      // Nothing pending and nobody waiting: stop pumping until the next
      // consumer shows up.
      shadow->pumping = false;
      co_return;
    }
    co_await ffr_.device().cq_nonempty(cq);
  }
}

int FreeflowContext::poll_cq(rnic::Cqn cq, int max_entries,
                             rnic::Completion* out) {
  auto it = shadows_.find(cq);
  if (it == shadows_.end()) return -1;
  ShadowCq* shadow = it->second.get();
  int n = 0;
  while (n < max_entries && !shadow->ring.empty()) {
    out[n++] = shadow->ring.front();
    shadow->ring.pop_front();
  }
  if (!shadow->pumping) {
    shadow->pumping = true;
    loop().spawn(pump(cq));
  }
  return n;
}

sim::Future<bool> FreeflowContext::cq_nonempty(rnic::Cqn cq) {
  auto it = shadows_.find(cq);
  if (it == shadows_.end()) throw std::out_of_range("no such shadow CQ");
  ShadowCq* shadow = it->second.get();
  sim::Promise<bool> p(loop());
  auto f = p.get_future();
  if (!shadow->ring.empty()) {
    p.set_value(true);
  } else {
    shadow->waiters.push_back(std::move(p));
    if (!shadow->pumping) {
      shadow->pumping = true;
      loop().spawn(pump(cq));
    }
  }
  return f;
}

sim::Time FreeflowContext::data_verb_call_time(verbs::DataVerb v) const {
  // Fig. 8b: all three data verbs pay the FFR forwarding cost.
  (void)v;
  return ffr_.costs().data_op + ffr_.costs().data_op_latency;
}

}  // namespace baselines
