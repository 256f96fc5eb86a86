#include "baselines/direct_context.h"

namespace baselines {

using verbs::lib_share;

DirectContext::DirectContext(hyp::Host& host, rnic::RnicDevice& device,
                             overlay::OobEndpoint& oob,
                             verbs::DriverCosts costs)
    : host_(host), space_(host.hva()), device_(device), oob_(oob),
      driver_(host.loop(), device, rnic::kPf, costs) {
  driver_.set_profile(&profile_, verbs::Layer::kRdmaDriver);
}

DirectContext::DirectContext(hyp::Vm& vm, rnic::RnicDevice& device,
                             rnic::FnId vf, overlay::OobEndpoint& oob,
                             verbs::DriverCosts costs)
    : host_(vm.host()), vm_(&vm), space_(vm.gva()), device_(device),
      oob_(oob), driver_(vm.host().loop(), device, vf, costs) {
  driver_.set_profile(&profile_, verbs::Layer::kRdmaDriver);
  doorbell_gva_ = vm.map_mmio_into_guest(device.doorbell_bar(),
                                         64 * 1024 * 8);
}

sim::Task<rnic::Expected<rnic::PdId>> DirectContext::alloc_pd() {
  co_await lib_charge("alloc_pd", lib_share(driver_.costs().alloc_pd));
  co_return co_await driver_.alloc_pd();
}

sim::Task<rnic::Expected<verbs::MrHandle>> DirectContext::reg_mr(
    rnic::PdId pd, mem::Addr addr, std::uint64_t len, std::uint32_t access) {
  co_await lib_charge("reg_mr", lib_share(driver_.costs().reg_mr_base));
  // Under SR-IOV the guest driver pins GVA pages; the IOMMU (programmed
  // with the VM's GPA->HPA map) makes device DMA land in the right host
  // pages. The MTT resolution down the GVA chain models the combined
  // effect.
  co_return co_await driver_.reg_mr(pd, space_, addr, len, access);
}

sim::Task<rnic::Expected<rnic::Cqn>> DirectContext::create_cq(int cqe) {
  co_await lib_charge("create_cq", lib_share(driver_.costs().create_cq_base));
  co_return co_await driver_.create_cq(cqe);
}

sim::Task<rnic::Expected<rnic::Qpn>> DirectContext::create_qp(
    const rnic::QpInitAttr& attr) {
  co_await lib_charge("create_qp", lib_share(driver_.costs().create_qp));
  co_return co_await driver_.create_qp(attr);
}

sim::Task<rnic::Status> DirectContext::modify_qp(rnic::Qpn qpn,
                                                 const rnic::QpAttr& attr,
                                                 std::uint32_t mask) {
  co_await lib_charge(verbs::modify_qp_verb(attr, mask),
                      verbs::modify_qp_lib(attr, mask, driver_.costs()));
  // No renaming: the QPC keeps the peer's address as given. Under SR-IOV
  // that is its *virtual* GID, and the NIC's VXLAN offload consults its
  // tunnel table per packet.
  co_return co_await driver_.modify_qp(qpn, attr, mask);
}

sim::Task<rnic::Expected<net::Gid>> DirectContext::query_gid() {
  co_await lib_charge("query_gid", lib_share(driver_.costs().query_gid));
  co_return co_await driver_.query_gid();  // the function's own GID
}

sim::Task<rnic::Expected<rnic::QpAttr>> DirectContext::query_qp(
    rnic::Qpn qpn) {
  // Bare-metal / passthrough: the application's view IS the hardware QPC.
  co_await lib_charge("query_qp", lib_share(driver_.costs().query_gid));
  if (!device_.qp_exists(qpn)) {
    co_return rnic::Expected<rnic::QpAttr>::error(rnic::Status::kNotFound);
  }
  co_return rnic::Expected<rnic::QpAttr>::of(device_.qp_hw_attr(qpn));
}

sim::Task<rnic::Status> DirectContext::destroy_qp(rnic::Qpn qpn) {
  co_await lib_charge("destroy_qp", lib_share(driver_.costs().destroy_qp));
  co_return co_await driver_.destroy_qp(qpn);
}

sim::Task<rnic::Status> DirectContext::destroy_cq(rnic::Cqn cq) {
  co_await lib_charge("destroy_cq", lib_share(driver_.costs().destroy_cq));
  co_return co_await driver_.destroy_cq(cq);
}

sim::Task<rnic::Status> DirectContext::dereg_mr(const verbs::MrHandle& mr) {
  co_await lib_charge("dereg_mr", lib_share(driver_.costs().dereg_mr));
  co_return co_await driver_.dereg_mr(mr.lkey);
}

sim::Task<rnic::Status> DirectContext::dealloc_pd(rnic::PdId pd) {
  co_await lib_charge("dealloc_pd", lib_share(driver_.costs().dealloc_pd));
  co_return co_await driver_.dealloc_pd(pd);
}

rnic::Status DirectContext::post_send(rnic::Qpn qpn, const rnic::SendWr& wr) {
  // Bare metal rings the doorbell inside the call; a VM rings it through
  // the BAR mapped into its guest address space.
  if (vm_ == nullptr) return device_.post_send(qpn, wr);
  const rnic::Status st = device_.post_send(qpn, wr, /*ring_doorbell=*/false);
  if (st == rnic::Status::kOk) {
    space_.write_u64(doorbell_gva_ + device_.doorbell_offset(qpn), 1);
  }
  return st;
}

}  // namespace baselines
