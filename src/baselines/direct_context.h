// Host-RDMA and SR-IOV baselines: the application drives one device
// function through the unmodified kernel driver (Fig. 7).
//
// Host-RDMA is a bare-metal process on the PF, the performance upper bound
// every figure compares against. Under SR-IOV the VF is passed straight
// into a VM, so *both* paths bypass the host: control verbs pay the VF's
// slower on-NIC processing (Fig. 15) and every DMA pays the IOMMU
// (Fig. 21); network virtualization is the NIC's VXLAN offload with its
// finite tunnel-table cache (§1). Limited to 8 VFs by non-ARI PCIe
// (Table 5).
#pragma once

#include "hyp/host.h"
#include "hyp/instance.h"
#include "overlay/oob.h"
#include "verbs/api.h"
#include "verbs/kernel_driver.h"

namespace baselines {

class DirectContext : public verbs::Context {
 public:
  // Host-RDMA: a bare-metal process on the PF.
  DirectContext(hyp::Host& host, rnic::RnicDevice& device,
                overlay::OobEndpoint& oob, verbs::DriverCosts costs = {});
  // SR-IOV: a VM with `vf` passed through.
  DirectContext(hyp::Vm& vm, rnic::RnicDevice& device, rnic::FnId vf,
                overlay::OobEndpoint& oob, verbs::DriverCosts costs = {});

  std::string name() const override {
    return vm_ != nullptr ? "SR-IOV" : "Host-RDMA";
  }
  sim::EventLoop& loop() override { return host_.loop(); }

  mem::Addr alloc_buffer(std::uint64_t len) override {
    return vm_ != nullptr ? vm_->alloc_guest_buffer(len)
                          : host_.alloc_host_buffer(len);
  }
  void write_buffer(mem::Addr addr,
                    std::span<const std::uint8_t> in) override {
    space_.write(addr, in);
  }
  void read_buffer(mem::Addr addr, std::span<std::uint8_t> out) override {
    space_.read(addr, out);
  }

  sim::Task<rnic::Expected<rnic::PdId>> alloc_pd() override;
  sim::Task<rnic::Expected<verbs::MrHandle>> reg_mr(
      rnic::PdId pd, mem::Addr addr, std::uint64_t len,
      std::uint32_t access) override;
  sim::Task<rnic::Expected<rnic::Cqn>> create_cq(int cqe) override;
  sim::Task<rnic::Expected<rnic::Qpn>> create_qp(
      const rnic::QpInitAttr& attr) override;
  sim::Task<rnic::Status> modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                                    std::uint32_t mask) override;
  sim::Task<rnic::Expected<net::Gid>> query_gid() override;
  sim::Task<rnic::Expected<rnic::QpAttr>> query_qp(rnic::Qpn qpn) override;
  sim::Task<rnic::Status> destroy_qp(rnic::Qpn qpn) override;
  sim::Task<rnic::Status> destroy_cq(rnic::Cqn cq) override;
  sim::Task<rnic::Status> dereg_mr(const verbs::MrHandle& mr) override;
  sim::Task<rnic::Status> dealloc_pd(rnic::PdId pd) override;

  [[nodiscard]] rnic::Status post_send(rnic::Qpn qpn,
                                       const rnic::SendWr& wr) override;
  [[nodiscard]] rnic::Status post_recv(rnic::Qpn qpn,
                                       const rnic::RecvWr& wr) override {
    return device_.post_recv(qpn, wr);
  }
  int poll_cq(rnic::Cqn cq, int max_entries,
              rnic::Completion* out) override {
    return device_.poll_cq(cq, max_entries, out);
  }
  sim::Future<bool> cq_nonempty(rnic::Cqn cq) override {
    return device_.cq_nonempty(cq);
  }
  sim::Future<bool> next_rx_event(rnic::Qpn qpn) override {
    return device_.next_rx_event(qpn);
  }

  overlay::OobEndpoint& oob() override { return oob_; }
  sim::Time scale_compute(sim::Time host_time) const override {
    return vm_ != nullptr ? vm_->compute(host_time) : host_time;
  }

 private:
  hyp::Host& host_;
  hyp::Vm* vm_ = nullptr;      // null on bare metal
  mem::AddressSpace& space_;   // host VA, or guest VA under SR-IOV
  rnic::RnicDevice& device_;
  overlay::OobEndpoint& oob_;
  verbs::KernelDriver driver_;  // on the host, or inside the guest
  mem::Addr doorbell_gva_ = 0;  // SR-IOV: the doorbell BAR in guest VA
};

}  // namespace baselines
