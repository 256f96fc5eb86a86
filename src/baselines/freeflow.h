// FreeFlow baseline (NSDI '19): paravirtualized RDMA for containers.
//
// The FreeFlow router (FFR) is a per-host user-space process that owns the
// real verbs objects; containers talk to it through shared memory. Unlike
// MasQ, *every data-path operation* is forwarded: post_send, post_recv and
// completion harvesting all pass through an FFR forwarding core. That core
// is a serial resource — the reason FreeFlow's small-message throughput
// and KVS ops/s flatline around 1 Mops (Fig. 10, Fig. 21) and its data
// verbs cost ~5x more than everyone else's (Fig. 8b).
#pragma once

#include <deque>
#include <memory>

#include "hyp/instance.h"
#include "overlay/oob.h"
#include "sdn/controller.h"
#include "sim/service_queue.h"
#include "sim/flat_map.h"
#include "verbs/api.h"
#include "verbs/kernel_driver.h"

namespace baselines {

struct FfCosts {
  // One FFR forwarding-core visit per data-path op: `data_op` is the
  // serial-core occupancy (bounds throughput — Fig. 21's ~1 Mops KVS
  // ceiling), `data_op_latency` the additional shared-memory round-trip
  // seen by the caller (with occupancy it yields the ~0.9 us per-verb call
  // time of Fig. 8b).
  sim::Time data_op = sim::nanoseconds(350);
  sim::Time data_op_latency = sim::nanoseconds(300);
  // Control verbs rebuild shadow resources in FFR shared memory — large
  // extra allocation/mapping work. Anchor: Fig. 15 (3.9 ms connection
  // setup; reg_mr/create_cq/create_qp dominate the breakdown).
  sim::Time reg_mr_extra = sim::microseconds(540);
  sim::Time create_cq_extra = sim::microseconds(1060);
  sim::Time create_qp_extra = sim::microseconds(1160);
  sim::Time modify_extra = sim::microseconds(170);
};

// Per-host FreeFlow router.
class FfRouter {
 public:
  FfRouter(sim::EventLoop& loop, rnic::RnicDevice& device,
           sdn::Controller& controller, FfCosts costs = {},
           verbs::DriverCosts driver_costs = {});

  sim::EventLoop& loop() { return loop_; }
  rnic::RnicDevice& device() { return device_; }
  verbs::KernelDriver& driver() { return driver_; }
  sdn::MappingCache& cache() { return cache_; }
  const FfCosts& costs() const { return costs_; }

  // One visit to the forwarding core (FIFO serial resource).
  sim::Future<bool> forward() { return core_.submit(costs_.data_op); }
  std::uint64_t ops_forwarded() const { return core_.items_served(); }

 private:
  sim::EventLoop& loop_;
  rnic::RnicDevice& device_;
  verbs::KernelDriver driver_;  // FFR drives the PF on behalf of containers
  sdn::MappingCache cache_;     // FreeFlow's overlay->underlay map
  FfCosts costs_;
  sim::ServiceQueue core_;      // the forwarding core
};

class FreeflowContext : public verbs::Context {
 public:
  FreeflowContext(hyp::Container& container, FfRouter& ffr,
                  overlay::OobEndpoint& oob);

  std::string name() const override { return "FreeFlow"; }
  sim::EventLoop& loop() override { return ffr_.loop(); }

  mem::Addr alloc_buffer(std::uint64_t len) override {
    return container_.alloc_buffer(len);
  }
  void write_buffer(mem::Addr addr,
                    std::span<const std::uint8_t> in) override {
    container_.va().write(addr, in);
  }
  void read_buffer(mem::Addr addr, std::span<std::uint8_t> out) override {
    container_.va().read(addr, out);
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

  // Data-path verbs are forwarded to the FFR (asynchronously from the
  // application's point of view; errors surface as CQEs).
  [[nodiscard]] rnic::Status post_send(rnic::Qpn qpn,
                                       const rnic::SendWr& wr) override;
  [[nodiscard]] rnic::Status post_recv(rnic::Qpn qpn,
                                       const rnic::RecvWr& wr) override;
  // The application polls a *shadow* CQ that the FFR fills after its own
  // forwarding delay.
  int poll_cq(rnic::Cqn cq, int max_entries,
              rnic::Completion* out) override;
  sim::Future<bool> cq_nonempty(rnic::Cqn cq) override;
  sim::Future<bool> next_rx_event(rnic::Qpn qpn) override {
    return ffr_.device().next_rx_event(qpn);
  }
  sim::Time data_verb_call_time(verbs::DataVerb v) const override;

  overlay::OobEndpoint& oob() override { return oob_; }
  sim::Time scale_compute(sim::Time host_time) const override {
    return container_.compute(host_time);
  }
  // The FFR busy-polls its forwarding core whenever data-path operations
  // flow; amortized over a shuffle-heavy stage it eats most of one core.
  double virtualization_cpu_cores() const override { return 0.75; }

 private:
  struct ShadowCq {
    std::deque<rnic::Completion> ring;
    std::vector<sim::Promise<bool>> waiters;
    bool pumping = false;
  };

  // The router's driver, its profile pointed at this container. The
  // driver files a verb's time before the verb first suspends, so each
  // verb lands in the profile of the container that called it.
  verbs::KernelDriver& driver() {
    ffr_.driver().set_profile(&profile_, verbs::Layer::kRdmaDriver);
    return ffr_.driver();
  }

  sim::Task<void> forward_send(rnic::Qpn qpn, rnic::SendWr wr);
  sim::Task<void> forward_recv(rnic::Qpn qpn, rnic::RecvWr wr);
  // Moves CQEs from the device CQ to the shadow CQ, one FFR visit each.
  sim::Task<void> pump(rnic::Cqn cq);

  hyp::Container& container_;
  FfRouter& ffr_;
  overlay::OobEndpoint& oob_;
  sim::FlatMap<rnic::Cqn, std::unique_ptr<ShadowCq>> shadows_;
  // Overlay-addressed view of each QPC (FFR renames before the device).
  sim::FlatMap<rnic::Qpn, rnic::QpAttr> tenant_view_;
};

}  // namespace baselines
