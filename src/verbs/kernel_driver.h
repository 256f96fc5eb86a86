// The (unmodified) kernel RDMA driver of the HyV/MasQ architecture
// (Fig. 16a, "RDMA Driver" layer).
//
// Every candidate eventually funnels control verbs through one of these:
// Host-RDMA calls it on the host, SR-IOV runs one inside the guest against
// the passed-through VF, and MasQ's backend calls it on the host after
// RConnrename/RConntrack have had their say.
//
// Each operation suspends the caller for its calibrated cost (DriverCosts,
// VF-scaled), performs memory pinning/translation where the real driver
// would, and then does the device bookkeeping.
#pragma once

#include <string>

#include "mem/address_space.h"
#include "rnic/device.h"
#include "verbs/api.h"
#include "verbs/driver_costs.h"
#include "sim/flat_map.h"

namespace verbs {

class KernelDriver {
 public:
  // `fn` fixes which device function this driver instance drives (a PF for
  // the host, a specific VF for SR-IOV guests / MasQ tenants).
  KernelDriver(sim::EventLoop& loop, rnic::RnicDevice& device, rnic::FnId fn,
               DriverCosts costs = {});

  rnic::RnicDevice& device() { return device_; }
  rnic::FnId fn() const { return fn_; }
  const DriverCosts& costs() const { return costs_; }

  // Attaches an accounting sink: all charged time lands in
  // (profile, layer). May be null. Every verb files its time before it
  // first suspends, so a driver that serves several callers can be
  // pointed at the caller's profile just before each verb.
  void set_profile(LayerProfile* profile, Layer layer = Layer::kRdmaDriver) {
    profile_ = profile;
    layer_ = layer;
  }

  sim::Task<rnic::Expected<rnic::PdId>> alloc_pd();
  // Pins [addr, addr+len) down the whole chain of `space`, resolves the
  // MTT and registers it with the device (Appendix B.2).
  sim::Task<rnic::Expected<MrHandle>> reg_mr(rnic::PdId pd,
                                             mem::AddressSpace& space,
                                             mem::Addr addr, std::uint64_t len,
                                             std::uint32_t access);
  sim::Task<rnic::Expected<rnic::Cqn>> create_cq(int cqe);
  sim::Task<rnic::Expected<rnic::Qpn>> create_qp(rnic::QpInitAttr attr);
  sim::Task<rnic::Status> modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                                    std::uint32_t mask);
  sim::Task<rnic::Expected<net::Gid>> query_gid();
  // Live-migration restore: pins the snapshot's VA range down `space` (the
  // *destination* VM's chain), resolves a fresh MTT and re-creates the MR
  // on this driver's function under its original keys. Synchronous — the
  // migration atomic section cannot suspend; its time is charged in bulk
  // as migration downtime.
  [[nodiscard]] rnic::Status adopt_mr(const rnic::RnicDevice::MrSnapshot& snap,
                                      mem::AddressSpace& space);
  // Live-migration extract: the device half of the MR has already been
  // pulled off (extract_mr); drop this driver's pin on the *source*
  // translation chain so the source VM can be torn down. The destination
  // driver re-pins in adopt_mr. Synchronous, no verb cost.
  void forget_mr(rnic::Key lkey);

  sim::Task<rnic::Status> destroy_qp(rnic::Qpn qpn);
  sim::Task<rnic::Status> destroy_cq(rnic::Cqn cq);
  sim::Task<rnic::Status> dereg_mr(rnic::Key lkey);
  sim::Task<rnic::Status> dealloc_pd(rnic::PdId pd);

 private:
  // Charges `t` (VF-scaled) to the caller and the profile.
  sim::Task<void> charge(const char* verb, sim::Time t);

  struct MrRecord {
    mem::AddressSpace* space;
    mem::Addr addr;
    std::uint64_t len;
  };

  sim::EventLoop& loop_;
  rnic::RnicDevice& device_;
  rnic::FnId fn_;
  DriverCosts costs_;
  LayerProfile* profile_ = nullptr;
  Layer layer_ = Layer::kRdmaDriver;
  sim::FlatMap<rnic::Key, MrRecord> mrs_;  // for unpinning on dereg
};

}  // namespace verbs
