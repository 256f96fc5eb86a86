// Testbed factory: assembles the paper's evaluation setup (Fig. 7) for any
// of the four candidates and hands out candidate-agnostic verbs::Context
// handles, so every application and benchmark runs unmodified on all four.
//
//   fabric::TestbedConfig cfg;
//   cfg.candidate = fabric::Candidate::kMasq;
//   fabric::Testbed bed(loop, cfg);
//   bed.add_instances(2);
//   verbs::Context& client = bed.ctx(0);   // on host 0
//   verbs::Context& server = bed.ctx(1);   // on host 1
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/direct_context.h"
#include "baselines/freeflow.h"
#include "check/invariant.h"
#include "fabric/calibration.h"
#include "hyp/host.h"
#include "hyp/instance.h"
#include "masq/backend.h"
#include "masq/frontend.h"
#include "masq/migrate.h"
#include "net/fluid.h"
#include "net/topology.h"
#include "overlay/oob.h"
#include "rnic/device.h"
#include "sdn/controller.h"
#include "sim/event_loop.h"
#include "sim/faults.h"
#include "sim/flat_map.h"
#include "verbs/api.h"

namespace fabric {

enum class Candidate { kHostRdma, kSriov, kFreeFlow, kMasq };

const char* to_string(Candidate c);
inline constexpr Candidate kAllCandidates[] = {
    Candidate::kHostRdma, Candidate::kFreeFlow, Candidate::kSriov,
    Candidate::kMasq};

// The tenant an instance joins when add_instance() names none.
inline constexpr std::uint32_t kDefaultVni = 100;

struct TestbedConfig {
  Candidate candidate = Candidate::kMasq;
  int num_hosts = 2;
  // Fig. 9: map MasQ tenants to the PF instead of VFs.
  bool masq_use_pf = false;
  // Ablation: RConnrename queries the controller on every connection.
  bool masq_disable_cache = false;
  Calibration cal;
  // Chaos testing: when any fault probability or SDN outage window is set
  // (faults.any()), the testbed builds a seeded FaultPlane and wires it
  // into every MasQ backend, each frontend's virtqueue, and the SDN
  // controller's reachability. Fault-free configs build no plane at all,
  // so default runs keep a bit-identical event stream.
  sim::FaultConfig faults;
  std::uint64_t fault_seed = 1;
  // Control-path retry policy shared by every MasQ backend/frontend pair.
  masq::RetryPolicy retry;
  // Warm-path connection pool (DESIGN.md §14). Disabled by default: no
  // pool is constructed and the cold path stays bit-identical.
  masq::WarmPoolConfig masq_warm;
  // Runtime invariant auditing (src/check). Defaults to the MASQ_CHECK
  // environment switch, so `MASQ_CHECK=1 ctest` audits every testbed-based
  // test without code changes. When on, the MasQ candidate registers the
  // qp-state / vq-ring / cache / conntrack auditors and the event loop
  // audits every `check_audit_every` events; violations throw out of
  // EventLoop::run(). When off, no registry exists and the loop pays one
  // branch per event.
  bool check_invariants = check::env_enabled();
  std::uint64_t check_audit_every = 512;
  // Leaf–spine Clos fabric between the hosts (DESIGN.md §17). Each host's
  // NIC links are its links to its leaf, so the default single leaf is the
  // paper's direct wire. With more leaves, every inter-leaf frame also
  // crosses the leaf->spine->leaf hops ECMP picks over its QPN 5-tuple.
  net::FabricConfig topology;
};

class Testbed : public rnic::FabricRouter {
 public:
  Testbed(sim::EventLoop& loop, TestbedConfig config);
  ~Testbed() override;

  // Adds one instance (VM / container / host process, by candidate) on
  // host `i % num_hosts`, joined to tenant `vni`. Returns the instance
  // index, or nullopt when the platform cannot host it (out of VFs for
  // SR-IOV, out of DRAM for MasQ — the Table 5 limiters).
  std::optional<std::size_t> add_instance(
      std::optional<std::uint32_t> vni = std::nullopt);
  // Adds n instances; throws if any fails (benchmark convenience).
  void add_instances(int n);

  std::size_t size() const { return instances_.size(); }
  verbs::Context& ctx(std::size_t i) { return *instances_.at(i)->ctx; }
  net::Ipv4Addr instance_vip(std::size_t i) const {
    return instances_.at(i)->vip;
  }
  std::uint32_t instance_vni(std::size_t i) const {
    return instances_.at(i)->vni;
  }
  std::size_t instance_host(std::size_t i) const {
    return instances_.at(i)->host_idx;
  }

  sim::EventLoop& loop() { return loop_; }
  net::FluidNet& fluid() { return fluid_; }
  overlay::VirtualNetwork& vnet() { return vnet_; }
  sdn::Controller& controller() { return controller_; }
  // Null unless the config enabled fault injection (config.faults.any()).
  sim::FaultPlane* faults() { return fault_plane_.get(); }
  // Null unless the config enabled invariant auditing (check_invariants).
  // Tests use it to run explicit audit points (e.g. "quiesce" after a
  // drained run) or to inspect recorded violations under kRecord policy.
  check::InvariantRegistry* checks() { return checks_.get(); }
  hyp::Host& host(std::size_t i) { return *hosts_.at(i); }
  rnic::RnicDevice& device(std::size_t host_idx) {
    return hosts_.at(host_idx)->rnic(0);
  }
  std::size_t num_hosts() const { return hosts_.size(); }
  const TestbedConfig& config() const { return config_; }

  // MasQ-only handles (throws for other candidates).
  masq::Backend& masq_backend(std::size_t host_idx);
  baselines::FfRouter& ffr(std::size_t host_idx);

  // Tenant policy shortcuts.
  overlay::SecurityPolicy& policy(std::uint32_t vni) {
    return vnet_.policy(vni);
  }
  // Installs allow-all firewall + security-group rules for a tenant.
  void allow_all(std::uint32_t vni);

  // App-assisted live migration (§5, MasQ only): moves instance `i` to
  // `target_host`, preserving its tenant identity (vIP, MAC, VNI). The
  // caller must have torn down the instance's RDMA resources first (the
  // application falls back to TCP during the blackout). vBond re-registers
  // the unchanged vGID against the new host's physical GID and the
  // controller pushes the update to every host cache. ctx(i) is replaced.
  [[nodiscard]] rnic::Status migrate_instance(std::size_t i,
                                              std::size_t target_host);

  // Transparent live migration (DESIGN.md §15, MasQ only): moves instance
  // `i` — guest RAM, RNIC objects, RConntrack rows, virtio session — to
  // `target_host` while established connections survive under their
  // original QPNs. The application keeps its verbs::Context& and observes
  // only added latency; peers observe the same. `corrupt` is the
  // auditor-test backdoor: it mutates the QP snapshots in flight so the
  // no-WQE-lost digest compare must fire.
  enum class MigrationCorruption { kNone, kDropWqe, kDuplicateWqe };
  sim::Task<rnic::Status> migrate_vm(
      std::size_t i, std::size_t target_host,
      masq::MigrationCosts costs = {},
      MigrationCorruption corrupt = MigrationCorruption::kNone);
  // Report of the most recent migrate_vm run (value-initialized if none).
  const masq::MigrationReport& last_migration_report() const {
    return last_migration_report_;
  }

  // rnic::FabricRouter: route underlay IPs to devices.
  rnic::RnicDevice* device_by_ip(net::Ipv4Addr underlay_ip) override;
  // rnic::FabricRouter: leaf/spine hops between two hosts (empty inside
  // one leaf).
  std::vector<net::LinkId> fabric_path(net::Ipv4Addr src_ip,
                                       net::Ipv4Addr dst_ip, rnic::Qpn src_qpn,
                                       rnic::Qpn dst_qpn) override;
  net::FabricTopology& topology() { return *fabric_; }

 private:
  struct Instance {
    std::size_t host_idx = 0;
    std::uint32_t vni = 0;
    net::Ipv4Addr vip;
    std::unique_ptr<hyp::Vm> vm;
    std::unique_ptr<hyp::Container> container;
    overlay::OobEndpoint* oob = nullptr;
    std::unique_ptr<verbs::Context> ctx;
  };

  net::Ipv4Addr next_vip(std::uint32_t vni);
  // Programs SR-IOV tunnel tables for a newly added instance.
  void program_tunnels_for(const Instance& inst);

  sim::EventLoop& loop_;
  TestbedConfig config_;
  net::FluidNet fluid_;
  overlay::VirtualNetwork vnet_;
  sdn::Controller controller_;
  // Declared before hosts/backends: they hold raw pointers into the plane
  // and must be destroyed first.
  std::unique_ptr<sim::FaultPlane> fault_plane_;
  // Auditors capture references into hosts/backends/instances below; the
  // destructor detaches + runs the final quiesce audit before any of them
  // die, and declaration order makes the registry outlive its subjects.
  std::unique_ptr<check::InvariantRegistry> checks_;
  std::vector<std::unique_ptr<hyp::Host>> hosts_;
  std::vector<std::unique_ptr<masq::Backend>> backends_;    // per host (MasQ)
  std::vector<std::unique_ptr<baselines::FfRouter>> ffrs_;  // per host (FF)
  std::vector<std::unique_ptr<Instance>> instances_;
  sim::FlatMap<net::Ipv4Addr, rnic::RnicDevice*> by_underlay_ip_;
  sim::FlatMap<net::Ipv4Addr, std::size_t> host_of_ip_;
  // Built after every NIC link, so the NIC links keep the low LinkIds.
  std::unique_ptr<net::FabricTopology> fabric_;
  sim::FlatMap<std::uint32_t, std::uint32_t> vip_counter_;  // per vni
  std::vector<int> vf_in_use_;  // per host (SR-IOV assignment)
  masq::MigrationReport last_migration_report_;
};

}  // namespace fabric
