#include "fabric/testbed.h"

#include <cstdio>
#include <new>

#include "check/auditors.h"

namespace fabric {

const char* to_string(Candidate c) {
  switch (c) {
    case Candidate::kHostRdma: return "Host-RDMA";
    case Candidate::kSriov: return "SR-IOV";
    case Candidate::kFreeFlow: return "FreeFlow";
    case Candidate::kMasq: return "MasQ";
  }
  return "?";
}

Testbed::Testbed(sim::EventLoop& loop, TestbedConfig config)
    : loop_(loop),
      config_(std::move(config)),
      fluid_(loop),
      vnet_(loop, config_.cal.oob_oneway),
      controller_(loop, config_.cal.controller_rtt) {
  if (config_.faults.any()) {
    fault_plane_ = std::make_unique<sim::FaultPlane>(loop_, config_.faults,
                                                     config_.fault_seed);
    // SDN outage windows flip the controller's reachability; queries made
    // while down return "unreachable" after the detection timeout and the
    // host caches serve degraded (stale-but-bounded) mappings.
    fault_plane_->arm(
        [this](bool down) { controller_.set_reachable(!down); });
  }
  for (int h = 0; h < config_.num_hosts; ++h) {
    auto host = std::make_unique<hyp::Host>(
        loop_, fluid_, "server-" + std::to_string(h),
        config_.cal.host_dram_bytes);
    rnic::DeviceConfig dc;
    dc.name = "cx3-" + std::to_string(h);
    dc.ip = net::Ipv4Addr::from_octets(10, 0, 0,
                                       static_cast<std::uint8_t>(h + 1));
    dc.mac = net::MacAddr::from_u64(0x020000000000ull + h + 1);
    dc.num_vfs = config_.cal.num_vfs;
    dc.link_gbps = config_.cal.link_gbps;
    dc.link_prop_oneway = config_.cal.link_prop_oneway;
    dc.iommu = config_.candidate == Candidate::kSriov;  // VT-d passthrough
    // Disjoint per-host resource-ID spaces: a live-migrated QP keeps its
    // QPN on the destination host with no possibility of collision.
    dc.id_space = static_cast<std::uint32_t>(h);
    dc.costs = config_.cal.data_costs;
    rnic::RnicDevice& dev = host->add_rnic(dc);
    dev.attach(this);
    by_underlay_ip_[dc.ip] = &dev;
    host_of_ip_[dc.ip] = static_cast<std::size_t>(h);

    if (config_.candidate == Candidate::kMasq) {
      masq::BackendConfig bc;
      bc.map_tenants_to_pf = config_.masq_use_pf;
      bc.disable_mapping_cache = config_.masq_disable_cache;
      bc.command_overhead = config_.cal.masq_command_overhead;
      bc.driver_costs = config_.cal.driver_costs;
      bc.conntrack_costs = config_.cal.conntrack_costs;
      bc.mapping_cache_hit = config_.cal.mapping_cache_hit;
      bc.retry = config_.retry;
      bc.warm = config_.masq_warm;
      bc.faults = fault_plane_.get();
      backends_.push_back(std::make_unique<masq::Backend>(
          loop_, dev, controller_, vnet_, bc));
    } else if (config_.candidate == Candidate::kFreeFlow) {
      ffrs_.push_back(std::make_unique<baselines::FfRouter>(
          loop_, dev, controller_, config_.cal.freeflow_costs,
          config_.cal.driver_costs));
    }
    hosts_.push_back(std::move(host));
    vf_in_use_.push_back(0);
  }

  fabric_ = std::make_unique<net::FabricTopology>(fluid_, hosts_.size(),
                                                   config_.topology);

  if (config_.check_invariants) {
    checks_ = std::make_unique<check::InvariantRegistry>(loop_);
    if (config_.candidate == Candidate::kMasq) {
      // The RConnrename/cache/conntrack invariants are MasQ mechanisms;
      // other candidates legitimately keep virtual GIDs in their QPCs
      // (SR-IOV translates them in the VXLAN offload), so only the MasQ
      // testbed registers component auditors. Per-instance virtqueue
      // probes are added in add_instance().
      for (std::size_t h = 0; h < hosts_.size(); ++h) {
        masq::Backend& backend = *backends_[h];
        check::register_qp_auditor(*checks_, hosts_[h]->rnic(0), controller_);
        check::register_cache_auditor(*checks_, backend.mapping_cache(),
                                      controller_);
        check::register_conntrack_auditor(*checks_, backend);
      }
    }
    checks_->attach(config_.check_audit_every);
  }
}

Testbed::~Testbed() {
  if (checks_ == nullptr) return;
  checks_->detach();
  // Final audit at quiescence — but only if the loop actually drained
  // (an aborted run legitimately leaves descriptors in flight). A
  // destructor must not throw, so violations are recorded and surfaced on
  // stderr; tests that want a hard failure run audit("quiesce") themselves
  // before teardown.
  if (!loop_.empty()) return;
  const check::ViolationPolicy saved = checks_->policy();
  checks_->set_policy(check::ViolationPolicy::kRecord);
  const std::size_t before = checks_->violations().size();
  checks_->audit("quiesce");
  checks_->set_policy(saved);
  if (checks_->violations().size() > before) {
    std::fputs(checks_->report().c_str(), stderr);
  }
}

masq::Backend& Testbed::masq_backend(std::size_t host_idx) {
  if (config_.candidate != Candidate::kMasq) {
    throw std::logic_error("masq_backend: testbed is not running MasQ");
  }
  return *backends_.at(host_idx);
}

baselines::FfRouter& Testbed::ffr(std::size_t host_idx) {
  if (config_.candidate != Candidate::kFreeFlow) {
    throw std::logic_error("ffr: testbed is not running FreeFlow");
  }
  return *ffrs_.at(host_idx);
}

rnic::RnicDevice* Testbed::device_by_ip(net::Ipv4Addr underlay_ip) {
  auto it = by_underlay_ip_.find(underlay_ip);
  return it == by_underlay_ip_.end() ? nullptr : it->second;
}

std::vector<net::LinkId> Testbed::fabric_path(net::Ipv4Addr src_ip,
                                              net::Ipv4Addr dst_ip,
                                              rnic::Qpn src_qpn,
                                              rnic::Qpn dst_qpn) {
  const auto src = host_of_ip_.find(src_ip);
  const auto dst = host_of_ip_.find(dst_ip);
  if (src == host_of_ip_.end() || dst == host_of_ip_.end()) return {};
  net::EcmpKey key;
  key.src_ip = src_ip.value;
  key.dst_ip = dst_ip.value;
  // RoCEv2 spreads flows by varying the UDP source port per QP pair; fold
  // the 24-bit QPNs into the 16-bit port fields the same way.
  key.src_port = static_cast<std::uint16_t>(src_qpn ^ (src_qpn >> 16));
  key.dst_port = static_cast<std::uint16_t>(dst_qpn ^ (dst_qpn >> 16));
  return fabric_->path(src->second, dst->second, key);
}

net::Ipv4Addr Testbed::next_vip(std::uint32_t vni) {
  const std::uint32_t n = ++vip_counter_[vni];
  // 192.168.x.y within the tenant (x.y > 256 instances supported).
  return net::Ipv4Addr{
      net::Ipv4Addr::from_octets(192, 168, 1, 0).value + n};
}

void Testbed::allow_all(std::uint32_t vni) { vnet_.policy(vni).allow_all(); }

void Testbed::program_tunnels_for(const Instance& inst) {
  // The cloud control plane programs VXLAN tunnel tables on every host's
  // NIC: peer vGID -> (physical GID of its host, tenant VNI), plus the
  // reverse entries for the new instance.
  const net::Gid new_vgid = net::Gid::from_ipv4(inst.vip);
  const net::Gid new_pgid =
      net::Gid::from_ipv4(hosts_[inst.host_idx]->rnic(0).config().ip);
  for (const auto& other : instances_) {
    if (other->vni != inst.vni) continue;
    rnic::RnicDevice& other_dev = hosts_[other->host_idx]->rnic(0);
    other_dev.program_tunnel(new_vgid, {new_pgid, inst.vni});
    const net::Gid other_vgid = net::Gid::from_ipv4(other->vip);
    const net::Gid other_pgid =
        net::Gid::from_ipv4(other_dev.config().ip);
    hosts_[inst.host_idx]->rnic(0).program_tunnel(other_vgid,
                                                  {other_pgid, other->vni});
  }
}

std::optional<std::size_t> Testbed::add_instance(
    std::optional<std::uint32_t> vni_opt) {
  const std::uint32_t vni = vni_opt.value_or(kDefaultVni);
  const std::size_t host_idx = instances_.size() % hosts_.size();
  hyp::Host& host = *hosts_[host_idx];
  rnic::RnicDevice& dev = host.rnic(0);

  auto inst = std::make_unique<Instance>();
  inst->host_idx = host_idx;
  inst->vni = vni;
  inst->vip = next_vip(vni);
  const auto mac =
      net::MacAddr::from_u64(0x02aa00000000ull + instances_.size() + 1);

  switch (config_.candidate) {
    case Candidate::kHostRdma: {
      // A bare-metal process: no VM, PF access, physical addressing.
      inst->oob = vnet_.create_endpoint(vni, inst->vip);
      inst->ctx = std::make_unique<baselines::DirectContext>(
          host, dev, *inst->oob, config_.cal.driver_costs);
      break;
    }
    case Candidate::kSriov: {
      if (vf_in_use_[host_idx] >= dev.config().num_vfs) {
        return std::nullopt;  // Table 5: out of VFs (non-ARI PCIe)
      }
      hyp::Vm::Config vc;
      vc.name = "vm-" + std::to_string(instances_.size());
      vc.mem_bytes = config_.cal.vm_mem_bytes;
      vc.qemu_overhead_bytes = config_.cal.vm_overhead_bytes;
      vc.vni = vni;
      vc.vip = inst->vip;
      vc.mac = mac;
      vc.compute_overhead = config_.cal.vm_compute_overhead;
      try {
        inst->vm = std::make_unique<hyp::Vm>(host, vc);
      } catch (const std::bad_alloc&) {
        return std::nullopt;  // out of host DRAM
      }
      const auto vf = static_cast<rnic::FnId>(++vf_in_use_[host_idx]);
      dev.set_fn_address(vf, inst->vip, mac, vni, /*vxlan_offload=*/true);
      inst->oob = vnet_.create_endpoint(vni, inst->vip);
      inst->ctx = std::make_unique<baselines::DirectContext>(
          *inst->vm, dev, vf, *inst->oob, config_.cal.driver_costs);
      program_tunnels_for(*inst);
      break;
    }
    case Candidate::kFreeFlow: {
      hyp::Container::Config cc;
      cc.name = "ctr-" + std::to_string(instances_.size());
      cc.vni = vni;
      cc.vip = inst->vip;
      inst->container = std::make_unique<hyp::Container>(host, cc);
      inst->oob = vnet_.create_endpoint(vni, inst->vip);
      inst->ctx = std::make_unique<baselines::FreeflowContext>(
          *inst->container, *ffrs_[host_idx], *inst->oob);
      // FreeFlow's mapping service learns the overlay->underlay binding.
      controller_.register_vgid(vni, net::Gid::from_ipv4(inst->vip),
                                net::Gid::from_ipv4(dev.config().ip));
      break;
    }
    case Candidate::kMasq: {
      hyp::Vm::Config vc;
      vc.name = "vm-" + std::to_string(instances_.size());
      vc.mem_bytes = config_.cal.vm_mem_bytes;
      vc.qemu_overhead_bytes = config_.cal.vm_overhead_bytes;
      vc.vni = vni;
      vc.vip = inst->vip;
      vc.mac = mac;
      vc.compute_overhead = config_.cal.vm_compute_overhead;
      try {
        inst->vm = std::make_unique<hyp::Vm>(host, vc);
      } catch (const std::bad_alloc&) {
        return std::nullopt;  // Table 5: out of host DRAM
      }
      inst->oob = vnet_.create_endpoint(vni, inst->vip);
      auto& session = backends_[host_idx]->register_vm(*inst->vm);
      virtio::ChannelCosts vcosts = config_.cal.virtio_costs;
      inst->ctx = std::make_unique<masq::MasqContext>(session, *inst->oob,
                                                      vcosts);
      if (checks_ != nullptr) {
        check::register_ring_auditor(
            *checks_,
            check::make_ring_probe(
                "inst" + std::to_string(instances_.size()),
                static_cast<masq::MasqContext&>(*inst->ctx).virtqueue()));
      }
      break;
    }
  }

  // Default posture for the tests/benches: the tenant allows everything;
  // security experiments tighten rules explicitly afterwards. Rules are
  // installed only for the new VM's security group (plus the tenant
  // firewall once) to keep the chains free of duplicates.
  overlay::SecurityPolicy& pol = vnet_.policy(vni);
  if (pol.firewall(overlay::Chain::kForward).size() == 0) {
    pol.firewall(overlay::Chain::kForward)
        .add_rule(overlay::Rule::allow_all());
  }
  pol.security_group(inst->vip, overlay::Chain::kInput)
      .add_rule(overlay::Rule::allow_all());
  pol.security_group(inst->vip, overlay::Chain::kOutput)
      .add_rule(overlay::Rule::allow_all());

  instances_.push_back(std::move(inst));
  return instances_.size() - 1;
}

rnic::Status Testbed::migrate_instance(std::size_t i,
                                       std::size_t target_host) {
  if (config_.candidate != Candidate::kMasq) {
    return rnic::Status::kInvalidArgument;
  }
  if (i >= instances_.size() || target_host >= hosts_.size()) {
    return rnic::Status::kNotFound;
  }
  Instance& inst = *instances_[i];
  if (inst.host_idx == target_host) return rnic::Status::kOk;
  if (inst.vm == nullptr || inst.ctx == nullptr) {
    return rnic::Status::kInvalidState;
  }

  // The old session's vBond hands over the (VNI, vGID) registration so its
  // eventual destruction doesn't clobber the successor's mapping.
  static_cast<masq::MasqContext&>(*inst.ctx).session().vbond().release();
  // The ring probe holds a reference into the dying context's virtqueue.
  if (checks_ != nullptr) {
    checks_->remove_auditor("vq-ring[inst" + std::to_string(i) + "]");
  }
  inst.ctx.reset();
  vnet_.destroy_endpoint(inst.oob);
  hyp::Vm::Config vc = inst.vm->config();
  inst.vm.reset();  // returns the reservation to the source host

  inst.host_idx = target_host;
  inst.vm = std::make_unique<hyp::Vm>(*hosts_[target_host], vc);
  // The vEth keeps its address; the security-group chains for this vIP
  // persist in the tenant policy across the move.
  inst.oob = vnet_.create_endpoint(inst.vni, inst.vip);
  auto& session = backends_[target_host]->register_vm(*inst.vm);
  inst.ctx = std::make_unique<masq::MasqContext>(session, *inst.oob,
                                                 config_.cal.virtio_costs);
  if (checks_ != nullptr) {
    check::register_ring_auditor(
        *checks_,
        check::make_ring_probe(
            "inst" + std::to_string(i),
            static_cast<masq::MasqContext&>(*inst.ctx).virtqueue()));
  }
  return rnic::Status::kOk;
}

sim::Task<rnic::Status> Testbed::migrate_vm(std::size_t i,
                                            std::size_t target_host,
                                            masq::MigrationCosts costs,
                                            MigrationCorruption corrupt) {
  last_migration_report_ = {};
  if (config_.candidate != Candidate::kMasq) {
    co_return rnic::Status::kInvalidArgument;
  }
  if (i >= instances_.size() || target_host >= hosts_.size()) {
    co_return rnic::Status::kNotFound;
  }
  Instance& inst = *instances_[i];
  if (inst.host_idx == target_host) co_return rnic::Status::kOk;
  if (inst.vm == nullptr || inst.ctx == nullptr) {
    co_return rnic::Status::kInvalidState;
  }

  masq::Migrator::Env env;
  env.loop = &loop_;
  env.ctx = &static_cast<masq::MasqContext&>(*inst.ctx);
  env.source = backends_[inst.host_idx].get();
  env.destination = backends_[target_host].get();
  env.dest_host = hosts_[target_host].get();
  env.vm_slot = &inst.vm;
  // Physical GIDs are derived from host underlay IPs; invert by scan (the
  // host count is small and this only runs during a migration).
  env.device_by_pgid = [this](net::Gid pgid) -> rnic::RnicDevice* {
    for (auto& host : hosts_) {
      if (host->rnic(0).gid(rnic::kPf) == pgid) return &host->rnic(0);
    }
    return nullptr;
  };
  // QPN spaces are disjoint per device (dc.id_space above), so a QP is
  // hosted by at most one device — scan for it. Concurrent migrations use
  // this to chase a paused peer QP that moved while they held it.
  env.device_by_qpn = [this](rnic::Qpn qpn) -> rnic::RnicDevice* {
    for (auto& host : hosts_) {
      if (host->rnic(0).qp_exists(qpn)) return &host->rnic(0);
    }
    return nullptr;
  };
  if (checks_ != nullptr) {
    env.report_violation = check::make_migration_reporter(*checks_);
  }
  env.costs = costs;

  masq::Migrator migrator(std::move(env));
  if (corrupt == MigrationCorruption::kDropWqe) {
    migrator.snapshot_drop_wqe_for_test();
  } else if (corrupt == MigrationCorruption::kDuplicateWqe) {
    migrator.snapshot_duplicate_wqe_for_test();
  }
  const rnic::Status st = co_await migrator.run();
  last_migration_report_ = migrator.report();
  // A drain timeout rolls back before anything moves; every other outcome
  // (including a restore error carried in the report) left the VM booted
  // on the destination host.
  if (st != rnic::Status::kDeadlineExceeded) inst.host_idx = target_host;
  co_return st;
}

void Testbed::add_instances(int n) {
  for (int i = 0; i < n; ++i) {
    if (!add_instance().has_value()) {
      throw std::runtime_error("testbed cannot host instance " +
                               std::to_string(i) + " under " +
                               to_string(config_.candidate));
    }
  }
}

}  // namespace fabric
