// Compute instances: QEMU virtual machines and Docker-style containers.
//
// A Vm reserves its RAM from host DRAM at boot (the Table-5 "limited by
// host memory" resource) and owns the guest half of the Appendix-B
// address-translation chain: GVA -> GPA -> HVA -> HPA. Guest buffers are
// demand-mapped: the reservation is contiguous, so per-buffer page-table
// entries are created only for memory applications actually use.
//
// A Container shares the host kernel: its "guest" space maps straight onto
// host physical pages, with only an accounting limit (Docker runtime
// options, Table 3).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hyp/host.h"
#include "net/addr.h"
#include "sim/flat_map.h"
#include "sim/time.h"

namespace hyp {

class Vm {
 public:
  struct Config {
    std::string name = "vm";
    std::uint64_t mem_bytes = 512ull << 20;
    // QEMU/KVM bookkeeping charged to the host per VM (page tables, device
    // models, vhost rings). Anchor: Table 5 — 160 x 512 MB VMs exhaust a
    // 96 GB host, i.e. ~100 MiB of overhead per VM.
    std::uint64_t qemu_overhead_bytes = 100ull << 20;
    int vcpus = 1;
    std::uint32_t vni = 0;           // tenant id
    net::Ipv4Addr vip{};             // virtual IP of the vEth
    net::MacAddr mac{};
    // CPU-bound work runs this much slower than on the host (VM exit /
    // scheduling overheads). Anchor: Fig. 23 — FlatMap stage slower on
    // MasQ/SR-IOV (VMs) than Host-RDMA/FreeFlow (host/container).
    double compute_overhead = 1.18;
  };

  // Throws std::bad_alloc when the host cannot back the VM (Table 5).
  Vm(Host& host, Config config);
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  Host& host() { return host_; }
  const Config& config() const { return config_; }

  mem::AddressSpace& gva() { return gva_; }
  mem::AddressSpace& gpa() { return gpa_; }

  // Allocates a guest buffer; returns its GVA. The full chain down to HPA
  // is mapped so drivers can pin and translate it.
  mem::Addr alloc_guest_buffer(std::uint64_t len);
  void free_guest_buffer(mem::Addr gva_addr, std::uint64_t len);

  // Live-migration restore: allocates a guest buffer at the exact GVA it
  // held on the source host, so registered MRs and application pointers
  // survive the move unchanged. The GPA/HVA/HPA levels are fresh — MRs are
  // re-pinned and their MTTs re-resolved after the restore. Throws
  // std::bad_alloc if the GVA range is already taken.
  void alloc_guest_buffer_at(mem::Addr gva_addr, std::uint64_t len);

  // Live buffers (GVA -> length), in allocation order. A migration walks
  // this to copy guest RAM content to the destination VM.
  const sim::FlatMap<mem::Addr, std::uint64_t>& guest_buffers() const {
    return buffers_;
  }

  void write_guest(mem::Addr gva_addr, std::span<const std::uint8_t> in) {
    gva_.write(gva_addr, in);
  }
  void read_guest(mem::Addr gva_addr, std::span<std::uint8_t> out) {
    gva_.read(gva_addr, out);
  }

  // Maps a device BAR (by HPA) into the guest application's address space
  // (Appendix B.1, doorbell flow). Returns the GVA.
  mem::Addr map_mmio_into_guest(mem::Addr bar_hpa, std::uint64_t len);

  // Scales a CPU-bound duration by the VM overhead factor.
  sim::Time compute(sim::Time host_time) const {
    return static_cast<sim::Time>(static_cast<double>(host_time) *
                                  config_.compute_overhead);
  }

  std::uint64_t guest_bytes_allocated() const {
    return gpa_alloc_.bytes_allocated();
  }

 private:
  Host& host_;
  Config config_;
  mem::Addr hpa_base_;  // contiguous DRAM reservation for VM RAM
  mem::Addr hva_base_;  // QEMU's VA window over the reservation
  mem::AddressSpace gpa_;
  mem::AddressSpace gva_;
  mem::RegionAllocator gpa_alloc_;
  mem::RegionAllocator gva_alloc_;
  mem::RegionAllocator gpa_mmio_alloc_;
  sim::FlatMap<mem::Addr, std::uint64_t> buffers_;  // live GVA buffers
  // BAR windows mapped into this VM's HVA slice (hva, len): unmapped and
  // returned to the host allocator on teardown.
  std::vector<std::pair<mem::Addr, std::uint64_t>> mmio_maps_;
};

class Container {
 public:
  struct Config {
    std::string name = "ctr";
    std::uint64_t mem_limit_bytes = 32ull << 30;
    int cpus = 14;
    std::uint32_t vni = 0;
    net::Ipv4Addr vip;  // Weave-style overlay address
  };

  Container(Host& host, Config config);
  ~Container() = default;

  Host& host() { return host_; }
  const Config& config() const { return config_; }

  // Container processes live in a host VA space (no nested translation).
  mem::AddressSpace& va() { return va_; }

  mem::Addr alloc_buffer(std::uint64_t len);

  // No virtualization penalty for CPU work.
  sim::Time compute(sim::Time host_time) const { return host_time; }

 private:
  Host& host_;
  Config config_;
  mem::AddressSpace va_;
  mem::RegionAllocator va_alloc_;
  std::uint64_t used_ = 0;
};

}  // namespace hyp
