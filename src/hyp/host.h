// A physical server: DRAM (HostPhysMap), the host kernel's address space,
// and attached RNICs. VMs and containers are carved out of it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "mem/physical_memory.h"
#include "mem/region_allocator.h"
#include "net/fluid.h"
#include "rnic/device.h"
#include "sim/event_loop.h"

namespace hyp {

class Host {
 public:
  Host(sim::EventLoop& loop, net::FluidNet& net, std::string name,
       std::uint64_t dram_bytes);

  const std::string& name() const { return name_; }
  sim::EventLoop& loop() { return loop_; }
  net::FluidNet& net() { return net_; }
  mem::HostPhysMap& phys() { return phys_; }
  // The host kernel / QEMU virtual address space (HVA -> HPA).
  mem::AddressSpace& hva() { return hva_; }
  mem::RegionAllocator& hva_alloc() { return hva_alloc_; }

  // Allocates `len` bytes of fresh DRAM mapped into the host VA space;
  // returns the HVA. Throws std::bad_alloc when DRAM is exhausted.
  mem::Addr alloc_host_buffer(std::uint64_t len);
  void free_host_buffer(mem::Addr hva, std::uint64_t len);

  rnic::RnicDevice& add_rnic(rnic::DeviceConfig config);
  rnic::RnicDevice& rnic(std::size_t i = 0) { return *rnics_.at(i); }

  std::uint64_t dram_bytes() const { return phys_.dram_size(); }
  std::uint64_t dram_used_bytes() const {
    return phys_.allocated_pages() * mem::kPageSize;
  }

 private:
  sim::EventLoop& loop_;
  net::FluidNet& net_;
  std::string name_;
  mem::HostPhysMap phys_;
  mem::AddressSpace hva_;
  mem::RegionAllocator hva_alloc_;
  std::vector<std::unique_ptr<rnic::RnicDevice>> rnics_;
};

}  // namespace hyp
