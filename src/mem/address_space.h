// Page-table-backed virtual address spaces, stackable into the
// GVA -> GPA -> HVA -> HPA chain of the paper's Appendix B.
//
//   HostPhysMap   hpa(96 GiB DRAM + RNIC BARs)
//   AddressSpace  hva("qemu", &hpa)        // host page table
//   AddressSpace  gpa("vm0-ram", &hva)     // QEMU's GPA->HVA mapping
//   AddressSpace  gva("app", &gpa)         // guest page table
//
// resolve_hpa() walks the chain; pinned pages cannot be unmapped (memory
// registration pins both the guest and host page tables, exactly like the
// "create_qp" flow in Appendix B.2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/physical_memory.h"
#include "mem/region_allocator.h"
#include "sim/flat_map.h"

namespace mem {

// A contiguous piece of a translated range: lower-level address + length.
struct Segment {
  Addr addr;
  Addr len;
};

class AddressSpace {
 public:
  // Root-level space translating directly into the physical map (HVA->HPA).
  AddressSpace(std::string name, HostPhysMap* phys);
  // Stacked space translating into `lower` (GVA->GPA, GPA->HVA).
  AddressSpace(std::string name, AddressSpace* lower);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  const std::string& name() const { return name_; }
  AddressSpace* lower() const { return lower_; }
  HostPhysMap* phys() const;

  // --- page table -----------------------------------------------------
  // Maps [va, va+len) onto [lower_addr, lower_addr+len); page aligned.
  void map(Addr va, Addr lower_addr, Addr len);
  // Unmaps; throws std::logic_error if any page is pinned.
  void unmap(Addr va, Addr len);
  // Teardown unmap: clears entries even when pinned (an exiting guest
  // takes its DMA pins with it). Missing pages are ignored.
  void force_unmap(Addr va, Addr len);
  bool is_mapped(Addr va) const;

  // One-level translation. Offset within page preserved.
  std::optional<Addr> translate(Addr va) const;
  Addr translate_or_throw(Addr va) const;

  // Full walk to the host physical address.
  Addr resolve_hpa(Addr va) const;

  // Splits [va, va+len) into segments contiguous at this level's lower
  // space (page-merge where adjacent).
  std::vector<Segment> translate_range(Addr va, Addr len) const;

  // Splits [va, va+len) into segments contiguous in *host physical* memory
  // (full chain walk; what a driver writes into the device MTT).
  std::vector<Segment> resolve_hpa_range(Addr va, Addr len) const;

  // --- pinning ---------------------------------------------------------
  // Counted pins; pinned pages refuse unmap(). Walks only this level.
  void pin(Addr va, Addr len);
  void unpin(Addr va, Addr len);
  bool is_pinned(Addr va) const;

  // Pins this level and every level below (what a driver does before
  // handing an address to the device).
  void pin_chain(Addr va, Addr len);
  void unpin_chain(Addr va, Addr len);

  // --- data access -----------------------------------------------------
  // Reads/writes through the full chain to physical bytes. Ranges may
  // cross pages; unmapped pages throw std::out_of_range.
  void read(Addr va, std::span<std::uint8_t> out) const;
  void write(Addr va, std::span<const std::uint8_t> in);
  std::uint64_t read_u64(Addr va) const;
  void write_u64(Addr va, std::uint64_t value);

 private:
  struct Entry {
    Addr lower_page;   // page number in the lower space
    std::uint32_t pin_count = 0;
  };
  const Entry* find(Addr va) const;

  std::string name_;
  AddressSpace* lower_ = nullptr;  // nullptr at root level
  HostPhysMap* phys_ = nullptr;    // set at root level
  sim::FlatMap<Addr, Entry> table_;  // VA page number -> entry
};

}  // namespace mem
