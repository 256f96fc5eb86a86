// First-fit page-granularity range allocator with coalescing free list.
// Used for DRAM pages (HostPhysMap), VA ranges inside address spaces, and
// guest-physical page allocation inside a VM.
#pragma once

#include <cstdint>
#include <map>

#include "mem/physical_memory.h"  // Addr, kPageSize

namespace mem {

class RegionAllocator {
 public:
  // Manages [base, base + size); both page aligned.
  RegionAllocator(Addr base, Addr size);

  // Allocates a page-aligned range of `len` bytes (rounded up to pages).
  // Throws std::bad_alloc on exhaustion.
  Addr alloc(Addr len);
  void free(Addr addr, Addr len);

  // Claims the exact range [addr, addr+len) out of the free list (live
  // migration restores guest buffers at their original virtual addresses).
  // Throws std::bad_alloc if any page of the range is already allocated.
  void reserve(Addr addr, Addr len);

  Addr base() const { return base_; }
  Addr size() const { return size_; }
  Addr bytes_allocated() const { return allocated_; }

 private:
  Addr base_;
  Addr size_;
  Addr allocated_ = 0;
  std::map<Addr, Addr> free_list_;  // start -> length (bytes)
};

}  // namespace mem
