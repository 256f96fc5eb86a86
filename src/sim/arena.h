// Arena allocation for the simulator hot path (DESIGN.md §13).
//
// Three building blocks, all deterministic (allocation is never observable
// in the event stream — addresses are not hashed, compared, or iterated):
//
//   Arena      chunked bump allocator: 64 KiB slabs, pointer-bump allocate,
//              no per-object free. Backs the fixed-size pools below and any
//              run-scoped scratch that would otherwise churn malloc.
//   NodePool   free-list recycler for one node type on top of an Arena.
//              The event loop allocates every scheduled event from one of
//              these: steady state is pop-push on a singly linked free
//              list, zero malloc traffic.
//   frame_alloc/frame_free
//              size-classed pool for C++20 coroutine frames (sim::Task
//              promises route operator new/delete here). One
//              process-wide set of free lists over slabs that stay valid
//              until process exit.
//
// Under ASan/UBSan builds every pool degrades to plain new/delete so the
// sanitizers keep seeing real object lifetimes (a recycled frame would
// otherwise mask use-after-free). The chaos/sanitizer CI jobs rely on this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/ownership.h"

#if defined(__SANITIZE_ADDRESS__)
#define MASQ_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MASQ_ARENA_PASSTHROUGH 1
#endif
#endif

namespace sim {

// Chunked bump allocator. Not thread-safe; one Arena per owner.
class Arena {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* allocate(std::size_t size, std::size_t align) {
    std::size_t offset = (offset_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || offset + size > chunk_size_) {
      grow(size + align);
      offset = (offset_ + align - 1) & ~(align - 1);
    }
    void* p = chunks_.back().get() + offset;
    offset_ = offset + size;
    return p;
  }

  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);  // masq-lint: allow(naked-new) placement-new into arena storage
  }

  std::size_t bytes_reserved() const {
    return chunks_.size() * kChunkBytes;  // approximation; big allocs vary
  }

 private:
  void grow(std::size_t at_least) {
    chunk_size_ = at_least > kChunkBytes ? at_least : kChunkBytes;
    chunks_.push_back(std::make_unique<unsigned char[]>(chunk_size_));
    offset_ = 0;
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::size_t chunk_size_ = 0;
  std::size_t offset_ = 0;
};

// Fixed-type free-list pool. acquire() hands out a *constructed* T whose
// reusable state the caller resets; release() just pushes it back. All
// nodes are destroyed when the pool dies, so callers must not outlive it.
template <typename T>
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() {
#if !defined(MASQ_ARENA_PASSTHROUGH)
    for (T* n : all_) n->~T();
#endif
  }

  T* acquire() {
#if defined(MASQ_ARENA_PASSTHROUGH)
    return new T();  // masq-lint: allow(naked-new) sanitizer passthrough, released via delete below
#else
    if (free_ != nullptr) {
      T* n = free_;
      free_ = *next_of(n);
      return n;
    }
    T* n = arena_.template make<T>();
    all_.push_back(n);
    return n;
#endif
  }

  void release(T* n) {
#if defined(MASQ_ARENA_PASSTHROUGH)
    delete n;
#else
    *next_of(n) = free_;
    free_ = n;
#endif
  }

  std::size_t bytes_reserved() const { return arena_.bytes_reserved(); }

 private:
  // Freed nodes chain through their `pool_next` member (T must provide it).
  static T** next_of(T* n) { return &n->pool_next; }

  Arena arena_;
  T* free_ = nullptr;
  std::vector<T*> all_;
};

// ---------------------------------------------------------------------------
// Coroutine-frame pool.
// ---------------------------------------------------------------------------

namespace detail {

inline constexpr std::size_t kFrameClassShift = 6;  // 64-byte classes
inline constexpr std::size_t kFrameClasses = 32;    // up to 2 KiB pooled

// Slabs are owned process-wide (freed at static destruction, so leak
// checkers stay clean): a frame may outlive the loop that created it.
struct FrameSlabRegistry {
  std::vector<std::unique_ptr<unsigned char[]>> slabs;

  unsigned char* grab_slab(std::size_t bytes) {
    slabs.push_back(std::make_unique<unsigned char[]>(bytes));
    return slabs.back().get();
  }
};

inline FrameSlabRegistry& frame_slab_registry() {
  MASQ_SHARED_STATE("allocator memory only: frame addresses are never hashed, compared or iterated, so no run observes another's slabs")
  static FrameSlabRegistry registry;
  return registry;
}

struct FrameFreeLists {
  void* head[kFrameClasses] = {};
};

inline FrameFreeLists& frame_free_lists() {
  MASQ_SHARED_STATE("allocator memory only: which free block a frame reuses is never observable in the event stream")
  static FrameFreeLists lists;
  return lists;
}

inline void* frame_alloc(std::size_t size) {
#if defined(MASQ_ARENA_PASSTHROUGH)
  return ::operator new(size);
#else
  const std::size_t cls = (size - 1) >> kFrameClassShift;
  if (cls >= kFrameClasses) return ::operator new(size);
  FrameFreeLists& lists = frame_free_lists();
  if (void* p = lists.head[cls]) {
    lists.head[cls] = *static_cast<void**>(p);
    return p;
  }
  const std::size_t block = (cls + 1) << kFrameClassShift;
  const std::size_t count = Arena::kChunkBytes / block;
  unsigned char* slab =
      frame_slab_registry().grab_slab(block * count);
  // First block satisfies this allocation; the rest seed the free list.
  for (std::size_t i = 1; i < count; ++i) {
    void* b = slab + i * block;
    *static_cast<void**>(b) = lists.head[cls];
    lists.head[cls] = b;
  }
  return slab;
#endif
}

inline void frame_free(void* p, [[maybe_unused]] std::size_t size) {
#if defined(MASQ_ARENA_PASSTHROUGH)
  ::operator delete(p);
#else
  const std::size_t cls = (size - 1) >> kFrameClassShift;
  if (cls >= kFrameClasses) {
    ::operator delete(p);
    return;
  }
  FrameFreeLists& lists = frame_free_lists();
  *static_cast<void**>(p) = lists.head[cls];
  lists.head[cls] = p;
#endif
}

}  // namespace detail

}  // namespace sim
