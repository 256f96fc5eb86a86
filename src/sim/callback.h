// Small-buffer-optimized callback for the event loop's hot path.
//
// sim::Callback replaces std::function<void()> in every scheduling
// signature. The differences that matter at 1M-VM event rates:
//   * captures up to kInlineBytes live inside the Callback itself — no
//     heap allocation per scheduled event (std::function's SBO is
//     implementation-defined and GCC's tops out at 16 bytes, below the
//     typical [this, promise, weak_ptr] capture set);
//   * move-only — the old priority_queue forced a std::function *copy* of
//     every callback on pop (top() is const); the ready queue moves nodes,
//     so the wrapper no longer needs copyability and callers may capture
//     move-only state;
//   * one indirect call to invoke, one to destroy, no virtual dispatch.
//
// Oversized captures still work (they fall back to a heap box) so call
// sites never have to know the limit; the event-loop microbench pins the
// inline path as the common case.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

class Callback {
 public:
  // Sized for the repo's largest hot capture set (MappingCache lane flush:
  // loop ref + this + shard index + weak_ptr control block = 40 bytes).
  static constexpr std::size_t kInlineBytes = 40;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT: empty, as std::function(nullptr)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule_* call site.
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](Callback& self) {
        (*std::launder(reinterpret_cast<D*>(self.storage_)))();
      };
      manage_ = [](Callback& self, Callback* dst) {
        D* src = std::launder(reinterpret_cast<D*>(self.storage_));
        if (dst != nullptr) {
          ::new (static_cast<void*>(dst->storage_)) D(std::move(*src));
        }
        src->~D();
      };
    } else {
      // Heap fallback for oversized or throwing-move captures. The boxed
      // pointer always fits inline, so moves stay trivial.
      auto boxed = std::make_unique<D>(std::forward<F>(f));
      ::new (static_cast<void*>(storage_)) D*(boxed.release());
      invoke_ = [](Callback& self) {
        (**std::launder(reinterpret_cast<D**>(self.storage_)))();
      };
      manage_ = [](Callback& self, Callback* dst) {
        D** src = std::launder(reinterpret_cast<D**>(self.storage_));
        if (dst != nullptr) {
          ::new (static_cast<void*>(dst->storage_)) D*(*src);
        } else {
          delete *src;
        }
        // The stored D* itself is trivially destructible; nothing to do.
      };
    }
  }

  Callback(Callback&& o) noexcept { move_from(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  Callback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  ~Callback() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(*this); }

 private:
  void reset() {
    if (manage_ != nullptr) manage_(*this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }
  void move_from(Callback& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (o.manage_ != nullptr) o.manage_(o, this);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(Callback&) = nullptr;
  // manage(self, dst): dst != null -> move self's callable into dst and
  // destroy self's; dst == null -> destroy self's callable.
  void (*manage_)(Callback&, Callback*) = nullptr;
};

}  // namespace sim
