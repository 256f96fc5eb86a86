// Warm-path connection pool (Swift-style; DESIGN.md §14).
//
// Swift (arXiv 2501.19051) observes that for elastic workloads the RDMA
// *control* plane — not the data plane — is the setup bottleneck: every
// connection pays create_cq/create_qp plus the INIT→RTR→RTS ladder through
// the paravirtual command channel. The WarmPool attacks all three:
//
//   * background refill — a pacing loop pre-runs create_cq ×2 + create_qp +
//     modify_qp(INIT) as one pipelined batch, keeping `target_ready`
//     INIT-state endpoints staged, so a connect only pays RTR→RTS;
//   * pre-staged registration — one slab MR registered at pool start rides
//     along with every warm endpoint, so the MR cost leaves the setup path;
//   * connection caching with lazy teardown — a released RTS endpoint is
//     parked keyed by its peer; a returning connection to the same peer
//     reuses it and skips the ladder entirely. Parked endpoints are
//     reclaimed after `reclaim_after` idle, not destroyed inline.
//
// Degradation is always to the cold path: an empty pool, a failed refill
// batch, or a pool QP forced into ERROR makes acquire() answer kCold and
// the caller runs the ordinary ladder. The pool is only constructed when
// WarmPoolConfig.enabled is set, so a disabled run's event stream is
// bit-identical to a build without the feature.
#pragma once

#include <memory>
#include <vector>

#include "masq/backend.h"
#include "net/addr.h"
#include "sim/flat_map.h"
#include "verbs/api.h"

namespace masq {

class WarmPool {
 public:
  // Written purely against verbs::Context so the staging/refill ladders go
  // through the same pipelined batches an application would use.
  WarmPool(verbs::Context& ctx, WarmPoolConfig cfg);
  ~WarmPool();
  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  // Spawns the staging task (PD + slab MR) and the first refill round.
  void start();

  // Never fails: returns kReused (parked connection to this peer), else
  // kPooled (staged INIT endpoint), else kCold.
  sim::Task<verbs::WarmEndpoint> acquire(const net::Gid& peer_gid);
  // Parks a still-RTS endpoint for reuse by a returning connection to
  // (peer_gid, peer_qpn); schedules the lazy-teardown reclaim.
  sim::Task<void> release(verbs::WarmEndpoint ep, const net::Gid& peer_gid,
                          rnic::Qpn peer_qpn);
  // Immediate teardown through the cold-path verbs (shared slab MR and PD
  // stay with the pool). No-op for kCold endpoints.
  sim::Task<void> discard(verbs::WarmEndpoint ep);
  // Drops any parked connection toward `peer_gid`; teardown runs in the
  // background.
  void invalidate(const net::Gid& peer_gid);
  // QP-ERROR notification (wired from the frontend's device hook): a dead
  // pool QP is purged from ready/parked and torn down in the background.
  void on_qp_error(rnic::Qpn qpn);

  bool staged() const { return staged_; }
  std::size_t ready_size() const { return ready_.size(); }
  std::size_t parked_size() const { return parked_.size(); }
  std::uint64_t pool_hits() const { return pool_hits_; }
  std::uint64_t pool_misses() const { return pool_misses_; }
  std::uint64_t reuse_hits() const { return reuse_hits_; }
  std::uint64_t refills() const { return refills_; }
  std::uint64_t refill_failures() const { return refill_failures_; }
  std::uint64_t reclaimed() const { return reclaimed_; }
  std::uint64_t purged() const { return purged_; }
  const WarmPoolConfig& config() const { return cfg_; }

 private:
  struct Slot {
    rnic::Cqn scq = 0;
    rnic::Cqn rcq = 0;
    rnic::Qpn qpn = 0;
  };
  struct Parked {
    Slot slot;
    rnic::Qpn peer_qpn = 0;
    std::uint64_t stamp = 0;  // reclaim generation: a re-park invalidates
                              // the previous entry's pending reclaim
  };

  // Detached background tasks hold a weak liveness token and stand down
  // once the pool dies (same idiom as MappingCache::flush_lane).
  static sim::Task<void> stage_task(WarmPool* self,
                                    std::weak_ptr<const char> alive);
  static sim::Task<void> refill_task(WarmPool* self,
                                     std::weak_ptr<const char> alive);
  static sim::Task<void> teardown_task(WarmPool* self, Slot s,
                                       std::weak_ptr<const char> alive);
  void kick_refill();
  void teardown_in_background(const Slot& s);
  void schedule_reclaim(net::Gid gid, std::uint64_t stamp);

  verbs::Context& ctx_;
  WarmPoolConfig cfg_;
  bool staged_ = false;
  bool staging_ = false;
  bool refilling_ = false;
  rnic::PdId pd_ = 0;
  mem::Addr slab_ = 0;
  verbs::MrHandle slab_mr_;
  std::vector<Slot> ready_;
  sim::FlatMap<net::Gid, Parked> parked_;
  std::uint64_t stamp_seq_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t refills_ = 0;
  std::uint64_t refill_failures_ = 0;
  std::uint64_t reclaimed_ = 0;
  std::uint64_t purged_ = 0;
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>(0);
};

}  // namespace masq
