// Logically centralized, physically sharded SDN controller (§3.3.1).
//
// Maintains the (VNI, virtual GID) -> physical GID mapping table. vBond
// registers/updates entries whenever a vEth IP (and therefore the vGID)
// changes; RConnrename queries it when a connection is established. The
// tenant VNI disambiguates identical virtual IPs across tenants.
//
// Each record costs 35 B (vGID 16 B + VNI 3 B + pGID 16 B) — the paper's
// argument that a 10k-peer cache fits in ~0.33 MB of DRAM; record_bytes()
// exposes that arithmetic for the ablation bench.
//
// Sharding (DESIGN.md §12): the directory is hash-partitioned over
// `num_shards` shards. Each shard owns its slice of the table, a FIFO
// query service queue with a per-key service budget (the controller-side
// processing cost; 0 models an infinitely fast server, the pre-sharding
// behavior), and its own reachability flag — so an outage, and the
// degraded-mode semantics it triggers in host caches, is scoped to one
// partition instead of the whole directory. `num_shards == 1` with zero
// service time is exactly the old flat controller.
//
// Fault model: a shard (or the whole controller via set_reachable) can be
// marked unreachable for a window. While down, queries to that shard burn
// the RTT as a detection timeout and report kUnavailable, and push/
// invalidate broadcasts touching its keys are buffered; recovery flushes
// the buffered broadcasts in their original global order — the
// control-plane database itself stays authoritative throughout.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/addr.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/service_queue.h"
#include "sim/task.h"

namespace sdn {

struct VirtKey {
  std::uint32_t vni = 0;
  net::Gid vgid;

  bool operator==(const VirtKey&) const = default;
};

struct VirtKeyHash {
  std::size_t operator()(const VirtKey& k) const noexcept {
    // Boost-style hash_combine: the multiply+shift mix keeps the combine
    // asymmetric and spreads entropy across all bits. (A plain XOR is
    // symmetric — hash(a)^hash(b) == hash(b)^hash(a) — and collapses keys
    // whose per-field hashes differ only in low bytes.)
    std::size_t h = std::hash<std::uint32_t>{}(k.vni);
    const std::size_t g = std::hash<net::Gid>{}(k.vgid);
    h ^= g + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

inline constexpr std::size_t kRecordBytes = 16 + 3 + 16;  // vGID + VNI + pGID

struct ControllerConfig {
  // Round trip from a host to the shard's query service (also the
  // detection timeout while the shard is down).
  sim::Time query_rtt = sim::microseconds(100);
  // Hash partitions of the (VNI, vGID) directory. 1 = the flat controller.
  std::size_t num_shards = 1;
  // Server-side occupancy per queried key at a shard's FIFO query service.
  // 0 = infinitely fast service (pure RTT, the pre-sharding cost model);
  // > 0 makes shard queues contend, which is what the scale harness and
  // the shard ablation measure.
  sim::Time query_service = 0;
};

class Controller {
 public:
  explicit Controller(sim::EventLoop& loop,
                      sim::Time query_rtt = sim::microseconds(100))
      : Controller(loop, ControllerConfig{query_rtt}) {}
  Controller(sim::EventLoop& loop, ControllerConfig config);
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // vBond side: called on vGID creation/update.
  void register_vgid(std::uint32_t vni, net::Gid vgid, net::Gid pgid);
  void unregister_vgid(std::uint32_t vni, net::Gid vgid);

  // Instantaneous lookup (no modeled latency; used by push-down paths).
  std::optional<net::Gid> lookup(std::uint32_t vni, net::Gid vgid) const;

  // Remote query as RConnrename performs it: charges the shard's service
  // queue (when a service budget is configured) plus the controller RTT.
  // The reply distinguishes "the key is absent" from "the controller did
  // not answer". When the key's shard is unreachable, the RTT is still
  // charged — it models the caller's detection timeout.
  struct QueryReply {
    bool unreachable = false;
    std::optional<net::Gid> pgid;
  };
  sim::Task<QueryReply> query_ex(std::uint32_t vni, net::Gid vgid);

  // Batched query (a host cache's miss lane): all `keys` MUST hash to
  // `shard`. One service-queue pass (keys.size() service budgets back to
  // back) and one RTT answer the whole batch — the amortization the lanes
  // buy.
  sim::Task<std::vector<QueryReply>> query_batch(std::size_t shard,
                                                 std::vector<VirtKey> keys);

  // ---- shard geometry ----
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_of(std::uint32_t vni, net::Gid vgid) const {
    return VirtKeyHash{}(VirtKey{vni, vgid}) % shards_.size();
  }

  // ---- fault plane: reachability windows ----
  // Whole-controller switch (the PR-2 fault plane): flips every shard.
  // Coming back up flushes all broadcasts buffered while down, in their
  // original global order, so caches converge to an outage-free run.
  void set_reachable(bool reachable);
  // Scoped to one partition: only callers whose keys hash here see the
  // outage; other shards keep serving fresh answers.
  void set_shard_reachable(std::size_t shard, bool reachable);
  bool reachable() const;  // true iff every shard is reachable
  bool shard_reachable(std::size_t shard) const {
    return shards_.at(shard)->reachable;
  }
  bool reachable_for(std::uint32_t vni, net::Gid vgid) const {
    return shards_[shard_of(vni, vgid)]->reachable;
  }
  std::uint64_t unreachable_queries() const;

  // Subscriptions return a token; subscribers whose lifetime is shorter
  // than the controller's MUST unsubscribe in their destructor (vBond
  // teardown broadcasts invalidations, so a dangling callback would fire
  // into freed memory during shutdown).
  using SubId = std::uint64_t;

  // Proactive push-down (§4.2.3: "the controller can push down the
  // mappings in advance"): register_vgid() broadcasts every new or moved
  // binding to each subscriber, in subscription order.
  using PushFn = std::function<void(std::uint32_t, net::Gid, net::Gid)>;
  SubId subscribe(PushFn fn) {
    subscribers_.emplace_back(next_sub_, std::move(fn));
    return next_sub_++;
  }
  void unsubscribe(SubId id) {
    std::erase_if(subscribers_, [id](const auto& s) { return s.first == id; });
  }

  // Invalidation channel: unregister_vgid() broadcasts the dead key so
  // host-local caches stop serving the stale pGID (the complement of the
  // push-down channel — without it a dead mapping lives in every cache
  // forever).
  using InvalidateFn = std::function<void(std::uint32_t, net::Gid)>;
  SubId subscribe_invalidate(InvalidateFn fn) {
    invalidate_subscribers_.emplace_back(next_sub_, std::move(fn));
    return next_sub_++;
  }
  void unsubscribe_invalidate(SubId id) {
    std::erase_if(invalidate_subscribers_,
                  [id](const auto& s) { return s.first == id; });
  }

  std::size_t table_size() const;
  std::size_t table_bytes() const { return table_size() * kRecordBytes; }
  std::uint64_t queries_served() const;
  sim::Time query_rtt() const { return config_.query_rtt; }
  sim::Time query_service() const { return config_.query_service; }

  // ---- per-shard telemetry (the scale harness reports these) ----
  std::size_t shard_table_size(std::size_t shard) const {
    return shards_.at(shard)->table.size();
  }
  std::uint64_t shard_queries(std::size_t shard) const {
    return shards_.at(shard)->queries;
  }
  std::uint64_t shard_unreachable_queries(std::size_t shard) const {
    return shards_.at(shard)->unreachable_queries;
  }
  // High-water service-queue depth (queued + in service).
  std::size_t shard_max_queue_depth(std::size_t shard) const {
    return shards_.at(shard)->max_queue_depth;
  }
  // Batched lookups answered through query_batch (subset of shard_queries).
  std::uint64_t shard_batched_queries(std::size_t shard) const {
    return shards_.at(shard)->batched_queries;
  }

  // Invariant auditing (src/check): true if any tenant currently maps this
  // GID as *virtual* — a QPC holding such a GID past RTR means RConnrename
  // failed to rewrite it.
  bool is_virtual_gid(net::Gid vgid) const;
  // Broadcasts of this shard buffered during an outage and not yet
  // replayed; host caches may legitimately diverge from the shard's table
  // while this is nonzero, and the coherence auditor keeps checking the
  // healthy partitions.
  std::size_t shard_pending_broadcasts(std::size_t shard) const;

 private:
  struct Shard {
    explicit Shard(sim::EventLoop& loop) : queue(loop) {}
    sim::FlatMap<VirtKey, net::Gid, VirtKeyHash> table;
    sim::ServiceQueue queue;
    bool reachable = true;
    std::uint64_t queries = 0;
    std::uint64_t batched_queries = 0;
    std::uint64_t unreachable_queries = 0;
    std::size_t max_queue_depth = 0;
  };
  // A broadcast buffered while its shard was down. The buffer is one
  // global chronological list (not per shard) so whole-controller recovery
  // replays pushes and invalidations in exactly the order they happened —
  // the property sweep holds the sharded controller to the single-shard
  // reference's broadcast sequence.
  struct PendingBroadcast {
    std::size_t shard;
    std::function<void()> fn;
  };

  Shard& shard_for(std::uint32_t vni, net::Gid vgid) {
    return *shards_[shard_of(vni, vgid)];
  }
  // Charges the shard's FIFO service queue (if a budget is configured)
  // and then the RTT; records the high-water queue depth.
  sim::Task<void> charge_query_path(Shard& s, std::size_t keys);
  void broadcast_push(std::uint32_t vni, net::Gid vgid, net::Gid pgid);
  void broadcast_invalidate(std::uint32_t vni, net::Gid vgid);

  sim::EventLoop& loop_;
  ControllerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::pair<SubId, PushFn>> subscribers_;
  std::vector<std::pair<SubId, InvalidateFn>> invalidate_subscribers_;
  SubId next_sub_ = 1;
  // Broadcasts that happened while their shard was unreachable, replayed
  // (per shard, chronologically) on recovery.
  std::vector<PendingBroadcast> pending_broadcasts_;
};

// The settings of one host's MappingCache. Everything else about the cache
// is a constant of the model (MappingCache::kNegativeTtl and its
// neighbours).
struct CacheConfig {
  // Delay before the cache answers a lookup it settles itself (§3.3.1);
  // 0 answers inline and schedules nothing.
  sim::Time hit_cost = sim::microseconds(2);
  // How long a leader miss waits in its shard's lane for company before
  // the lane is flushed as one Controller::query_batch. 0 = no lanes: each
  // leader miss pays its own Controller::query_ex (the calibrated
  // testbed).
  sim::Time batch_window = 0;
  // Plant every controller push in the cache (pre-warming, §3.3.1), so a
  // peer resolves before its first connect asks. Off: a push only
  // refreshes an entry the cache already holds.
  bool insert_pushes = false;
};

// Host-local cache in front of the controller (§3.3.1), one per host: first
// query for a peer misses and pays the controller RTT; subsequent ones hit
// in a few microseconds. In the common case a record never changes after
// insertion, so hits always stay hits.
//
// resolve() is *single-flight*: concurrent misses for the same (VNI, vGID)
// coalesce onto one in-flight controller query, so a 100-QP fan-in to a
// brand-new peer pays one controller RTT, not 100. Unresolvable keys are
// negatively cached for a bounded TTL so a misconfigured peer cannot turn
// every connection attempt into a controller round trip.
//
// Miss lanes (DESIGN.md §12): with a batch window, a leader miss parks in
// its shard's lane for the window, then the lane is flushed to the shard
// as ONE Controller::query_batch of up to kMaxBatch keys — so a storm from
// V co-located VMs pays one shard round trip per (host, shard, window)
// instead of one per VM. At most one query_batch per (host, shard) is in
// flight: the next flush cannot start until the previous one drained its
// lane, so a shard's service-queue depth is bounded by the number of
// hosts, not the number of VMs. With a zero window a leader miss queries
// the controller alone.
//
// The cache subscribes itself to the controller's channels: a register
// broadcast purges any negative verdict for that key (a re-registered peer
// must not stay unresolvable until TTL expiry) and refreshes an
// already-cached entry, or plants it under insert_pushes; an invalidate
// broadcast evicts.
//
// Degraded mode: when the key's shard is unreachable, a cached entry whose
// last confirmation is younger than the staleness bound is still served
// (kOkDegraded, counted per shard) — established peers keep connecting
// through an outage — while entries past the bound and uncached keys
// report kUnavailable so callers fail fast instead of hanging. With a
// sharded controller the degradation is scoped: only keys hashing to the
// downed partition degrade; the rest of the cache keeps serving kOk.
class MappingCache {
 public:
  enum class ResolveStatus : std::uint8_t {
    kOk,          // fresh answer (cache hit or controller round trip)
    kOkDegraded,  // key's shard down; served stale-but-bounded from cache
    kNotFound,    // controller authoritatively says: no such key
    kUnavailable, // shard down and no fresh-enough cached answer
  };
  struct Resolution {
    ResolveStatus status = ResolveStatus::kUnavailable;
    std::optional<net::Gid> pgid;

    bool ok() const {
      return status == ResolveStatus::kOk ||
             status == ResolveStatus::kOkDegraded;
    }
  };

  MappingCache(sim::EventLoop& loop, Controller& controller,
               CacheConfig config = {});
  ~MappingCache();
  MappingCache(const MappingCache&) = delete;
  MappingCache& operator=(const MappingCache&) = delete;

  // One resolution, in a record the caller owns and keeps alive until
  // resolved() runs (DESIGN.md §12, "Lookup records"). A leader miss
  // travels as this record: its shard's lane, or the lone controller
  // query, fills `reply` or `error` and hands it back through answer().
  struct Lookup {
    VirtKey key;
    Controller::QueryReply reply{};
    std::exception_ptr error{};

    // Runs once per resolve(): for an answer the cache holds, hit_cost
    // after the lookup (inline when hit_cost <= 0); for a follower of an
    // in-flight query, in a zero-delay event once the leader's reply
    // lands; for the leader, inline in answer(), after its followers'
    // wakes are scheduled. With `error` set, `r` is empty.
    virtual void resolved(Resolution r) = 0;

   protected:
    ~Lookup() = default;
  };

  // The one resolve path. Writes the key into `lookup` and clears its
  // slots, so a record may be reused once it has been answered.
  void resolve(std::uint32_t vni, net::Gid vgid, Lookup& lookup);

  // resolve() for coroutines: `co_await cache.resolve_ex(vni, vgid)`. The
  // Lookup lives in the awaiting frame; an answer that comes inline does
  // not suspend it.
  class [[nodiscard]] Awaiter final : public Lookup {
   public:
    Awaiter(MappingCache& cache, VirtKey k) : cache_(cache) { key = k; }
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      cache_.resolve(key.vni, key.vgid, *this);
      if (answered_) return false;
      waiter_ = h;
      return true;
    }
    Resolution await_resume() const {
      if (error) std::rethrow_exception(error);
      return result_;
    }

   private:
    void resolved(Resolution r) override {
      result_ = r;
      if (waiter_) {
        waiter_.resume();
      } else {
        answered_ = true;
      }
    }

    MappingCache& cache_;
    std::coroutine_handle<> waiter_{};
    Resolution result_{};
    bool answered_ = false;
  };
  Awaiter resolve_ex(std::uint32_t vni, net::Gid vgid) {
    return Awaiter(*this, VirtKey{vni, vgid});
  }

  // Plants a mapping the controller vouched for (what a push does under
  // insert_pushes).
  void insert(std::uint32_t vni, net::Gid vgid, net::Gid pgid);
  void invalidate(std::uint32_t vni, net::Gid vgid);

  // Fault plane: consulted with the key hash before a cached entry is
  // served; returning true evicts the entry first (models expiry or
  // corruption detection). Null = off.
  void set_fault_probe(std::function<bool(std::uint64_t)> probe) {
    fault_probe_ = std::move(probe);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  // Concurrent misses that rode another miss's in-flight controller query.
  std::uint64_t single_flight_coalesced() const { return coalesced_; }
  // Lookups answered from the bounded negative cache.
  std::uint64_t negative_hits() const { return negative_hits_; }
  // Degraded-mode serves while the key's shard was unreachable.
  std::uint64_t degraded_serves() const { return degraded_serves_; }
  // Degraded-mode serves attributable to one shard's outage — the scale
  // harness proves a partition outage degrades only its partition.
  std::uint64_t degraded_serves(std::size_t shard) const {
    return degraded_by_shard_.at(shard);
  }
  // Resolutions that found the shard down and nothing fresh enough.
  std::uint64_t unavailable_results() const { return unavailable_; }
  // Entries evicted by the fault probe.
  std::uint64_t fault_expirations() const { return fault_expirations_; }
  // Lane flushes (query_batch round trips) and the keys they carried;
  // keys/batches is the amortization the lanes buy.
  std::uint64_t batches() const { return batches_; }
  std::uint64_t batched_keys() const { return batched_keys_; }
  // Pushes planted ahead of any miss (insert_pushes only).
  std::uint64_t prefills() const { return prefills_; }
  // Largest staleness (now - last confirmation) ever served in degraded
  // mode; the sweep asserts this stays <= staleness_bound().
  sim::Time max_served_staleness() const { return max_served_staleness_; }
  static constexpr sim::Time staleness_bound() { return kStalenessBound; }
  std::size_t size() const { return cache_.size(); }
  std::size_t bytes() const { return cache_.size() * kRecordBytes; }
  std::size_t negative_size() const { return negative_.size(); }
  static constexpr std::size_t max_negative_entries() {
    return kMaxNegativeEntries;
  }

  // Invariant auditing (src/check): streams every positive entry in sorted
  // key order — (vni, vgid, pgid, last confirmation time).
  void for_each_entry(
      const std::function<void(const VirtKey&, net::Gid, sim::Time)>& fn)
      const;

  // Test-only corruption hook: plants `pgid` for the key directly, bypassing
  // the controller-truth maintenance that insert()/on_push() perform. Used
  // to prove the coherence auditor trips on a wrong mapping.
  void corrupt_entry_for_test(std::uint32_t vni, net::Gid vgid,
                              net::Gid pgid);

 private:
  // Bound on the negative cache: it is a DoS shield, not a datastore.
  static constexpr std::size_t kMaxNegativeEntries = 1024;
  // How long a "known absent" verdict is served locally.
  static constexpr sim::Time kNegativeTtl = sim::milliseconds(1);
  // Degraded mode: how stale a cached mapping may be and still be served
  // while its shard is unreachable.
  static constexpr sim::Time kStalenessBound = sim::seconds(5);
  // Largest number of keys one lane flush carries; a lane holding more
  // drains in successive batches (still one in flight at a time).
  static constexpr std::size_t kMaxBatch = 64;

  struct Entry {
    net::Gid pgid;
    sim::Time confirmed_at = 0;  // when the controller last vouched for it
  };
  struct Lane {
    // Leader misses parked as their callers' Lookup records, in arrival
    // order.
    std::vector<Lookup*> pending;
    // One flush (scheduled or draining) at a time; also what bounds the
    // shard's service-queue depth to one entry per host.
    bool flush_active = false;
  };

  void on_push(std::uint32_t vni, net::Gid vgid, net::Gid pgid);
  // Answers a lookup the cache settles itself, hit_cost later.
  void serve_local(Lookup& lookup, Resolution r);
  // Lone leader miss (no lanes): one controller round trip, then answer().
  static sim::Task<void> query_controller(MappingCache* self, Lookup* leader,
                                          std::weak_ptr<const char> alive);
  // Parks a leader miss in its shard's lane and schedules the lane's flush
  // one batch window later.
  void park(Lookup* miss);
  // Drains one lane: repeated (chunk, query_batch, distribute) until the
  // lane is empty; each parked miss gets its reply and a zero-delay
  // answer(). Spawned detached; guarded by the liveness token.
  static sim::Task<void> flush_lane(MappingCache* self, std::size_t shard,
                                    std::weak_ptr<const char> alive);
  // Completes a leader miss whose `reply` or `error` is filled: installs
  // the verdict, schedules its followers' wakes in arrival order, then
  // answers the leader.
  void answer(Lookup& leader);

  sim::EventLoop& loop_;
  Controller& controller_;
  CacheConfig config_;
  Controller::SubId push_sub_ = 0;
  Controller::SubId invalidate_sub_ = 0;
  std::function<bool(std::uint64_t)> fault_probe_;
  sim::FlatMap<VirtKey, Entry, VirtKeyHash> cache_;
  // Key -> expiry time of the "known absent" verdict.
  sim::FlatMap<VirtKey, sim::Time, VirtKeyHash> negative_;
  // One leader query per key, with the lookups that joined it in arrival
  // order. A leader nobody joins allocates nothing.
  sim::FlatMap<VirtKey, std::vector<Lookup*>, VirtKeyHash> inflight_;
  // Keys invalidated while their leader query was in flight: the stale
  // result must not be installed when the leader returns.
  sim::FlatSet<VirtKey, VirtKeyHash> poisoned_;
  // One lane per shard when batch_window > 0; empty otherwise.
  std::vector<Lane> lanes_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t negative_hits_ = 0;
  std::uint64_t degraded_serves_ = 0;
  std::vector<std::uint64_t> degraded_by_shard_;
  std::uint64_t unavailable_ = 0;
  std::uint64_t fault_expirations_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_keys_ = 0;
  std::uint64_t prefills_ = 0;
  sim::Time max_served_staleness_ = 0;
  // Queries, lane flushes and wakes in flight outlive the cache if the
  // loop runs on after teardown; they stand down once this token dies, and
  // the lookups they carry are never answered.
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>(0);
};

}  // namespace sdn
