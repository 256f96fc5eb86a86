// MasQ backend driver (Fig. 3): the host-side half of the split driver.
//
// One Backend per host RNIC. It receives control commands from each VM's
// frontend over virtio, and before handing them to the unmodified kernel
// RDMA driver it applies the three MasQ mechanisms:
//   * vBond        — one per VM session; maintains the virtual GID,
//   * RConnrename  — rewrites the peer's virtual GID to the physical GID
//                    in modify_qp(RTR) / UD WQEs, via the controller +
//                    host-local mapping cache,
//   * RConntrack   — validates connections against security rules, tracks
//                    them, and tears down violators.
// It also implements QP-level QoS (§3.3.3): QPs are grouped by tenant and
// each group is mapped to an SR-IOV VF whose hardware rate limiter
// enforces the tenant's policy.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "hyp/instance.h"
#include "masq/commands.h"
#include "sim/faults.h"
#include "masq/rconntrack.h"
#include "masq/vbond.h"
#include "overlay/oob.h"
#include "rnic/device.h"
#include "sdn/controller.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "verbs/api.h"
#include "verbs/kernel_driver.h"

namespace masq {

// Swift-style warm-path connection setup (DESIGN.md §14). Off by default:
// with `enabled == false` no pool object is even constructed, so the cold
// path's event stream — and every golden number — is bit-identical to a
// build without the feature.
struct WarmPoolConfig {
  bool enabled = false;
  // Background refill keeps this many INIT-state QPs (each with its own CQ
  // pair) staged per tenant session.
  std::size_t target_ready = 4;
  // Parked (reusable RTS) connections kept per session before the oldest
  // is torn down to make room.
  std::size_t max_parked = 16;
  // Lazy teardown: a parked connection idle this long is reclaimed.
  sim::Time reclaim_after = sim::milliseconds(50);
  // Pacing between background refill ladders, so refill traffic trickles
  // instead of bursting into the virtqueue behind foreground verbs.
  sim::Time refill_gap = sim::microseconds(50);
  // Pre-staged MR slab registered once at pool start (Swift's pre-staged
  // registration); handed out with every warm endpoint.
  std::uint64_t slab_bytes = 64 * 1024;
  int cqe = 256;  // CQ depth for pooled endpoints
};

struct BackendConfig {
  // Map tenants to the PF instead of VFs: trades QoS isolation for
  // bare-metal latency (Fig. 9's "MasQ (PF)" variant).
  bool map_tenants_to_pf = false;
  // Per-command processing in the MasQ frontend+backend pair. Anchor:
  // Fig. 16b — the "MasQ Driver" layer is < 20% of each verb's cost.
  sim::Time command_overhead = sim::microseconds(2);
  // Ablation: disable the host-local mapping cache so every RConnrename
  // pays the controller round trip (§4.2.3 discussion).
  bool disable_mapping_cache = false;
  verbs::DriverCosts driver_costs;
  RConntrackCosts conntrack_costs;
  sim::Time mapping_cache_hit = sim::microseconds(2);  // §3.3.1
  // Frontend control-path retry policy (shared config so frontends and
  // tests agree on deadlines).
  RetryPolicy retry;
  // Fault plane, or null for a fault-free run. Not owned; must outlive
  // the backend. Wired through to the mapping cache's expiry probe and
  // the per-command failure site.
  sim::FaultPlane* faults = nullptr;
  // Warm-path pool knobs; frontends consult this at construction.
  WarmPoolConfig warm;
};

class Backend {
 public:
  Backend(sim::EventLoop& loop, rnic::RnicDevice& device,
          sdn::Controller& controller, overlay::VirtualNetwork& vnet,
          BackendConfig config = {});
  // Unhooks the device before members are torn down: the device must
  // never call into a backend that is mid-destruction.
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // One Session per served VM — the state the backend keeps for a tenant
  // instance (assigned function, kernel-driver handle, vBond).
  class Session {
   public:
    Session(Backend& backend, hyp::Vm& vm, rnic::FnId fn);

    // Processes one envelope (what the virtqueue delivers). The virtqueue
    // transit time is charged by the frontend; this charges backend
    // processing + the kernel driver + any RConnrename/RConntrack work.
    //
    // Handling is idempotent: a cmd_id the session already executed
    // returns the memoized response; one still executing coalesces onto
    // its in-flight future — so a frontend retry racing the original, or a
    // duplicated descriptor, never runs a command twice. Retryable
    // (transient) responses — injected via FaultPlane::fail_command or a
    // real kUnavailable — are NOT memoized, so a backoff retry under the
    // same cmd_id re-executes instead of replaying the failure.
    //
    // The batch is drained in one wakeup: entries run in submission order
    // through the same per-command path, and one failed entry does not
    // poison its batchmates. The fault plane draws once for the envelope
    // and once per entry, at every batch size.
    sim::Task<Response> handle(Envelope env);

    std::uint64_t dedup_hits() const { return dedup_hits_; }

    // Live-object accounting: RNIC objects this session currently holds,
    // by kind, read off the owned_* sets. The warm pool's lazy teardown is
    // proven against these — parked connections keep live_qps high until
    // the idle reclaim fires, then the counts settle back to the
    // application's working set.
    std::uint64_t live_qps() const { return owned_qps_.size(); }
    std::uint64_t live_cqs() const { return owned_cqs_.size(); }
    std::uint64_t live_mrs() const { return owned_mrs_.size(); }
    std::uint64_t qps_created() const { return qps_created_; }
    std::uint64_t qps_destroyed() const { return qps_destroyed_; }

    Backend& backend() { return backend_; }
    hyp::Vm& vm() { return vm_; }
    rnic::FnId fn() const { return fn_; }
    verbs::KernelDriver& driver() { return driver_; }
    VBond& vbond() { return vbond_; }
    std::uint32_t vni() const { return vm_.config().vni; }

    // Object inventory: the RNIC object IDs this tenant currently owns, in
    // creation order — the session's one ownership record. Live migration
    // enumerates these to know exactly what must move with the VM.
    const sim::FlatSet<rnic::Qpn>& owned_qps() const { return owned_qps_; }
    const sim::FlatSet<rnic::Cqn>& owned_cqs() const { return owned_cqs_; }
    const sim::FlatSet<rnic::Key>& owned_mrs() const { return owned_mrs_; }
    const sim::FlatSet<rnic::PdId>& owned_pds() const { return owned_pds_; }
    const sim::FlatMap<rnic::Qpn, rnic::QpAttr>& tenant_view() const {
      return tenant_view_;
    }

    // Live-migration adoption: accounts a restored object to this session
    // (the device-level restore already happened). adopt_qp re-installs
    // the tenant's virtual-address view of the QPC when the source session
    // had one — the hardware view moved with the device snapshot.
    void adopt_qp(rnic::Qpn qpn, const rnic::QpAttr* tenant_attr);
    void adopt_cq(rnic::Cqn cq);
    void adopt_mr(rnic::Key lkey);
    void adopt_pd(rnic::PdId pd);

    // Lets the frontend's LayerProfile observe backend-side charges.
    void set_profile(verbs::LayerProfile* profile);

    // Not forwarded over virtio (Table 1: pure software).
    sim::Task<Response> alloc_pd_local();
    sim::Task<Response> dealloc_pd_local(rnic::PdId pd);

   private:
    // One command through dispatch + MasQ-driver charge.
    sim::Task<Response> handle_one(Command cmd);
    // Drains a whole batch in one backend wakeup.
    sim::Task<Response> handle_batch(CmdBatch batch);
    sim::Task<Response> on_reg_mr(const CmdRegMr& cmd);
    sim::Task<Response> on_query_qp(const CmdQueryQp& cmd);
    sim::Task<Response> on_create_cq(const CmdCreateCq& cmd);
    sim::Task<Response> on_create_qp(const CmdCreateQp& cmd);
    sim::Task<Response> on_modify_qp(const CmdModifyQp& cmd);
    sim::Task<Response> on_destroy_qp(const CmdDestroyQp& cmd);
    sim::Task<Response> on_destroy_cq(const CmdDestroyCq& cmd);
    sim::Task<Response> on_dereg_mr(const CmdDeregMr& cmd);
    sim::Task<Response> on_ud_send(const CmdUdSend& cmd);

    Backend& backend_;
    hyp::Vm& vm_;
    rnic::FnId fn_;
    verbs::KernelDriver driver_;
    VBond vbond_;
    verbs::LayerProfile* profile_ = nullptr;
    // The tenant's view of each QPC — virtual addresses as the application
    // configured them, maintained alongside the renamed hardware view.
    sim::FlatMap<rnic::Qpn, rnic::QpAttr> tenant_view_;
    // Idempotency window: memoized responses by cmd_id, FIFO-evicted. The
    // window only has to outlive a frontend's bounded retries, not the
    // session.
    static constexpr std::size_t kDedupWindow = 1024;
    sim::FlatMap<std::uint64_t, Response> completed_cmds_;
    std::deque<std::uint64_t> completed_order_;
    // cmd_id -> future of the execution currently in flight.
    sim::FlatMap<std::uint64_t, sim::Future<Response>> inflight_cmds_;
    std::uint64_t dedup_hits_ = 0;
    std::uint64_t qps_created_ = 0;
    std::uint64_t qps_destroyed_ = 0;
    sim::FlatSet<rnic::Qpn> owned_qps_;
    sim::FlatSet<rnic::Cqn> owned_cqs_;
    sim::FlatSet<rnic::Key> owned_mrs_;
    sim::FlatSet<rnic::PdId> owned_pds_;
  };

  // Registers a VM with this backend: assigns a device function by the
  // QoS grouping policy and boots the session's vBond.
  Session& register_vm(hyp::Vm& vm);

  // Live-migration handover: detaches and destroys `session`. The caller
  // must have released the session's vBond first if the (VNI, vGID)
  // registration is to survive the teardown, and must not hold references
  // into the session afterwards.
  void remove_session(Session& session);

  // QoS (§3.3.3): programs the hardware rate limiter of a tenant's VF.
  void set_tenant_rate_limit(std::uint32_t vni, double gbps);
  rnic::FnId tenant_fn(std::uint32_t vni);

  sim::EventLoop& loop() { return loop_; }
  rnic::RnicDevice& device() { return device_; }
  sdn::Controller& controller() { return controller_; }
  // The host's SDN tier: its one mapping cache, pre-warmed by every push.
  sdn::MappingCache& mapping_cache() { return cache_; }
  RConntrack& conntrack() { return conntrack_; }
  const BackendConfig& config() const { return config_; }
  sim::FaultPlane* faults() { return config_.faults; }

  // QP-ERROR purges scheduled but not yet applied to the RConntrack table.
  // While nonzero, an RConntrack row referencing an ERROR'd QP is a
  // not-yet-drained repair, not an invariant violation (src/check).
  std::uint64_t pending_qp_purges() const { return pending_qp_purges_; }

 private:
  // Runs the deferred purge and then settles the pending count (guarded by
  // the liveness flag: the loop may drain this after the backend died).
  sim::Task<void> purge_and_settle(rnic::Qpn qpn,
                                   std::weak_ptr<const char> alive);
  sim::EventLoop& loop_;
  rnic::RnicDevice& device_;
  sdn::Controller& controller_;
  overlay::VirtualNetwork& vnet_;
  BackendConfig config_;
  sdn::MappingCache cache_;
  rnic::RnicDevice::QpErrorHookId qp_error_sub_ = 0;
  // Keeps loop callbacks deferred by the qp-error hook from touching a
  // destroyed backend: they capture a weak_ptr and stand down once this
  // is reset.
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>(0);
  RConntrack conntrack_;
  sim::FlatMap<std::uint32_t, rnic::FnId> tenant_fn_;
  rnic::FnId next_vf_ = 1;
  std::uint64_t pending_qp_purges_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace masq
