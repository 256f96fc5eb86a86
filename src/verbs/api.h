// Public Verbs API — the interface every application and benchmark in this
// repository programs against, modeled on libibverbs (Fig. 1).
//
// One Context == one opened device from one instance's point of view. The
// four virtualization candidates (Host-RDMA, SR-IOV, FreeFlow, MasQ)
// implement this same interface, so applications run unmodified on all of
// them — exactly how the paper evaluates (§4.1, Fig. 7).
//
// Control-path verbs are coroutines: they suspend the caller for their
// calibrated call time (Table 1). Data-path verbs are plain synchronous
// calls: post_send/post_recv enqueue WQEs and ring the doorbell; poll_cq
// never blocks. Coroutine applications use wait_completion() to sleep on a
// CQ instead of burning simulated time in a poll loop.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/physical_memory.h"
#include "net/addr.h"
#include "overlay/oob.h"
#include "rnic/types.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace verbs {

// Software layers a verb's cost can be attributed to (Fig. 16).
enum class Layer : std::uint8_t {
  kVerbsLib = 0,   // user-space library
  kVirtio = 1,     // virtqueue kick/interrupt transit
  kMasqDriver = 2, // MasQ frontend + backend processing
  kRdmaDriver = 3, // kernel RDMA driver + RNIC processing
};
inline constexpr int kNumLayers = 4;

const char* to_string(Layer layer);

// Per-verb, per-layer time accounting — the ftrace instrumentation of
// §4.2.3 / Fig. 16b.
class LayerProfile {
 public:
  void add(const std::string& verb, Layer layer, sim::Time t);
  sim::Time total(const std::string& verb) const;
  sim::Time by_layer(const std::string& verb, Layer layer) const;
  sim::Time grand_total() const;
  std::vector<std::string> verbs() const;
  void clear() { data_.clear(); }

 private:
  std::map<std::string, std::array<sim::Time, kNumLayers>> data_;
};

// The one profile label of a modify_qp, by target state: "modify_qp(INIT)",
// "modify_qp(RTR)", "modify_qp(RTS)", "modify_qp(ERROR)", or "modify_qp"
// for a modify to any other state or without a state change. Every layer
// files its share of one modify under this label.
const char* modify_qp_verb(const rnic::QpAttr& attr, std::uint32_t mask);

struct MrHandle {
  rnic::Key lkey = 0;
  rnic::Key rkey = 0;
  mem::Addr addr = 0;
  std::uint64_t length = 0;
};

// What peers exchange over the OOB (TCP) channel before modify_qp(RTR):
// QP number, GID and, for one-sided ops, an MR descriptor.
struct ConnInfo {
  rnic::Qpn qpn = 0;
  net::Gid gid;
  std::uint64_t raddr = 0;
  rnic::Key rkey = 0;
};

enum class DataVerb : std::uint8_t { kPostSend, kPostRecv, kPollCq };

// ---------------------------------------------------------------------------
// Warm-path connection setup (Swift-style; DESIGN.md §14).
//
// A WarmEndpoint is a pre-staged connection skeleton handed out by the
// context's warm pool:
//   * kPooled — PD + CQs + an INIT-state QP plus a pre-registered slab MR,
//     created by a background refill task, so connect only pays RTR→RTS;
//   * kReused — a parked RTS QP to a returning peer (`peer_qpn` records
//     whom it is wired to), so connect skips the ladder entirely once the
//     peer confirms its half is still parked too;
//   * kCold — the pool had nothing (disabled, drained, or degraded): the
//     caller falls back to the ordinary cold-path ladder.
// ---------------------------------------------------------------------------
enum class WarmKind : std::uint8_t { kCold, kPooled, kReused };

struct WarmEndpoint {
  WarmKind kind = WarmKind::kCold;
  rnic::PdId pd = 0;
  rnic::Cqn send_cq = 0;
  rnic::Cqn recv_cq = 0;
  rnic::Qpn qpn = 0;
  rnic::Qpn peer_qpn = 0;  // kReused: the remembered remote QPN
  MrHandle mr;             // pre-staged slab registration (pool-owned)

  bool warm() const { return kind != WarmKind::kCold; }
};

// ---------------------------------------------------------------------------
// Pipelined control-path submission.
//
// A ControlBatch queues control verbs (begin_batch), lets later entries
// reference earlier entries' results by slot (submit), and executes the
// whole sequence as one unit (sync/commit). Implementations that own a
// paravirtual command channel (MasQ) ship the entire batch in a single
// virtqueue transit — one kick, one interrupt — so a dependent chain like
// reg_mr -> create_cq -> create_qp -> modify_qp pays one ~20 us round trip
// instead of four. The default implementation executes the entries
// sequentially through the plain virtual verbs, so applications written
// against ControlBatch run unmodified on every candidate.
//
// Semantics (identical for batched and sequential execution):
//   * entries run in submission order;
//   * every entry runs even if an earlier one failed ("error
//     independence") — except entries whose declared slot dependency
//     failed, which inherit the dependency's status without executing;
//     a forward or out-of-range slot fails with kInvalidArgument;
//   * commit() returns the first per-entry error (kOk if none) and
//     per-slot results stay queryable afterwards.
// ---------------------------------------------------------------------------
class ControlBatch {
 public:
  virtual ~ControlBatch() = default;

  // Queue verbs; each returns the entry's slot index.
  virtual int reg_mr(rnic::PdId pd, mem::Addr addr, std::uint64_t len,
                     std::uint32_t access) = 0;
  virtual int create_cq(int cqe) = 0;
  // send_cq_slot / recv_cq_slot >= 0 link the QP's CQs to the result of an
  // earlier create_cq entry; pass -1 to use the values in `attr`.
  virtual int create_qp(const rnic::QpInitAttr& attr, int send_cq_slot = -1,
                        int recv_cq_slot = -1) = 0;
  virtual int modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                        std::uint32_t mask) = 0;
  // Like modify_qp, but the QPN comes from an earlier create_qp entry.
  virtual int modify_qp_slot(int qp_slot, const rnic::QpAttr& attr,
                             std::uint32_t mask) = 0;

  // Executes everything queued so far and waits for all results.
  virtual sim::Task<rnic::Status> commit() = 0;

  // Post-commit, per-slot results.
  [[nodiscard]] virtual rnic::Status status(int slot) const = 0;
  virtual std::uint64_t value(int slot) const = 0;  // cqn / qpn
  virtual MrHandle mr(int slot) const = 0;          // reg_mr slots only
  virtual int size() const = 0;
};

class Context {
 public:
  virtual ~Context() = default;

  virtual std::string name() const = 0;
  virtual sim::EventLoop& loop() = 0;

  // --- application memory ------------------------------------------------
  // Buffers live in the *instance's* address space (guest VA in a VM, host
  // VA on bare metal / containers).
  virtual mem::Addr alloc_buffer(std::uint64_t len) = 0;
  virtual void write_buffer(mem::Addr addr,
                            std::span<const std::uint8_t> in) = 0;
  virtual void read_buffer(mem::Addr addr, std::span<std::uint8_t> out) = 0;

  // --- control path (Fig. 1, red verbs) -----------------------------------
  virtual sim::Task<rnic::Expected<rnic::PdId>> alloc_pd() = 0;
  virtual sim::Task<rnic::Expected<MrHandle>> reg_mr(rnic::PdId pd,
                                                     mem::Addr addr,
                                                     std::uint64_t len,
                                                     std::uint32_t access) = 0;
  virtual sim::Task<rnic::Expected<rnic::Cqn>> create_cq(int cqe) = 0;
  // attr.pd / attr.send_cq / attr.recv_cq must be filled in by the caller.
  virtual sim::Task<rnic::Expected<rnic::Qpn>> create_qp(
      const rnic::QpInitAttr& attr) = 0;
  virtual sim::Task<rnic::Status> modify_qp(rnic::Qpn qpn,
                                            const rnic::QpAttr& attr,
                                            std::uint32_t mask) = 0;
  // GID index 0 of the instance's (virtual) RoCE device. Under MasQ this
  // is the vBond-maintained virtual GID; applications never see physical
  // addresses.
  virtual sim::Task<rnic::Expected<net::Gid>> query_gid() = 0;
  // ibv_query_qp: the QP context as visible to *this* application. Under
  // MasQ/FreeFlow this preserves the tenant's virtual addressing even
  // though the hardware QPC holds renamed physical addresses (§3.3.1).
  virtual sim::Task<rnic::Expected<rnic::QpAttr>> query_qp(rnic::Qpn qpn) = 0;
  virtual sim::Task<rnic::Status> destroy_qp(rnic::Qpn qpn) = 0;
  virtual sim::Task<rnic::Status> destroy_cq(rnic::Cqn cq) = 0;
  virtual sim::Task<rnic::Status> dereg_mr(const MrHandle& mr) = 0;
  virtual sim::Task<rnic::Status> dealloc_pd(rnic::PdId pd) = 0;

  // --- data path (Fig. 1, second phase) -----------------------------------
  [[nodiscard]] virtual rnic::Status post_send(rnic::Qpn qpn,
                                               const rnic::SendWr& wr) = 0;
  [[nodiscard]] virtual rnic::Status post_recv(rnic::Qpn qpn,
                                               const rnic::RecvWr& wr) = 0;
  virtual int poll_cq(rnic::Cqn cq, int max_entries,
                      rnic::Completion* out) = 0;
  virtual sim::Future<bool> cq_nonempty(rnic::Cqn cq) = 0;
  // Resolves when the next inbound message lands on `qpn` — the
  // application-visible effect of spin-reading a buffer that a peer
  // RDMA-writes into (ib_write_lat's detection loop).
  virtual sim::Future<bool> next_rx_event(rnic::Qpn qpn) = 0;

  // Advertised per-call CPU cost of each data-path verb (Fig. 8b). The
  // default is the hardware data path's: 200 ns to post (Table 1 row 11),
  // 30 ns to poll (row 12).
  virtual sim::Time data_verb_call_time(DataVerb v) const;

  // --- pipelined control path ---------------------------------------------
  // Begin a control-verb batch (see ControlBatch above). The default
  // executes sequentially at commit(); MasQ overrides it to coalesce the
  // batch into one virtqueue round trip.
  virtual std::unique_ptr<ControlBatch> make_batch();

  // --- warm-path connection setup (see WarmEndpoint above) -----------------
  // Acquire a pre-staged endpoint for a connection toward `peer_gid`. The
  // default (and any context without a warm pool) returns a kCold endpoint,
  // which callers treat as "run the ordinary ladder". Never fails: pool
  // exhaustion and pool faults degrade to kCold.
  virtual sim::Task<WarmEndpoint> acquire_warm(const net::Gid& peer_gid);
  // Park a still-RTS endpoint for reuse by a returning connection to
  // (peer_gid, peer_qpn) — lazy teardown: the pool reclaims it after an
  // idle timeout instead of destroying it inline.
  virtual sim::Task<void> release_warm(const WarmEndpoint& ep,
                                       const net::Gid& peer_gid,
                                       rnic::Qpn peer_qpn);
  // Tear the endpoint down now (reuse negotiation failed, QP errored, or
  // the pool is full). Safe on kCold endpoints (no-op).
  virtual sim::Task<void> discard_warm(const WarmEndpoint& ep);
  // Drop any parked connection toward `peer_gid` (peer rebooted / IP
  // changed); the parked resources are torn down in the background.
  virtual void invalidate_warm(const net::Gid& peer_gid);

  // --- environment ---------------------------------------------------------
  // The instance's out-of-band channel (virtual TCP) for exchanging
  // connection information.
  virtual overlay::OobEndpoint& oob() = 0;

  // Scales CPU-bound work by the instance's virtualization overhead
  // (VM > container == host); used by the application layer.
  virtual sim::Time scale_compute(sim::Time host_time) const = 0;

  // CPU cores the virtualization layer itself burns while the instance
  // drives network traffic (FreeFlow's FFR polls a core; MasQ/SR-IOV use
  // none — §4.4.3). Applications with tight core budgets subtract this.
  virtual double virtualization_cpu_cores() const { return 0.0; }

  // --- helpers (implemented on top of the virtuals) ------------------------
  // Suspends until a CQE is available, then returns it.
  sim::Task<rnic::Completion> wait_completion(rnic::Cqn cq);
  // Collects exactly n completions.
  sim::Task<std::vector<rnic::Completion>> wait_completions(rnic::Cqn cq,
                                                            int n);
  // Burns `host_time` of (scaled) CPU.
  sim::Task<void> compute(sim::Time host_time);

  LayerProfile& profile() { return profile_; }

 protected:
  // Charges `t` of user-space library time to `verb` and suspends for it.
  sim::Task<void> lib_charge(const char* verb, sim::Time t);

  LayerProfile profile_;
};

}  // namespace verbs
