// Simulated RoCEv2 RNIC.
//
// One device = one physical port (PF) plus SR-IOV virtual functions. The
// device executes the *data path* entirely: doorbells arrive by MMIO, WQEs
// are drained by a serial engine, payload bytes move by DMA through each
// MR's MTT, messages travel the fabric as fluid flows, and completions are
// raised in PSN order with RC ack/retry semantics. Control operations
// (create/modify/destroy) are pure bookkeeping here — the *driver* that
// calls them charges their latency, which is exactly the split that lets
// MasQ virtualize the control path without touching the data path.
//
// Network-virtualization hooks:
//  * per-VF hardware rate limiters exposed as virtual links (MasQ QoS),
//  * an on-NIC VXLAN tunnel table with a finite cache (SR-IOV baseline's
//    scalability cliff),
//  * frames carry whatever addresses the QPC holds — if a tenant's virtual
//    GID leaks into the QPC the frame is unroutable on the underlay, which
//    is the failure RConnrename exists to prevent.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/address_space.h"
#include "mem/physical_memory.h"
#include "net/addr.h"
#include "net/fluid.h"
#include "net/headers.h"
#include "rnic/completion_queue.h"
#include "rnic/costs.h"
#include "rnic/memory_region.h"
#include "rnic/qp_state.h"
#include "rnic/types.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/service_queue.h"
#include "sim/task.h"

namespace rnic {

class RnicDevice;

// Routes underlay IPs to devices (implemented by fabric::Testbed).
class FabricRouter {
 public:
  virtual ~FabricRouter() = default;
  virtual RnicDevice* device_by_ip(net::Ipv4Addr underlay_ip) = 0;
  // The fabric links (leaf/spine hops, DESIGN.md §17) a frame crosses
  // between two underlay endpoints, in wire order; inserted between the
  // sender's tx link and the receiver's rx link. The QPNs feed the ECMP
  // 5-tuple. Default: none — the two NIC links are the whole wire.
  virtual std::vector<net::LinkId> fabric_path(net::Ipv4Addr src_ip,
                                               net::Ipv4Addr dst_ip,
                                               Qpn src_qpn, Qpn dst_qpn) {
    (void)src_ip;
    (void)dst_ip;
    (void)src_qpn;
    (void)dst_qpn;
    return {};
  }
};

enum class MsgOp : std::uint8_t {
  kSend,
  kWrite,
  kWriteImm,
  kReadReq,
  kReadResp,
  kUdSend,
};

// One WQE's worth of data on the wire. MTU segmentation is charged as
// per-packet header bytes in the flow size, not simulated packet by packet.
struct Message {
  net::RoceFrame frame;
  MsgOp op = MsgOp::kSend;
  std::vector<std::uint8_t> payload;
  mem::Addr remote_addr = 0;      // write / read
  Key rkey = 0;                   // write / read
  std::uint32_t read_len = 0;     // read request
  std::uint32_t imm = 0;          // kWriteImm
  std::uint32_t psn = 0;
  Qpn src_qpn = 0;
  std::uint32_t qkey = 0;         // UD
  net::Ipv4Addr src_underlay;     // where acks go back to
};

struct MrInfo {
  Key lkey = 0;
  Key rkey = 0;
};

struct TunnelEntry {
  net::Gid phys_gid;
  std::uint32_t vni = 0;
};

struct FunctionInfo {
  FnId id = kPf;
  bool is_vf = false;
  net::MacAddr mac;
  net::Ipv4Addr ip;          // PF: underlay; SR-IOV VF: tenant address
  std::uint32_t vni = 0;     // tenant VNI (VXLAN offload mode)
  bool vxlan_offload = false;
  net::LinkId limiter_link = 0;  // virtual link modeling the VF rate limiter
};

struct DeviceConfig {
  std::string name = "rnic0";
  net::Ipv4Addr ip;   // PF underlay IP
  net::MacAddr mac;
  int num_vfs = 8;
  double link_gbps = 40.0;
  // One-way propagation is split half per link (tx link + rx link).
  sim::Time link_prop_oneway = sim::nanoseconds(200);
  bool iommu = false;  // SR-IOV passthrough pays VT-d per DMA
  int tunnel_cache_capacity = 128;
  // Resource-ID space: PD/MR/CQ/QP numbers are handed out from
  // (id_space << 20) + 1. Fabrics that live-migrate RNIC objects give every
  // device a disjoint space so a QP keeps its QPN on the destination host
  // with no chance of collision and no ID translation anywhere.
  std::uint32_t id_space = 0;
  DataPathCosts costs;
};

class RnicDevice : public mem::MmioDevice {
 public:
  RnicDevice(sim::EventLoop& loop, net::FluidNet& net, mem::HostPhysMap& phys,
             DeviceConfig config);
  ~RnicDevice() override;

  RnicDevice(const RnicDevice&) = delete;
  RnicDevice& operator=(const RnicDevice&) = delete;

  const DeviceConfig& config() const { return config_; }
  sim::EventLoop& loop() { return loop_; }
  mem::HostPhysMap& phys() { return phys_; }

  int num_functions() const { return static_cast<int>(fns_.size()); }
  FunctionInfo& fn(FnId id) { return fns_.at(id); }
  const FunctionInfo& fn(FnId id) const { return fns_.at(id); }
  // GID as derived from the function's current IP (index 0 only).
  net::Gid gid(FnId id) const;

  void attach(FabricRouter* router) { router_ = router; }
  net::LinkId rx_link() const { return rx_link_; }
  // Doorbell BAR base in host physical address space.
  mem::Addr doorbell_bar() const { return doorbell_bar_; }

  // Reconfigures a function's network identity (host driver / cloud agent).
  void set_fn_address(FnId id, net::Ipv4Addr ip, net::MacAddr mac,
                      std::uint32_t vni, bool vxlan_offload);
  // Programs the hardware rate limiter of a VF (Gbps; kUncapped to clear).
  void set_vf_rate_limit(FnId id, double gbps);
  double vf_rate_limit_gbps(FnId id) const;

  // VXLAN offload tunnel table (SR-IOV baseline).
  void program_tunnel(net::Gid virt_gid, TunnelEntry entry);
  std::uint64_t tunnel_cache_misses() const { return tunnel_misses_; }
  std::uint64_t tunnel_cache_hits() const { return tunnel_hits_; }

  // ------------------------------------------------------------------
  // Control bookkeeping (latency is charged by the calling driver).
  // ------------------------------------------------------------------
  [[nodiscard]] Expected<PdId> alloc_pd(FnId fn);
  [[nodiscard]] Status dealloc_pd(PdId pd);
  [[nodiscard]] Expected<MrInfo> create_mr(FnId fn, PdId pd, mem::Addr va, std::uint64_t len,
                             std::uint32_t access,
                             std::vector<mem::Segment> hpa_segments);
  [[nodiscard]] Status destroy_mr(Key lkey);
  [[nodiscard]] Expected<Cqn> create_cq(FnId fn, int capacity);
  [[nodiscard]] Status destroy_cq(Cqn cq);
  [[nodiscard]] Expected<Qpn> create_qp(FnId fn, const QpInitAttr& attr);
  [[nodiscard]] Status destroy_qp(Qpn qpn);
  // Validates the Fig. 5 FSM; transition to ERROR flushes all WQEs and
  // kills in-flight flows (Table 2).
  [[nodiscard]] Status modify_qp(Qpn qpn, const QpAttr& attr, std::uint32_t mask);

  // Introspection (tests / RConntrack / Fig. 18 drain accounting).
  bool qp_exists(Qpn qpn) const;
  QpState qp_state(Qpn qpn) const;
  // Count of legal state transitions this QP has performed (modify_qp and
  // hardware error edges both count; corrupt_qp_for_test deliberately does
  // not). The qp-state auditor (src/check) uses it to detect state changes
  // that happened outside any legal transition path.
  std::uint32_t qp_state_transitions(Qpn qpn) const;
  // All live QPNs in ascending order (the QP table itself is unordered;
  // auditors and teardown paths need a deterministic walk).
  std::vector<Qpn> qp_numbers() const;
  // Test-only corruption hook: overwrites a QP's state and hardware QPC
  // directly, bypassing the Fig. 5 FSM validation and the ERROR-transition
  // hooks. Exists to prove the src/check auditors trip on illegal states.
  void corrupt_qp_for_test(Qpn qpn, QpState state, const QpAttr& attr);
  // The QPC as the *hardware* sees it — tests assert RConnrename rewrote it.
  const QpAttr& qp_hw_attr(Qpn qpn) const;
  FnId qp_fn(Qpn qpn) const;
  std::size_t qp_outstanding(Qpn qpn) const;
  std::size_t num_qps() const { return qps_.size(); }
  // RNIC processing time to force this QP to ERROR right now (Fig. 18).
  sim::Time qp_error_processing_time(Qpn qpn) const;

  // ------------------------------------------------------------------
  // Live migration (masq::Migrator).
  // ------------------------------------------------------------------
  // True when nothing about this QP is in motion: the send engine is idle,
  // no WQE is launched-but-unacked, no fluid flow is on the wire, and no
  // out-of-order arrival is buffered. extract_qp() requires this — an
  // in-flight message resolved its destination device at transmit time and
  // cannot follow the QP to another host.
  bool qp_quiescent(Qpn qpn) const;

  // The complete serializable state of one quiescent QP. Waiter promises
  // are shared-state handles: moving them keeps application coroutines
  // (window backpressure, next_rx_event) attached across the move.
  struct QpSnapshot {
    Qpn qpn = 0;
    FnId fn = kPf;
    QpInitAttr init;
    QpState state = QpState::kReset;
    std::uint32_t state_transitions = 0;
    QpAttr attr;
    std::deque<SendWr> send_queue;
    std::deque<RecvWr> recv_queue;
    std::uint32_t next_tx_psn = 0;
    std::uint32_t next_ack_psn = 0;
    std::uint32_t next_rx_psn = 0;
    std::vector<sim::Promise<bool>> window_waiters;
    std::vector<sim::Promise<bool>> rx_waiters;
  };
  struct CqSnapshot {
    Cqn cqn = 0;
    int capacity = 0;
    CompletionQueue::State state;
  };
  struct MrSnapshot {
    Key lkey = 0;
    FnId fn = kPf;
    PdId pd = 0;
    mem::Addr va = 0;
    std::uint64_t len = 0;
    std::uint32_t access = 0;
  };

  // Removes the object from this device and returns its state. extract_qp
  // fails with kInvalidState unless qp_quiescent(); none of these settle
  // waiters or flush WQEs — the state moves, it does not die.
  [[nodiscard]] Expected<QpSnapshot> extract_qp(Qpn qpn);
  [[nodiscard]] Expected<CqSnapshot> extract_cq(Cqn cqn);
  [[nodiscard]] Expected<MrSnapshot> extract_mr(Key lkey);

  // Re-instantiates an extracted object on this device under its original
  // ID (disjoint id_space ranges guarantee no collision). restore_mr takes
  // the MTT resolved against the *destination* VM's address chain — guest
  // virtual addresses survive migration, physical ones do not. restore_pd
  // re-homes a PD id onto a function of this device.
  [[nodiscard]] Status restore_qp(QpSnapshot snap);
  [[nodiscard]] Status restore_cq(CqSnapshot snap);
  [[nodiscard]] Status restore_mr(const MrSnapshot& snap,
                                  std::vector<mem::Segment> hpa_segments);
  [[nodiscard]] Status restore_pd(PdId pd, FnId fn);

  // Deterministic digests for the no-WQE-lost migration auditor: FNV-1a
  // over the QP's queued WQEs and PSN cursors / the CQ's undelivered CQEs.
  // Taken on the source before extraction and recomputed on the
  // destination after restore; any lost or duplicated WQE changes them.
  std::uint64_t qp_wqe_digest(Qpn qpn) const;
  std::uint64_t cq_digest(Cqn cqn) const;
  std::size_t qp_send_queue_depth(Qpn qpn) const;
  std::size_t qp_recv_queue_depth(Qpn qpn) const;
  std::size_t cq_depth(Cqn cqn) const;

  // Fires on every transition into ERROR — via modify_qp or a data-path
  // fault. RConntrack subscribes so its table never keeps an entry for a
  // dead QP. Hooks run synchronously inside the transition; subscribers
  // that need driver work must defer it to the loop. Returns a token the
  // subscriber passes to remove_qp_error_hook() if it can die before the
  // device.
  using QpErrorHookId = std::uint64_t;
  QpErrorHookId on_qp_error(std::function<void(Qpn)> fn) {
    qp_error_hooks_.emplace_back(next_qp_error_hook_, std::move(fn));
    return next_qp_error_hook_++;
  }
  void remove_qp_error_hook(QpErrorHookId id) {
    std::erase_if(qp_error_hooks_,
                  [id](const auto& h) { return h.first == id; });
  }

  // ------------------------------------------------------------------
  // Data path.
  // ------------------------------------------------------------------
  // `ring_doorbell=false` enqueues the WQE without kicking the engine —
  // callers then ring through the MMIO BAR (the MasQ/SR-IOV guest path).
  [[nodiscard]] Status post_send(Qpn qpn, const SendWr& wr,
                                 bool ring_doorbell = true);
  [[nodiscard]] Status post_recv(Qpn qpn, const RecvWr& wr);
  int poll_cq(Cqn cq, int max_entries, Completion* out);
  sim::Future<bool> cq_nonempty(Cqn cq);
  bool cq_overflowed(Cqn cq) const;

  // Doorbell MMIO: offset = doorbell slot * 8. Slots are dense per-QP
  // registers assigned at create/restore and recycled LIFO at destroy, so
  // the 64Ki-register BAR bounds *live* QPs regardless of QPN values
  // (id_space-salted QPNs would overflow a QPN-indexed BAR).
  void mmio_write(mem::Addr offset, std::uint64_t value) override;
  std::uint64_t mmio_read(mem::Addr offset) override;
  // BAR offset of this QP's doorbell register (guest drivers add it to
  // their mapped BAR base).
  std::uint64_t doorbell_offset(Qpn qpn) const;

  // Resolves when the next inbound message for `qpn` has been processed
  // (models an application spin-polling its buffer, as ib_write_lat does,
  // without burning simulated events).
  sim::Future<bool> next_rx_event(Qpn qpn);

  // Fabric side: a message arrived at this device's port.
  void deliver(Message msg);
  // Fabric side: ack/nak for a message this device sent.
  void on_ack(Qpn src_qpn, std::uint32_t psn, WcStatus status);

  struct Counters {
    std::uint64_t tx_msgs = 0;
    std::uint64_t rx_msgs = 0;
    std::uint64_t dropped_bad_state = 0;  // Table 2: ERROR QPs drop packets
    std::uint64_t dropped_no_route = 0;   // unroutable underlay address
    std::uint64_t dropped_no_qp = 0;
    std::uint64_t rnr_drops = 0;
    std::uint64_t remote_access_naks = 0;
    std::uint64_t retransmits = 0;  // RC timeout-driven resends
  };
  const Counters& counters() const { return counters_; }

 private:
  struct PendingSend {
    SendWr wr;
    bool done = false;
    WcStatus status = WcStatus::kSuccess;
    // Retransmission state: a copy of the wire message plus the remaining
    // retry budget. RC only (UD keeps no pending entry).
    Message msg;
    int retries_left = 0;
  };

  struct Qp {
    Qpn qpn = 0;
    FnId fn = kPf;
    QpInitAttr init;
    QpState state = QpState::kReset;
    std::uint32_t state_transitions = 0;  // bumped by transition_qp only
    QpAttr attr;  // hardware view of the QPC
    std::deque<SendWr> send_queue;
    std::deque<RecvWr> recv_queue;
    bool engine_running = false;
    std::uint32_t next_tx_psn = 0;
    std::uint32_t outstanding = 0;  // launched, not yet acked
    std::uint32_t next_ack_psn = 0;
    // PSN-keyed, but only ever probed by exact key (next_ack_psn walks one
    // PSN at a time), so no ordered container is needed.
    sim::FlatMap<std::uint32_t, PendingSend> pending;  // psn -> in-flight
    std::uint32_t next_rx_psn = 0;
    sim::FlatMap<std::uint32_t, Message> reorder;  // early arrivals
    std::vector<net::FlowId> active_flows;
    std::vector<sim::Promise<bool>> window_waiters;
    std::vector<sim::Promise<bool>> rx_waiters;
  };

  Qp* find_qp(Qpn qpn);
  const Qp* find_qp(Qpn qpn) const;
  std::uint32_t assign_doorbell_slot(Qpn qpn);
  void release_doorbell_slot(Qpn qpn);
  // The single legal mutation point for Qp::state (keeps the transition
  // count honest).
  void transition_qp(Qp& qp, QpState to);
  CompletionQueue* find_cq(Cqn cq);
  MemoryRegion* find_mr(Key lkey);

  // Engine coroutine draining one QP's send queue.
  sim::Task<void> send_engine(Qpn qpn);
  void kick_engine(Qpn qpn);
  // Launches one WQE onto the wire. Returns false if it failed locally.
  void launch_wqe(Qp& qp, SendWr wr);
  // Validates a local sge against the MR table. Returns the MR or null.
  MemoryRegion* validate_local_sge(const Qp& qp, const Sge& sge,
                                   WcStatus* status);

  void post_completion(Cqn cq, const Completion& c);
  void post_send_cqe(Qp& qp, const SendWr& wr, WcStatus status,
                     std::uint32_t byte_len);
  // Marks psn done and posts CQEs for every consecutive finished psn.
  void drain_acks(Qp& qp);
  // Ack-timeout handler: resends the pending message (with wire headers
  // rebuilt from the live QPC) until the retry budget exhausts, then
  // reports transport-retry-exceeded.
  void maybe_retry(Qpn qpn, std::uint32_t psn);
  void flush_qp(Qp& qp);  // -> ERROR semantics: flush queues + kill flows
  void release_window_slot(Qp& qp);

  // Receive-side handlers (run after rx engine occupancy).
  void process_incoming(Message msg);
  void handle_in_order(Qp& qp, Message& msg);
  void send_ack(const Message& msg, WcStatus status);

  // Builds the wire frame for a WQE; applies VXLAN offload when the
  // function runs in offload mode. Returns false if no tunnel entry.
  bool build_frame(const Qp& qp, const FunctionInfo& f, MsgOp op,
                   std::uint32_t payload_len, const UdDest* ud,
                   net::RoceFrame* out);
  const TunnelEntry* tunnel_lookup(net::Gid virt_gid, sim::Time* extra_cost);

  // Starts the fluid flow carrying `msg` toward its underlay destination.
  void transmit(Qp& qp, Message msg, bool expect_ack);

  sim::EventLoop& loop_;
  net::FluidNet& net_;
  mem::HostPhysMap& phys_;
  DeviceConfig config_;
  FabricRouter* router_ = nullptr;

  net::LinkId tx_link_;
  net::LinkId rx_link_;
  mem::Addr doorbell_bar_;

  std::vector<FunctionInfo> fns_;
  sim::FlatMap<PdId, FnId> pds_;
  sim::FlatMap<Key, std::unique_ptr<MemoryRegion>> mrs_;
  sim::FlatMap<Cqn, std::unique_ptr<CompletionQueue>> cqs_;
  sim::FlatMap<Qpn, std::unique_ptr<Qp>> qps_;
  PdId next_pd_ = 1;
  Key next_key_ = 1;
  Cqn next_cq_ = 1;
  Qpn next_qpn_ = 1;

  // Doorbell register file: QP -> slot, slot -> QP, recycled slots (LIFO
  // keeps the register file dense and the reuse order deterministic).
  sim::FlatMap<Qpn, std::uint32_t> doorbell_slots_;
  std::vector<Qpn> doorbell_owner_;  // slot index -> QPN (0 = free)
  std::vector<std::uint32_t> doorbell_free_;

  sim::ServiceQueue engine_;  // shared WQE pipeline (tx and rx)

  // VXLAN tunnel table: full table in "DRAM" + finite on-chip LRU cache.
  sim::FlatMap<net::Gid, TunnelEntry> tunnel_table_;
  std::list<net::Gid> tunnel_lru_;  // front = most recent
  sim::FlatMap<net::Gid, std::list<net::Gid>::iterator> tunnel_cache_;
  std::uint64_t tunnel_hits_ = 0;
  std::uint64_t tunnel_misses_ = 0;

  std::vector<std::pair<QpErrorHookId, std::function<void(Qpn)>>>
      qp_error_hooks_;
  QpErrorHookId next_qp_error_hook_ = 1;

  Counters counters_;
};

}  // namespace rnic
