#include "rnic/device.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/log.h"

namespace rnic {

namespace {
// RC transport retry budget: if no ack arrives this long after the last
// byte left the wire, the requester retransmits; after kRcRetryCount
// resends it reports transport-retry-exceeded. Retransmissions rebuild
// the wire headers from the live QPC, so a peer whose address was renamed
// mid-flight (transparent live migration) is reached on the next attempt.
constexpr sim::Time kRetryTimeout = sim::milliseconds(4.0);
constexpr int kRcRetryCount = 7;  // IB retry_cnt default
// Doorbell BAR: one 8-byte register per live QP (slot-indexed), 64Ki slots.
constexpr mem::Addr kDoorbellBarBytes = 64 * 1024 * 8;

// FNV-1a, the migration-digest hash (deterministic, order-sensitive).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
void fnv_mix(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xff;
    *h *= kFnvPrime;
  }
}
}  // namespace

RnicDevice::RnicDevice(sim::EventLoop& loop, net::FluidNet& net,
                       mem::HostPhysMap& phys, DeviceConfig config)
    : loop_(loop), net_(net), phys_(phys), config_(std::move(config)),
      engine_(loop) {
  tx_link_ = net_.add_link(config_.link_gbps, config_.link_prop_oneway / 2);
  rx_link_ = net_.add_link(config_.link_gbps, config_.link_prop_oneway / 2);
  doorbell_bar_ = phys_.register_mmio(kDoorbellBarBytes, this);
  // Disjoint per-device ID ranges (migration keeps object IDs verbatim).
  const std::uint64_t id_base =
      (static_cast<std::uint64_t>(config_.id_space) << 20) + 1;
  next_pd_ = static_cast<PdId>(id_base);
  next_key_ = static_cast<Key>(id_base);
  next_cq_ = static_cast<Cqn>(id_base);
  next_qpn_ = static_cast<Qpn>(id_base);

  fns_.resize(1 + config_.num_vfs);
  fns_[kPf] = FunctionInfo{kPf, false, config_.mac, config_.ip, 0, false, 0};
  for (int i = 1; i <= config_.num_vfs; ++i) {
    FunctionInfo f;
    f.id = static_cast<FnId>(i);
    f.is_vf = true;
    // Each VF's hardware rate limiter is a virtual link, uncapped (line
    // rate) until QoS programs it.
    f.limiter_link = net_.add_link(config_.link_gbps, 0);
    fns_[i] = f;
  }
}

RnicDevice::~RnicDevice() {
  // Walk in QPN order: cancel_flow reallocates the fluid net, so the
  // cancellation order must not depend on hash-table layout.
  for (Qpn qpn : qp_numbers()) {
    for (net::FlowId fl : qps_.at(qpn)->active_flows) net_.cancel_flow(fl);
  }
}

std::vector<Qpn> RnicDevice::qp_numbers() const {
  std::vector<Qpn> out;
  out.reserve(qps_.size());
  for (const auto& [qpn, qp] :
       qps_) {  // masq-lint: allow(unordered-iter) sorted before use
    out.push_back(qpn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RnicDevice::corrupt_qp_for_test(Qpn qpn, QpState state,
                                     const QpAttr& attr) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::invalid_argument("corrupt_qp_for_test: no QP");
  qp->state = state;
  qp->attr = attr;
}

net::Gid RnicDevice::gid(FnId id) const {
  return net::Gid::from_ipv4(fns_.at(id).ip);
}

void RnicDevice::set_fn_address(FnId id, net::Ipv4Addr ip, net::MacAddr mac,
                                std::uint32_t vni, bool vxlan_offload) {
  FunctionInfo& f = fns_.at(id);
  f.ip = ip;
  f.mac = mac;
  f.vni = vni;
  f.vxlan_offload = vxlan_offload;
}

void RnicDevice::set_vf_rate_limit(FnId id, double gbps) {
  FunctionInfo& f = fns_.at(id);
  if (!f.is_vf) {
    throw std::invalid_argument("rate limiters exist per VF, not on the PF");
  }
  net_.set_link_capacity(f.limiter_link,
                         gbps == net::kUncapped ? config_.link_gbps : gbps);
}

double RnicDevice::vf_rate_limit_gbps(FnId id) const {
  return net_.link_capacity_gbps(fns_.at(id).limiter_link);
}

void RnicDevice::program_tunnel(net::Gid virt_gid, TunnelEntry entry) {
  tunnel_table_[virt_gid] = entry;
}

const TunnelEntry* RnicDevice::tunnel_lookup(net::Gid virt_gid,
                                             sim::Time* extra_cost) {
  auto it = tunnel_table_.find(virt_gid);
  if (it == tunnel_table_.end()) return nullptr;
  auto cit = tunnel_cache_.find(virt_gid);
  if (cit != tunnel_cache_.end()) {
    ++tunnel_hits_;
    *extra_cost += config_.costs.tunnel_cache_hit;
    tunnel_lru_.splice(tunnel_lru_.begin(), tunnel_lru_, cit->second);
  } else {
    ++tunnel_misses_;
    *extra_cost += config_.costs.tunnel_cache_miss;
    tunnel_lru_.push_front(virt_gid);
    tunnel_cache_[virt_gid] = tunnel_lru_.begin();
    if (static_cast<int>(tunnel_cache_.size()) >
        config_.tunnel_cache_capacity) {
      tunnel_cache_.erase(tunnel_lru_.back());
      tunnel_lru_.pop_back();
    }
  }
  return &it->second;
}

// ---------------------------------------------------------------------------
// Control bookkeeping.
// ---------------------------------------------------------------------------

Expected<PdId> RnicDevice::alloc_pd(FnId fn) {
  if (fn >= fns_.size()) return Expected<PdId>::error(Status::kInvalidArgument);
  const PdId pd = next_pd_++;
  pds_[pd] = fn;
  return Expected<PdId>::of(pd);
}

Status RnicDevice::dealloc_pd(PdId pd) {
  return pds_.erase(pd) ? Status::kOk : Status::kNotFound;
}

Expected<MrInfo> RnicDevice::create_mr(FnId fn, PdId pd, mem::Addr va,
                                       std::uint64_t len, std::uint32_t access,
                                       std::vector<mem::Segment> hpa_segments) {
  if (fn >= fns_.size() || len == 0) {
    return Expected<MrInfo>::error(Status::kInvalidArgument);
  }
  auto pit = pds_.find(pd);
  if (pit == pds_.end() || pit->second != fn) {
    return Expected<MrInfo>::error(Status::kNotFound);
  }
  std::uint64_t covered = 0;
  for (const auto& s : hpa_segments) covered += s.len;
  if (covered < len) {
    return Expected<MrInfo>::error(Status::kInvalidArgument);
  }
  const Key key = next_key_++;
  mrs_[key] = std::make_unique<MemoryRegion>(key, fn, pd, va, len, access,
                                             std::move(hpa_segments), &phys_);
  return Expected<MrInfo>::of(MrInfo{key, key});
}

Status RnicDevice::destroy_mr(Key lkey) {
  return mrs_.erase(lkey) ? Status::kOk : Status::kNotFound;
}

Expected<Cqn> RnicDevice::create_cq(FnId fn, int capacity) {
  if (fn >= fns_.size() || capacity <= 0) {
    return Expected<Cqn>::error(Status::kInvalidArgument);
  }
  const Cqn id = next_cq_++;
  cqs_[id] = std::make_unique<CompletionQueue>(loop_, id, capacity);
  return Expected<Cqn>::of(id);
}

Status RnicDevice::destroy_cq(Cqn cq) {
  return cqs_.erase(cq) ? Status::kOk : Status::kNotFound;
}

Expected<Qpn> RnicDevice::create_qp(FnId fn, const QpInitAttr& attr) {
  if (fn >= fns_.size()) return Expected<Qpn>::error(Status::kInvalidArgument);
  auto pit = pds_.find(attr.pd);
  if (pit == pds_.end() || pit->second != fn) {
    return Expected<Qpn>::error(Status::kNotFound);
  }
  if (cqs_.count(attr.send_cq) == 0 || cqs_.count(attr.recv_cq) == 0) {
    return Expected<Qpn>::error(Status::kNotFound);
  }
  const Qpn qpn = next_qpn_++;
  auto qp = std::make_unique<Qp>();
  qp->qpn = qpn;
  qp->fn = fn;
  qp->init = attr;
  qps_[qpn] = std::move(qp);
  assign_doorbell_slot(qpn);
  return Expected<Qpn>::of(qpn);
}

Status RnicDevice::destroy_qp(Qpn qpn) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return Status::kNotFound;
  for (net::FlowId fl : qp->active_flows) net_.cancel_flow(fl);
  for (auto& w : qp->window_waiters) w.set_value(true);
  release_doorbell_slot(qpn);
  qps_.erase(qpn);
  return Status::kOk;
}

Status RnicDevice::modify_qp(Qpn qpn, const QpAttr& attr, std::uint32_t mask) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return Status::kNotFound;
  if (mask & kAttrState) {
    if (!modify_allowed(qp->state, attr.state)) {
      return Status::kInvalidState;
    }
  }
  if (mask & kAttrDestGid) qp->attr.dest_gid = attr.dest_gid;
  if (mask & kAttrDestQpn) qp->attr.dest_qpn = attr.dest_qpn;
  if (mask & kAttrPathMtu) qp->attr.path_mtu = attr.path_mtu;
  if (mask & kAttrRqPsn) {
    qp->attr.rq_psn = attr.rq_psn;
    qp->next_rx_psn = attr.rq_psn;
  }
  if (mask & kAttrSqPsn) {
    qp->attr.sq_psn = attr.sq_psn;
    qp->next_tx_psn = attr.sq_psn;
    qp->next_ack_psn = attr.sq_psn;
  }
  if (mask & kAttrQkey) qp->attr.qkey = attr.qkey;
  if (mask & kAttrState) {
    const QpState prev = qp->state;
    transition_qp(*qp, attr.state);
    qp->attr.state = attr.state;
    if (attr.state == QpState::kError && prev != QpState::kError) {
      flush_qp(*qp);
    } else if (attr.state == QpState::kReset) {
      for (net::FlowId fl : qp->active_flows) net_.cancel_flow(fl);
      qp->active_flows.clear();
      qp->send_queue.clear();
      qp->recv_queue.clear();
      qp->pending.clear();
      qp->reorder.clear();
      qp->outstanding = 0;
      qp->next_tx_psn = qp->next_ack_psn = qp->next_rx_psn = 0;
      for (auto& w : qp->window_waiters) w.set_value(true);
      qp->window_waiters.clear();
    } else if (attr.state == QpState::kRts) {
      kick_engine(qpn);
    }
  }
  return Status::kOk;
}

bool RnicDevice::qp_exists(Qpn qpn) const { return find_qp(qpn) != nullptr; }

QpState RnicDevice::qp_state(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_state: no such QP");
  return qp->state;
}

std::uint32_t RnicDevice::qp_state_transitions(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) {
    throw std::out_of_range("qp_state_transitions: no such QP");
  }
  return qp->state_transitions;
}

void RnicDevice::transition_qp(Qp& qp, QpState to) {
  qp.state = to;
  ++qp.state_transitions;
}

const QpAttr& RnicDevice::qp_hw_attr(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_hw_attr: no such QP");
  return qp->attr;
}

FnId RnicDevice::qp_fn(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_fn: no such QP");
  return qp->fn;
}

std::size_t RnicDevice::qp_outstanding(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_outstanding: no such QP");
  return qp->outstanding;
}

sim::Time RnicDevice::qp_error_processing_time(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) return 0;
  const auto& c = config_.costs;
  const sim::Time base =
      fns_.at(qp->fn).is_vf ? c.qp_error_vf : c.qp_error_pf;
  const std::size_t wqes =
      qp->outstanding + qp->send_queue.size() + qp->recv_queue.size();
  return base + c.qp_error_drain_per_wqe * static_cast<sim::Time>(wqes);
}

// ---------------------------------------------------------------------------
// Live migration: extraction, restore, digests.
// ---------------------------------------------------------------------------

bool RnicDevice::qp_quiescent(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_quiescent: no such QP");
  // engine_running covers the window where a WQE has been popped off the
  // send queue but not yet launched (it is in neither queue nor pending
  // there — invisible to every other counter).
  return !qp->engine_running && qp->outstanding == 0 && qp->pending.empty() &&
         qp->active_flows.empty() && qp->reorder.empty();
}

Expected<RnicDevice::QpSnapshot> RnicDevice::extract_qp(Qpn qpn) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return Expected<QpSnapshot>::error(Status::kNotFound);
  if (!qp_quiescent(qpn)) {
    return Expected<QpSnapshot>::error(Status::kInvalidState);
  }
  QpSnapshot snap;
  snap.qpn = qp->qpn;
  snap.fn = qp->fn;
  snap.init = qp->init;
  snap.state = qp->state;
  snap.state_transitions = qp->state_transitions;
  snap.attr = qp->attr;
  snap.send_queue = std::move(qp->send_queue);
  snap.recv_queue = std::move(qp->recv_queue);
  snap.next_tx_psn = qp->next_tx_psn;
  snap.next_ack_psn = qp->next_ack_psn;
  snap.next_rx_psn = qp->next_rx_psn;
  snap.window_waiters = std::move(qp->window_waiters);
  snap.rx_waiters = std::move(qp->rx_waiters);
  release_doorbell_slot(qpn);
  qps_.erase(qpn);
  return Expected<QpSnapshot>::of(std::move(snap));
}

Expected<RnicDevice::CqSnapshot> RnicDevice::extract_cq(Cqn cqn) {
  auto it = cqs_.find(cqn);
  if (it == cqs_.end()) return Expected<CqSnapshot>::error(Status::kNotFound);
  CqSnapshot snap;
  snap.cqn = cqn;
  snap.capacity = it->second->capacity();
  snap.state = it->second->extract_state();
  cqs_.erase(it);
  return Expected<CqSnapshot>::of(std::move(snap));
}

Expected<RnicDevice::MrSnapshot> RnicDevice::extract_mr(Key lkey) {
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) return Expected<MrSnapshot>::error(Status::kNotFound);
  const MemoryRegion& mr = *it->second;
  MrSnapshot snap{mr.lkey(), mr.fn(), mr.pd(), mr.va(), mr.length(),
                  mr.access()};
  mrs_.erase(it);
  return Expected<MrSnapshot>::of(snap);
}

Status RnicDevice::restore_qp(QpSnapshot snap) {
  if (find_qp(snap.qpn) != nullptr) return Status::kInvalidArgument;
  if (snap.fn >= fns_.size()) return Status::kInvalidArgument;
  auto qp = std::make_unique<Qp>();
  qp->qpn = snap.qpn;
  qp->fn = snap.fn;
  qp->init = snap.init;
  qp->state = snap.state;
  qp->state_transitions = snap.state_transitions;
  qp->attr = snap.attr;
  qp->send_queue = std::move(snap.send_queue);
  qp->recv_queue = std::move(snap.recv_queue);
  qp->next_tx_psn = snap.next_tx_psn;
  qp->next_ack_psn = snap.next_ack_psn;
  qp->next_rx_psn = snap.next_rx_psn;
  qp->window_waiters = std::move(snap.window_waiters);
  qp->rx_waiters = std::move(snap.rx_waiters);
  const Qpn qpn = qp->qpn;
  qps_[qpn] = std::move(qp);
  assign_doorbell_slot(qpn);
  // A QP restored directly into RTS with queued WQEs resumes on its own;
  // the usual resume path restores into SQD and kicks via modify_qp(RTS).
  if (can_transmit(qps_.at(qpn)->state)) kick_engine(qpn);
  return Status::kOk;
}

Status RnicDevice::restore_cq(CqSnapshot snap) {
  if (cqs_.count(snap.cqn) != 0) return Status::kInvalidArgument;
  auto cq = std::make_unique<CompletionQueue>(loop_, snap.cqn, snap.capacity);
  cq->restore_state(std::move(snap.state));
  cqs_[snap.cqn] = std::move(cq);
  return Status::kOk;
}

Status RnicDevice::restore_mr(const MrSnapshot& snap,
                              std::vector<mem::Segment> hpa_segments) {
  if (mrs_.count(snap.lkey) != 0) return Status::kInvalidArgument;
  if (snap.fn >= fns_.size()) return Status::kInvalidArgument;
  std::uint64_t covered = 0;
  for (const auto& s : hpa_segments) covered += s.len;
  if (covered < snap.len) return Status::kInvalidArgument;
  mrs_[snap.lkey] = std::make_unique<MemoryRegion>(
      snap.lkey, snap.fn, snap.pd, snap.va, snap.len, snap.access,
      std::move(hpa_segments), &phys_);
  return Status::kOk;
}

Status RnicDevice::restore_pd(PdId pd, FnId fn) {
  if (fn >= fns_.size()) return Status::kInvalidArgument;
  if (pds_.count(pd) != 0) return Status::kInvalidArgument;
  pds_[pd] = fn;
  return Status::kOk;
}

std::uint64_t RnicDevice::qp_wqe_digest(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_wqe_digest: no such QP");
  std::uint64_t h = kFnvOffset;
  fnv_mix(&h, qp->qpn);
  fnv_mix(&h, qp->send_queue.size());
  for (const SendWr& wr : qp->send_queue) {
    fnv_mix(&h, wr.wr_id);
    fnv_mix(&h, static_cast<std::uint64_t>(wr.opcode));
    fnv_mix(&h, wr.sge.length);
    fnv_mix(&h, wr.signaled ? 1 : 0);
  }
  fnv_mix(&h, qp->recv_queue.size());
  for (const RecvWr& wr : qp->recv_queue) fnv_mix(&h, wr.wr_id);
  fnv_mix(&h, qp->next_tx_psn);
  fnv_mix(&h, qp->next_ack_psn);
  fnv_mix(&h, qp->next_rx_psn);
  fnv_mix(&h, qp->pending.size());
  return h;
}

std::uint64_t RnicDevice::cq_digest(Cqn cqn) const {
  auto it = cqs_.find(cqn);
  if (it == cqs_.end()) throw std::out_of_range("cq_digest: no such CQ");
  std::uint64_t h = kFnvOffset;
  fnv_mix(&h, cqn);
  fnv_mix(&h, it->second->depth());
  // Undelivered CQEs are part of the WQE ledger: dropping one across the
  // move loses a completion the application is still owed.
  it->second->for_each_cqe([&h](const Completion& c) {
    fnv_mix(&h, c.wr_id);
    fnv_mix(&h, static_cast<std::uint64_t>(c.status));
    fnv_mix(&h, static_cast<std::uint64_t>(c.opcode));
    fnv_mix(&h, c.byte_len);
    fnv_mix(&h, c.qpn);
  });
  fnv_mix(&h, it->second->overflowed() ? 1 : 0);
  return h;
}

std::size_t RnicDevice::qp_send_queue_depth(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_send_queue_depth: no QP");
  return qp->send_queue.size();
}

std::size_t RnicDevice::qp_recv_queue_depth(Qpn qpn) const {
  const Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("qp_recv_queue_depth: no QP");
  return qp->recv_queue.size();
}

std::size_t RnicDevice::cq_depth(Cqn cqn) const {
  auto it = cqs_.find(cqn);
  if (it == cqs_.end()) throw std::out_of_range("cq_depth: no such CQ");
  return it->second->depth();
}

// ---------------------------------------------------------------------------
// Data path: posting.
// ---------------------------------------------------------------------------

Status RnicDevice::post_send(Qpn qpn, const SendWr& wr, bool ring_doorbell) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return Status::kNotFound;
  if (!can_post_send(qp->state)) return Status::kInvalidState;
  if (qp->send_queue.size() >= qp->init.caps.max_send_wr) {
    return Status::kQueueFull;
  }
  if (qp->state == QpState::kError || qp->state == QpState::kSqe) {
    // Table 2: posting is allowed, the WQE immediately flushes with error.
    post_send_cqe(*qp, wr, WcStatus::kWrFlushErr, 0);
    return Status::kOk;
  }
  qp->send_queue.push_back(wr);
  if (ring_doorbell) kick_engine(qpn);
  return Status::kOk;
}

Status RnicDevice::post_recv(Qpn qpn, const RecvWr& wr) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return Status::kNotFound;
  if (!can_post_recv(qp->state)) return Status::kInvalidState;
  if (qp->recv_queue.size() >= qp->init.caps.max_recv_wr) {
    return Status::kQueueFull;
  }
  if (qp->state == QpState::kError) {
    Completion c;
    c.wr_id = wr.wr_id;
    c.status = WcStatus::kWrFlushErr;
    c.opcode = WcOpcode::kRecv;
    c.qpn = qp->qpn;
    post_completion(qp->init.recv_cq, c);
    return Status::kOk;
  }
  qp->recv_queue.push_back(wr);
  return Status::kOk;
}

int RnicDevice::poll_cq(Cqn cq, int max_entries, Completion* out) {
  CompletionQueue* c = find_cq(cq);
  if (c == nullptr) return -1;
  return c->poll(max_entries, out);
}

sim::Future<bool> RnicDevice::cq_nonempty(Cqn cq) {
  CompletionQueue* c = find_cq(cq);
  if (c == nullptr) throw std::out_of_range("cq_nonempty: no such CQ");
  return c->nonempty();
}

bool RnicDevice::cq_overflowed(Cqn cq) const {
  auto it = cqs_.find(cq);
  return it != cqs_.end() && it->second->overflowed();
}

void RnicDevice::mmio_write(mem::Addr offset, std::uint64_t /*value*/) {
  // Doorbell register file: offset = slot * 8; the slot table maps back to
  // the owning QP (slot 0 of a freed register maps to QPN 0 -> no-op).
  const auto slot = static_cast<std::size_t>(offset / 8);
  if (slot < doorbell_owner_.size()) kick_engine(doorbell_owner_[slot]);
}

std::uint64_t RnicDevice::doorbell_offset(Qpn qpn) const {
  auto it = doorbell_slots_.find(qpn);
  if (it == doorbell_slots_.end()) {
    throw std::out_of_range("doorbell_offset: no such QP");
  }
  return static_cast<std::uint64_t>(it->second) * 8;
}

std::uint32_t RnicDevice::assign_doorbell_slot(Qpn qpn) {
  std::uint32_t slot;
  if (!doorbell_free_.empty()) {
    slot = doorbell_free_.back();
    doorbell_free_.pop_back();
    doorbell_owner_[slot] = qpn;
  } else {
    slot = static_cast<std::uint32_t>(doorbell_owner_.size());
    if (static_cast<mem::Addr>(slot) * 8 >= kDoorbellBarBytes) {
      throw std::length_error("doorbell register file exhausted");
    }
    doorbell_owner_.push_back(qpn);
  }
  doorbell_slots_[qpn] = slot;
  return slot;
}

void RnicDevice::release_doorbell_slot(Qpn qpn) {
  auto it = doorbell_slots_.find(qpn);
  if (it == doorbell_slots_.end()) return;
  doorbell_owner_[it->second] = 0;
  doorbell_free_.push_back(it->second);
  doorbell_slots_.erase(it);
}

std::uint64_t RnicDevice::mmio_read(mem::Addr /*offset*/) { return 0; }

// ---------------------------------------------------------------------------
// Send engine.
// ---------------------------------------------------------------------------

void RnicDevice::kick_engine(Qpn qpn) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr || qp->engine_running) return;
  if (qp->send_queue.empty()) return;
  qp->engine_running = true;
  loop_.spawn(send_engine(qpn));
}

sim::Task<void> RnicDevice::send_engine(Qpn qpn) {
  while (true) {
    Qp* qp = find_qp(qpn);
    if (qp == nullptr) co_return;  // destroyed while running
    if (!can_transmit(qp->state) || qp->send_queue.empty()) break;
    if (qp->outstanding >= qp->init.caps.max_send_wr) {
      sim::Promise<bool> p(loop_);
      auto f = p.get_future();
      qp->window_waiters.push_back(std::move(p));
      co_await f;
      continue;
    }
    SendWr wr = qp->send_queue.front();
    qp->send_queue.pop_front();
    co_await engine_.submit(config_.costs.engine_gap);
    qp = find_qp(qpn);
    if (qp == nullptr) co_return;
    if (qp->state == QpState::kError || qp->state == QpState::kSqe) {
      post_send_cqe(*qp, wr, WcStatus::kWrFlushErr, 0);
      continue;
    }
    launch_wqe(*qp, std::move(wr));
  }
  if (Qp* qp = find_qp(qpn)) qp->engine_running = false;
}

MemoryRegion* RnicDevice::validate_local_sge(const Qp& qp, const Sge& sge,
                                             WcStatus* status) {
  MemoryRegion* mr = find_mr(sge.lkey);
  if (mr == nullptr || mr->fn() != qp.fn || mr->pd() != qp.init.pd ||
      !mr->contains(sge.addr, sge.length)) {
    *status = WcStatus::kLocProtErr;
    return nullptr;
  }
  *status = WcStatus::kSuccess;
  return mr;
}

void RnicDevice::launch_wqe(Qp& qp, SendWr wr) {
  const FunctionInfo& f = fns_.at(qp.fn);
  const auto& costs = config_.costs;

  // Local sge validation + DMA read of the payload (send/write).
  std::vector<std::uint8_t> payload;
  if (wr.opcode != WrOpcode::kRdmaRead && wr.sge.length > 0) {
    WcStatus st;
    MemoryRegion* mr = validate_local_sge(qp, wr.sge, &st);
    if (mr == nullptr) {
      post_send_cqe(qp, wr, st, 0);
      if (hw_error_transition_allowed(qp.state, QpState::kSqe)) {
        transition_qp(qp, QpState::kSqe);
      }
      return;
    }
    payload.resize(wr.sge.length);
    mr->dma_read(wr.sge.addr, payload);
  }
  if (wr.opcode == WrOpcode::kRdmaRead && wr.sge.length > 0) {
    // Validate the landing buffer up front; data arrives later.
    WcStatus st;
    if (validate_local_sge(qp, wr.sge, &st) == nullptr) {
      post_send_cqe(qp, wr, st, 0);
      if (hw_error_transition_allowed(qp.state, QpState::kSqe)) {
        transition_qp(qp, QpState::kSqe);
      }
      return;
    }
  }

  Message msg;
  switch (wr.opcode) {
    case WrOpcode::kSend:
      msg.op = qp.init.type == QpType::kUd ? MsgOp::kUdSend : MsgOp::kSend;
      break;
    case WrOpcode::kRdmaWrite:
      msg.op = MsgOp::kWrite;
      break;
    case WrOpcode::kRdmaWriteImm:
      msg.op = MsgOp::kWriteImm;
      msg.imm = wr.imm;
      break;
    case WrOpcode::kRdmaRead:
      msg.op = MsgOp::kReadReq;
      msg.read_len = wr.sge.length;
      break;
  }
  msg.payload = std::move(payload);
  msg.remote_addr = wr.remote_addr;
  if (wr.opcode == WrOpcode::kRdmaWriteImm) msg.imm = wr.imm;
  msg.rkey = wr.rkey;
  msg.qkey = wr.ud.qkey;
  msg.src_qpn = qp.qpn;
  msg.src_underlay = fns_[kPf].ip;
  msg.psn = qp.next_tx_psn++;

  const UdDest* ud = qp.init.type == QpType::kUd ? &wr.ud : nullptr;
  if (!build_frame(qp, f, msg.op,
                   static_cast<std::uint32_t>(msg.payload.size()), ud,
                   &msg.frame)) {
    // No route at the NIC level (e.g. missing tunnel entry): the packet
    // never leaves; retries exhaust.
    post_send_cqe(qp, wr, WcStatus::kTransportRetryExc, 0);
    if (hw_error_transition_allowed(qp.state, QpState::kSqe)) {
      transition_qp(qp, QpState::kSqe);
    }
    return;
  }

  const bool is_ud = qp.init.type == QpType::kUd;
  if (!is_ud) {
    // msg is the retransmission copy.
    PendingSend pend{wr, false, WcStatus::kSuccess, msg, kRcRetryCount};
    qp.pending.emplace(msg.psn, std::move(pend));
    ++qp.outstanding;
  }

  // Transmit-side pipeline latency before bytes hit the wire.
  sim::Time tx_latency = costs.tx_proc;
  if (f.is_vf) tx_latency += costs.vf_extra_tx;
  if (config_.iommu && !msg.payload.empty()) tx_latency += costs.iommu_per_dma;

  const Qpn qpn = qp.qpn;
  ++counters_.tx_msgs;
  loop_.schedule_after(tx_latency, [this, qpn, m = std::move(msg),
                                    wr, is_ud]() mutable {
    Qp* q = find_qp(qpn);
    if (q == nullptr) return;
    if (q->state == QpState::kError) return;  // flushed while in pipeline
    transmit(*q, std::move(m), !is_ud);
    if (is_ud) {
      // Unreliable: completion raised as soon as the message is on the
      // wire; no ack will come.
      post_send_cqe(*q, wr, WcStatus::kSuccess, wr.sge.length);
    }
  });
}

bool RnicDevice::build_frame(const Qp& qp, const FunctionInfo& f, MsgOp op,
                             std::uint32_t payload_len, const UdDest* ud,
                             net::RoceFrame* out) {
  net::RoceFrame frame;
  frame.bth.dest_qpn = ud != nullptr ? ud->qpn : qp.attr.dest_qpn;
  frame.bth.psn = qp.next_tx_psn - 1;
  switch (op) {
    case MsgOp::kSend: frame.bth.opcode = net::BthOpcode::kRcSendOnly; break;
    case MsgOp::kWrite:
    case MsgOp::kWriteImm:
      frame.bth.opcode = net::BthOpcode::kRcWriteOnly;
      break;
    case MsgOp::kReadReq:
      frame.bth.opcode = net::BthOpcode::kRcReadRequest;
      break;
    case MsgOp::kReadResp:
      frame.bth.opcode = net::BthOpcode::kRcReadResponse;
      break;
    case MsgOp::kUdSend: frame.bth.opcode = net::BthOpcode::kUdSendOnly; break;
  }
  frame.payload_bytes = payload_len;

  const net::Gid dest_gid = ud != nullptr ? ud->gid : qp.attr.dest_gid;
  const auto dest_ip = dest_gid.to_ipv4();
  if (!dest_ip) return false;

  if (f.vxlan_offload) {
    // SR-IOV offload: inner frame carries tenant addresses; the NIC looks
    // up the tunnel table to build the outer (underlay) header.
    sim::Time extra = 0;
    const TunnelEntry* t = tunnel_lookup(dest_gid, &extra);
    // The cache-lookup cost is charged as engine occupancy: it delays
    // every message behind this one when the table is cold.
    if (extra > 0) engine_.submit(extra);
    if (t == nullptr) return false;
    const auto outer_dst = t->phys_gid.to_ipv4();
    if (!outer_dst) return false;
    frame.ip.src = f.ip;
    frame.ip.dst = *dest_ip;
    frame.eth.src = f.mac;
    frame.vxlan = true;
    frame.vxlan_hdr.vni = t->vni;
    frame.outer_ip.src = fns_[kPf].ip;
    frame.outer_ip.dst = *outer_dst;
    frame.outer_eth.src = fns_[kPf].mac;
  } else {
    // Native RoCEv2: whatever the QPC holds goes on the wire. After
    // RConnrename this is a physical address; without it, a virtual one —
    // unroutable on the underlay.
    frame.ip.src = fns_[kPf].ip;
    frame.ip.dst = *dest_ip;
    frame.eth.src = fns_[kPf].mac;
  }
  *out = frame;
  return true;
}

void RnicDevice::transmit(Qp& qp, Message msg, bool expect_ack) {
  const FunctionInfo& f = fns_.at(qp.fn);
  const net::Ipv4Addr underlay_dst =
      msg.frame.vxlan ? msg.frame.outer_ip.dst : msg.frame.ip.dst;

  RnicDevice* remote =
      router_ != nullptr ? router_->device_by_ip(underlay_dst) : nullptr;
  const Qpn qpn = qp.qpn;
  const std::uint32_t psn = msg.psn;

  if (remote == nullptr) {
    ++counters_.dropped_no_route;
    if (expect_ack) {
      // Retries exhaust after the transport timeout.
      loop_.schedule_after(kRetryTimeout, [this, qpn, psn] {
        on_ack(qpn, psn, WcStatus::kTransportRetryExc);
      });
    }
    return;
  }

  // Wire size: payload + per-packet headers after MTU segmentation.
  const std::uint32_t mtu = std::max<std::uint32_t>(qp.attr.path_mtu, 256);
  const std::uint64_t payload = msg.frame.payload_bytes;
  const std::uint64_t packets = payload == 0 ? 1 : (payload + mtu - 1) / mtu;
  std::uint64_t per_packet = net::kRoceV2OverheadBytes;
  if (msg.frame.vxlan) per_packet += net::kVxlanOverheadBytes;
  const std::uint64_t wire_bytes = payload + packets * per_packet;

  std::vector<net::LinkId> path;
  if (f.is_vf) path.push_back(f.limiter_link);
  path.push_back(tx_link_);
  // Leaf/spine hops between the two NICs (empty inside one leaf).
  // remote != nullptr implies router_ != nullptr.
  for (net::LinkId l : router_->fabric_path(fns_.at(kPf).ip, underlay_dst,
                                            qpn, msg.frame.bth.dest_qpn)) {
    path.push_back(l);
  }
  path.push_back(remote->rx_link());

  auto flow_slot = std::make_shared<net::FlowId>(0);
  const net::FlowId flow = net_.start_flow(
      std::move(path), wire_bytes, net::kUncapped,
      [this, remote, qpn, psn, expect_ack, flow_slot,
       m = std::move(msg)]() mutable {
        if (Qp* q = find_qp(qpn)) {
          auto& fl = q->active_flows;
          fl.erase(std::remove(fl.begin(), fl.end(), *flow_slot), fl.end());
        }
        remote->deliver(std::move(m));
        if (expect_ack) {
          // If no ack (or nak) arrives, retransmit until the budget is
          // spent; only then do the retries exhaust.
          loop_.schedule_after(kRetryTimeout, [this, qpn, psn] {
            maybe_retry(qpn, psn);
          });
        }
      });
  *flow_slot = flow;
  qp.active_flows.push_back(flow);
}

// ---------------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------------

sim::Future<bool> RnicDevice::next_rx_event(Qpn qpn) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("next_rx_event: no such QP");
  sim::Promise<bool> p(loop_);
  auto f = p.get_future();
  qp->rx_waiters.push_back(std::move(p));
  return f;
}

void RnicDevice::deliver(Message msg) {
  ++counters_.rx_msgs;
  // Engine occupancy models the device's finite message rate; the
  // remaining pipeline latency depends on the operation and function.
  struct RxTask {
    static sim::Task<void> run(RnicDevice* dev, Message msg) {
      co_await dev->engine_.submit(dev->config_.costs.engine_gap);
      const auto& c = dev->config_.costs;
      sim::Time latency =
          msg.op == MsgOp::kWrite || msg.op == MsgOp::kReadResp
              ? c.rx_proc_write
              : c.rx_proc_send;
      const Qp* qp = dev->find_qp(msg.frame.bth.dest_qpn);
      if (qp != nullptr && dev->fns_.at(qp->fn).is_vf) {
        latency += c.vf_extra_rx;
      }
      if (dev->config_.iommu && !msg.payload.empty()) {
        latency += c.iommu_per_dma;
      }
      co_await sim::delay(dev->loop_, latency);
      dev->process_incoming(std::move(msg));
    }
  };
  loop_.spawn(RxTask::run(this, std::move(msg)));
}

void RnicDevice::process_incoming(Message msg) {
  Qp* qp = find_qp(msg.frame.bth.dest_qpn);
  if (qp == nullptr) {
    ++counters_.dropped_no_qp;
    return;  // silent drop; the sender's retries exhaust
  }
  const FunctionInfo& f = fns_.at(qp->fn);

  if (msg.frame.vxlan) {
    // Hardware decap: the inner destination and VNI must match the VF the
    // QP lives on — tenant isolation enforced by the NIC.
    if (!f.vxlan_offload || f.vni != msg.frame.vxlan_hdr.vni ||
        f.ip != msg.frame.ip.dst) {
      ++counters_.dropped_no_qp;
      return;
    }
  }

  if (!can_accept_packets(qp->state)) {
    ++counters_.dropped_bad_state;  // Table 2: ERROR QPs drop packets
    return;
  }

  if (msg.op == MsgOp::kUdSend) {
    if (qp->init.type != QpType::kUd || msg.qkey != qp->attr.qkey) {
      ++counters_.dropped_no_qp;
      return;  // bad Q-Key: silently dropped (unreliable transport)
    }
    handle_in_order(*qp, msg);
    return;
  }

  if (msg.op == MsgOp::kReadResp) {
    // Response to our own read request: complete it (no rx ordering).
    auto it = qp->pending.find(msg.psn);
    if (it == qp->pending.end() || it->second.done) return;
    WcStatus st;
    MemoryRegion* mr = validate_local_sge(*qp, it->second.wr.sge, &st);
    if (mr != nullptr && msg.payload.size() <= it->second.wr.sge.length) {
      mr->dma_write(it->second.wr.sge.addr, msg.payload);
      it->second.status = WcStatus::kSuccess;
    } else {
      it->second.status = WcStatus::kLocProtErr;
    }
    it->second.done = true;
    drain_acks(*qp);
    return;
  }

  // RC ordering: buffer early arrivals, drop duplicates.
  if (msg.psn != qp->next_rx_psn) {
    const auto distance = static_cast<std::int64_t>(msg.psn) -
                          static_cast<std::int64_t>(qp->next_rx_psn);
    if (distance > 0) {
      qp->reorder.emplace(msg.psn, std::move(msg));
    } else if (msg.op == MsgOp::kSend || msg.op == MsgOp::kWrite ||
               msg.op == MsgOp::kWriteImm) {
      // A duplicate of an already-executed request: a retransmission
      // whose original ack raced it. Re-ack so the requester completes
      // (reads re-request the data instead, so they stay dropped).
      send_ack(msg, WcStatus::kSuccess);
    }
    return;
  }
  handle_in_order(*qp, msg);
  ++qp->next_rx_psn;
  // Drain any buffered successors.
  auto it = qp->reorder.find(qp->next_rx_psn);
  while (it != qp->reorder.end()) {
    Message next = std::move(it->second);
    qp->reorder.erase(it);
    Qp* q2 = find_qp(next.frame.bth.dest_qpn);
    if (q2 == nullptr || !can_accept_packets(q2->state)) break;
    handle_in_order(*q2, next);
    ++q2->next_rx_psn;
    it = q2->reorder.find(q2->next_rx_psn);
  }
}

void RnicDevice::handle_in_order(Qp& qp, Message& msg) {
  if (!qp.rx_waiters.empty()) {
    for (auto& w : qp.rx_waiters) w.set_value(true);
    qp.rx_waiters.clear();
  }
  switch (msg.op) {
    case MsgOp::kUdSend:
    case MsgOp::kSend: {
      if (qp.recv_queue.empty()) {
        ++counters_.rnr_drops;
        if (msg.op == MsgOp::kSend) send_ack(msg, WcStatus::kRnrRetryExc);
        return;  // UD: silently dropped
      }
      RecvWr rwr = qp.recv_queue.front();
      qp.recv_queue.pop_front();
      Completion c;
      c.wr_id = rwr.wr_id;
      c.opcode = WcOpcode::kRecv;
      c.qpn = qp.qpn;
      c.byte_len = static_cast<std::uint32_t>(msg.payload.size());
      WcStatus st = WcStatus::kSuccess;
      MemoryRegion* mr =
          msg.payload.empty() ? nullptr : validate_local_sge(qp, rwr.sge, &st);
      if (!msg.payload.empty()) {
        if (mr == nullptr || msg.payload.size() > rwr.sge.length ||
            (mr->access() & kLocalWrite) == 0) {
          c.status = WcStatus::kLocProtErr;
          post_completion(qp.init.recv_cq, c);
          if (msg.op == MsgOp::kSend) {
            send_ack(msg, WcStatus::kRemAccessErr);
            transition_qp(qp, QpState::kError);
            flush_qp(qp);
          }
          return;
        }
        mr->dma_write(rwr.sge.addr, msg.payload);
      }
      c.status = WcStatus::kSuccess;
      post_completion(qp.init.recv_cq, c);
      if (msg.op == MsgOp::kSend) send_ack(msg, WcStatus::kSuccess);
      return;
    }
    case MsgOp::kWriteImm: {
      // Write the payload through the rkey like a plain write, then
      // consume a recv WQE to deliver the immediate (its sge is unused).
      MemoryRegion* mr = find_mr(msg.rkey);
      if (mr == nullptr || mr->fn() != qp.fn || mr->pd() != qp.init.pd ||
          (mr->access() & kRemoteWrite) == 0 ||
          !mr->contains(msg.remote_addr, msg.payload.size())) {
        ++counters_.remote_access_naks;
        send_ack(msg, WcStatus::kRemAccessErr);
        transition_qp(qp, QpState::kError);
        flush_qp(qp);
        return;
      }
      if (qp.recv_queue.empty()) {
        ++counters_.rnr_drops;
        send_ack(msg, WcStatus::kRnrRetryExc);
        return;
      }
      mr->dma_write(msg.remote_addr, msg.payload);
      RecvWr rwr = qp.recv_queue.front();
      qp.recv_queue.pop_front();
      Completion c;
      c.wr_id = rwr.wr_id;
      c.opcode = WcOpcode::kRecvRdmaWithImm;
      c.status = WcStatus::kSuccess;
      c.byte_len = static_cast<std::uint32_t>(msg.payload.size());
      c.imm = msg.imm;
      c.qpn = qp.qpn;
      post_completion(qp.init.recv_cq, c);
      send_ack(msg, WcStatus::kSuccess);
      return;
    }
    case MsgOp::kWrite: {
      MemoryRegion* mr = find_mr(msg.rkey);
      if (mr == nullptr || mr->fn() != qp.fn || mr->pd() != qp.init.pd ||
          (mr->access() & kRemoteWrite) == 0 ||
          !mr->contains(msg.remote_addr, msg.payload.size())) {
        ++counters_.remote_access_naks;
        send_ack(msg, WcStatus::kRemAccessErr);
        transition_qp(qp, QpState::kError);  // responder fails the connection
        flush_qp(qp);
        return;
      }
      mr->dma_write(msg.remote_addr, msg.payload);
      send_ack(msg, WcStatus::kSuccess);
      return;
    }
    case MsgOp::kReadReq: {
      MemoryRegion* mr = find_mr(msg.rkey);
      if (mr == nullptr || mr->fn() != qp.fn || mr->pd() != qp.init.pd ||
          (mr->access() & kRemoteRead) == 0 ||
          !mr->contains(msg.remote_addr, msg.read_len)) {
        ++counters_.remote_access_naks;
        send_ack(msg, WcStatus::kRemAccessErr);
        transition_qp(qp, QpState::kError);
        flush_qp(qp);
        return;
      }
      Message resp;
      resp.op = MsgOp::kReadResp;
      resp.payload.resize(msg.read_len);
      mr->dma_read(msg.remote_addr, resp.payload);
      resp.psn = msg.psn;  // echoes the request psn
      resp.src_qpn = qp.qpn;
      resp.src_underlay = fns_[kPf].ip;
      const FunctionInfo& f = fns_.at(qp.fn);
      if (!build_frame(qp, f, MsgOp::kReadResp,
                       static_cast<std::uint32_t>(resp.payload.size()),
                       nullptr, &resp.frame)) {
        return;
      }
      resp.frame.bth.psn = msg.psn;
      transmit(qp, std::move(resp), /*expect_ack=*/false);
      return;
    }
    case MsgOp::kReadResp:
      return;  // handled in process_incoming
  }
}

void RnicDevice::send_ack(const Message& msg, WcStatus status) {
  if (router_ == nullptr) return;
  RnicDevice* sender = router_->device_by_ip(msg.src_underlay);
  if (sender == nullptr) return;
  const Qpn qpn = msg.src_qpn;
  const std::uint32_t psn = msg.psn;
  // Acks are tiny and coalesced; charge propagation only.
  loop_.schedule_after(config_.link_prop_oneway, [sender, qpn, psn, status] {
    sender->on_ack(qpn, psn, status);
  });
}

void RnicDevice::maybe_retry(Qpn qpn, std::uint32_t psn) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return;
  auto it = qp->pending.find(psn);
  if (it == qp->pending.end() || it->second.done) return;
  if (qp->state == QpState::kError) return;  // flush owns the pending set
  if (it->second.retries_left <= 0) {
    on_ack(qpn, psn, WcStatus::kTransportRetryExc);
    return;
  }
  --it->second.retries_left;
  ++counters_.retransmits;
  Message m = it->second.msg;
  // Rebuild the wire headers from the live QPC: the peer may have been
  // renamed since the original attempt (transparent live migration
  // rewrites dest_gid while the dropped packet's timeout is pending).
  net::RoceFrame frame;
  if (!build_frame(*qp, fns_.at(qp->fn), m.op,
                   static_cast<std::uint32_t>(m.frame.payload_bytes),
                   nullptr, &frame)) {
    // Transient no-route: burn the attempt, keep the timer running.
    loop_.schedule_after(kRetryTimeout,
                         [this, qpn, psn] { maybe_retry(qpn, psn); });
    return;
  }
  frame.bth.psn = m.psn;
  m.frame = frame;
  transmit(*qp, std::move(m), /*expect_ack=*/true);
}

void RnicDevice::on_ack(Qpn src_qpn, std::uint32_t psn, WcStatus status) {
  Qp* qp = find_qp(src_qpn);
  if (qp == nullptr) return;
  auto it = qp->pending.find(psn);
  if (it == qp->pending.end() || it->second.done) return;
  it->second.done = true;
  it->second.status = status;
  drain_acks(*qp);
}

void RnicDevice::drain_acks(Qp& qp) {
  while (!qp.pending.empty()) {
    auto it = qp.pending.find(qp.next_ack_psn);
    if (it == qp.pending.end() || !it->second.done) break;
    const WcStatus status = it->second.status;
    const SendWr wr = it->second.wr;
    qp.pending.erase(it);
    ++qp.next_ack_psn;
    if (qp.outstanding > 0) --qp.outstanding;
    post_send_cqe(qp, wr, status, wr.sge.length);
    release_window_slot(qp);
    if (status != WcStatus::kSuccess) {
      // A completion error stops the send queue (Fig. 5: RTS -> SQE);
      // everything behind the failed WQE flushes.
      if (hw_error_transition_allowed(qp.state, QpState::kSqe)) {
        transition_qp(qp, QpState::kSqe);
      }
      for (auto& [p, pend] : qp.pending) {
        post_send_cqe(qp, pend.wr, WcStatus::kWrFlushErr, 0);
      }
      qp.pending.clear();
      qp.outstanding = 0;
      for (auto& wq : qp.send_queue) {
        post_send_cqe(qp, wq, WcStatus::kWrFlushErr, 0);
      }
      qp.send_queue.clear();
      release_window_slot(qp);
      break;
    }
  }
}

void RnicDevice::release_window_slot(Qp& qp) {
  if (!qp.window_waiters.empty()) {
    auto p = std::move(qp.window_waiters.front());
    qp.window_waiters.erase(qp.window_waiters.begin());
    p.set_value(true);
  }
}

void RnicDevice::flush_qp(Qp& qp) {
  for (net::FlowId fl : qp.active_flows) net_.cancel_flow(fl);
  qp.active_flows.clear();
  // In-flight sends flush in psn order.
  for (auto& [psn, pend] : qp.pending) {
    post_send_cqe(qp, pend.wr, WcStatus::kWrFlushErr, 0);
  }
  qp.pending.clear();
  qp.outstanding = 0;
  for (auto& wr : qp.send_queue) {
    post_send_cqe(qp, wr, WcStatus::kWrFlushErr, 0);
  }
  qp.send_queue.clear();
  for (auto& rwr : qp.recv_queue) {
    Completion c;
    c.wr_id = rwr.wr_id;
    c.status = WcStatus::kWrFlushErr;
    c.opcode = WcOpcode::kRecv;
    c.qpn = qp.qpn;
    post_completion(qp.init.recv_cq, c);
  }
  qp.recv_queue.clear();
  qp.reorder.clear();
  for (auto& w : qp.window_waiters) w.set_value(true);
  qp.window_waiters.clear();
  for (const auto& hook : qp_error_hooks_) hook.second(qp.qpn);
}

void RnicDevice::post_send_cqe(Qp& qp, const SendWr& wr, WcStatus status,
                               std::uint32_t byte_len) {
  if (status == WcStatus::kSuccess && !wr.signaled) return;
  Completion c;
  c.wr_id = wr.wr_id;
  c.status = status;
  c.byte_len = byte_len;
  c.qpn = qp.qpn;
  switch (wr.opcode) {
    case WrOpcode::kSend: c.opcode = WcOpcode::kSend; break;
    case WrOpcode::kRdmaWrite:
    case WrOpcode::kRdmaWriteImm:
      c.opcode = WcOpcode::kRdmaWrite;
      break;
    case WrOpcode::kRdmaRead: c.opcode = WcOpcode::kRdmaRead; break;
  }
  post_completion(qp.init.send_cq, c);
}

void RnicDevice::post_completion(Cqn cq, const Completion& c) {
  CompletionQueue* q = find_cq(cq);
  if (q == nullptr) return;
  q->push(c);
}

RnicDevice::Qp* RnicDevice::find_qp(Qpn qpn) {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

const RnicDevice::Qp* RnicDevice::find_qp(Qpn qpn) const {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

CompletionQueue* RnicDevice::find_cq(Cqn cq) {
  auto it = cqs_.find(cq);
  return it == cqs_.end() ? nullptr : it->second.get();
}

MemoryRegion* RnicDevice::find_mr(Key lkey) {
  auto it = mrs_.find(lkey);
  return it == mrs_.end() ? nullptr : it->second.get();
}

}  // namespace rnic
