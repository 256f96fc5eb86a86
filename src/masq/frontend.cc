#include "masq/frontend.h"

#include <algorithm>
#include <numeric>

#include "masq/warm_pool.h"
#include "sim/flat_map.h"

namespace masq {

using verbs::lib_share;

MasqContext::MasqContext(Backend::Session& session, overlay::OobEndpoint& oob,
                         virtio::ChannelCosts virtio_costs)
    : session_(&session),
      oob_(oob),
      vq_(session.backend().loop(), virtio_costs),
      // Deterministic per-tenant jitter stream: same testbed, same seeds,
      // same backoff schedule.
      jitter_rng_(0x6a17c0de ^
                  (static_cast<std::uint64_t>(session.vni()) *
                   0x9e3779b97f4a7c15ULL)) {
  session_->set_profile(&profile_);
  vq_.set_backend(
      [this](Envelope env) -> sim::Task<Response> {
        return session_->handle(std::move(env));
      });
  if (sim::FaultPlane* faults = session_->backend().faults()) {
    vq_.set_transit_faults(
        [faults](std::uint64_t cmd_id) { return faults->on_vq_transit(cmd_id); });
  }
  // Appendix B.1: map the device's doorbell BAR into the application's
  // address space so data-path doorbells bypass the hypervisor.
  doorbell_gva_ = session_->vm().map_mmio_into_guest(
      session_->backend().device().doorbell_bar(), 64 * 1024 * 8);
  // A QP torn down via ERROR never reaches destroy_qp's kOk path, so its
  // control-path routing entry is purged here; the warm pool drops any
  // staged/parked endpoint riding on the dead QP. Hooks run synchronously
  // inside the transition — both callees only mutate tables and schedule.
  qp_error_hook_ = session_->backend().device().on_qp_error(
      [this](rnic::Qpn qpn) {
        qp_types_.erase(qpn);
        if (warm_pool_) warm_pool_->on_qp_error(qpn);
      });
  const WarmPoolConfig& warm = session_->backend().config().warm;
  if (warm.enabled) {
    warm_pool_ = std::make_unique<WarmPool>(*this, warm);
    warm_pool_->start();
    // A peer that migrates keeps its vGID but re-registers it against a
    // new physical GID; a parked pair toward that peer is wired to the old
    // host and must be downgraded to cold. Purge on both the re-push and
    // the explicit-invalidate channels. Subscribed only when a pool
    // exists, so warm-disabled runs keep a bit-identical event stream.
    // `vni` is captured by value: the controller broadcasts synchronously
    // inside register_vgid, which fires mid-migration while session_ is
    // detached (null).
    sdn::Controller& ctrl = session_->backend().controller();
    const std::uint32_t vni = session_->vni();
    warm_push_sub_ = ctrl.subscribe(
        [this, vni](std::uint32_t v, net::Gid vgid, net::Gid) {
          if (v == vni && warm_pool_) warm_pool_->invalidate(vgid);
        });
    warm_inval_sub_ = ctrl.subscribe_invalidate(
        [this, vni](std::uint32_t v, net::Gid vgid) {
          if (v == vni && warm_pool_) warm_pool_->invalidate(vgid);
        });
  }
}

MasqContext::~MasqContext() {
  if (session_ != nullptr) {
    if (warm_push_sub_ != 0) {
      session_->backend().controller().unsubscribe(warm_push_sub_);
      session_->backend().controller().unsubscribe_invalidate(warm_inval_sub_);
    }
    session_->backend().device().remove_qp_error_hook(qp_error_hook_);
  }
  warm_pool_.reset();
}

void MasqContext::end_migration() {
  migration_gate_ = false;
  // Move the list out first: a released caller that re-parks (gate
  // re-closed by a back-to-back migration) pushes into a fresh vector
  // instead of the one being iterated.
  std::vector<sim::Promise<bool>> waiters = std::move(gate_waiters_);
  gate_waiters_.clear();
  for (sim::Promise<bool>& w : waiters) w.set_value(true);
}

void MasqContext::unbind() {
  // Order matters: the hook lives on the *source* device, which is only
  // reachable through the old session. After this the context must not be
  // used until rebind() — the gate (closed by the Migrator) guarantees no
  // verb is in flight.
  session_->backend().device().remove_qp_error_hook(qp_error_hook_);
  qp_error_hook_ = 0;
  session_ = nullptr;
}

void MasqContext::rebind(Backend::Session& session) {
  session_ = &session;
  session_->set_profile(&profile_);
  // The doorbell BAR must be remapped into the *destination* guest's
  // address space (new Vm, new translation chain), and QP-ERROR purging
  // re-hooked on the destination device.
  doorbell_gva_ = session_->vm().map_mmio_into_guest(
      session_->backend().device().doorbell_bar(), 64 * 1024 * 8);
  qp_error_hook_ = session_->backend().device().on_qp_error(
      [this](rnic::Qpn qpn) {
        qp_types_.erase(qpn);
        if (warm_pool_) warm_pool_->on_qp_error(qpn);
      });
}

sim::Task<verbs::WarmEndpoint> MasqContext::acquire_warm(
    const net::Gid& peer_gid) {
  if (!warm_pool_) co_return verbs::WarmEndpoint{};
  co_return co_await warm_pool_->acquire(peer_gid);
}

sim::Task<void> MasqContext::release_warm(const verbs::WarmEndpoint& ep,
                                          const net::Gid& peer_gid,
                                          rnic::Qpn peer_qpn) {
  if (!warm_pool_) co_return;
  co_await warm_pool_->release(ep, peer_gid, peer_qpn);
}

sim::Task<void> MasqContext::discard_warm(const verbs::WarmEndpoint& ep) {
  if (!warm_pool_) co_return;
  co_await warm_pool_->discard(ep);
}

void MasqContext::invalidate_warm(const net::Gid& peer_gid) {
  if (warm_pool_) warm_pool_->invalidate(peer_gid);
}

sim::Task<Response> MasqContext::call(const char* verb, sim::Time lib_time,
                                      Command cmd) {
  co_await lib_charge(verb, lib_time);
  profile_.add(verb, verbs::Layer::kVirtio, vq_.costs().round_trip());
  CmdBatch one;
  one.cmds.push_back(std::move(cmd));
  Response r = co_await submit(std::move(one), /*retry_entries=*/true);
  if (r.batch.size() == 1) co_return std::move(r.batch.front());
  co_return Response{r.status, 0, 0};
}

sim::Task<MasqContext::CallOutcome> MasqContext::attempt(
    Envelope env, sim::Time attempt_deadline) {
  const int weight = static_cast<int>(env.batch.cmds.size());
  if (session_->backend().faults() != nullptr) {
    const std::uint64_t id = env.cmd_id;
    co_return co_await vq_.call_deadline(std::move(env), weight,
                                         attempt_deadline, id);
  }
  // Fault-free: the plain path keeps the event stream identical to a
  // build without the resilience layer (no timer armed per verb).
  CallOutcome out;
  out.resp = co_await vq_.call(std::move(env), weight);
  co_return out;
}

sim::Time MasqContext::backoff_delay(int attempt) {
  const RetryPolicy& rp = session_->backend().config().retry;
  double backoff = static_cast<double>(rp.base_backoff);
  for (int i = 1; i < attempt; ++i) backoff *= rp.backoff_multiplier;
  backoff *= 1.0 + rp.jitter_frac * jitter_rng_.next_double();
  return static_cast<sim::Time>(backoff);
}

sim::Task<Response> MasqContext::submit(CmdBatch batch, bool retry_entries) {
  // Migration gate: park before touching session_ or the virtqueue — the
  // atomic section runs with session_ detached and the queue must stay
  // drained. Loop, not if: a back-to-back migration may re-close the gate
  // between release and resumption.
  while (migration_gate_) {
    sim::Promise<bool> gate(loop());
    sim::Future<bool> released = gate.get_future();
    gate_waiters_.push_back(std::move(gate));
    (void)co_await released;
  }
  const RetryPolicy& rp = session_->backend().config().retry;
  const sim::Time deadline = loop().now() + rp.verb_deadline;
  // One cmd_id for all attempts: a retry racing its own original is
  // deduplicated by the backend instead of executing twice.
  const std::uint64_t id = next_cmd_id_++;
  bool counted_retry = false;
  for (int attempt_no = 1;; ++attempt_no) {
    const sim::Time attempt_deadline =
        std::min(deadline, loop().now() + rp.attempt_timeout);
    // Named envelope + explicit move: passing a prvalue aggregate into a
    // coroutine parameter double-frees under GCC 12 (parameter-copy bug).
    Envelope env{id, batch};
    CallOutcome out = co_await attempt(std::move(env), attempt_deadline);
    if (!out.timed_out &&
        !(retry_entries && rnic::is_retryable(out.resp.status))) {
      co_return std::move(out.resp);
    }
    if (!counted_retry) {
      counted_retry = true;
      ++control_retries_;
    }
    if (attempt_no >= rp.max_attempts) break;
    const sim::Time pause = backoff_delay(attempt_no);
    if (loop().now() + pause >= deadline) break;
    co_await sim::delay(loop(), pause);
  }
  ++deadline_failures_;
  co_return Response{rnic::Status::kDeadlineExceeded, 0, 0};
}

sim::Task<rnic::Expected<rnic::PdId>> MasqContext::alloc_pd() {
  // Table 1: not forwarded to the RNIC — handled without a virtqueue trip.
  const auto& costs = session_->backend().config().driver_costs;
  co_await lib_charge("alloc_pd", lib_share(costs.alloc_pd));
  Response r = co_await session_->alloc_pd_local();
  if (r.status != rnic::Status::kOk) {
    co_return rnic::Expected<rnic::PdId>::error(r.status);
  }
  co_return rnic::Expected<rnic::PdId>::of(
      static_cast<rnic::PdId>(r.v0));
}

sim::Task<rnic::Expected<verbs::MrHandle>> MasqContext::reg_mr(
    rnic::PdId pd, mem::Addr addr, std::uint64_t len, std::uint32_t access) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("reg_mr", lib_share(costs.reg_mr_base),
                             CmdRegMr{pd, addr, len, access});
  if (r.status != rnic::Status::kOk) {
    co_return rnic::Expected<verbs::MrHandle>::error(r.status);
  }
  co_return rnic::Expected<verbs::MrHandle>::of(
      verbs::MrHandle{static_cast<rnic::Key>(r.v0),
                      static_cast<rnic::Key>(r.v1), addr, len});
}

sim::Task<rnic::Expected<rnic::Cqn>> MasqContext::create_cq(int cqe) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("create_cq", lib_share(costs.create_cq_base),
                             CmdCreateCq{cqe});
  if (r.status != rnic::Status::kOk) {
    co_return rnic::Expected<rnic::Cqn>::error(r.status);
  }
  co_return rnic::Expected<rnic::Cqn>::of(static_cast<rnic::Cqn>(r.v0));
}

sim::Task<rnic::Expected<rnic::Qpn>> MasqContext::create_qp(
    const rnic::QpInitAttr& attr) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("create_qp", lib_share(costs.create_qp),
                             CmdCreateQp{attr});
  if (r.status != rnic::Status::kOk) {
    co_return rnic::Expected<rnic::Qpn>::error(r.status);
  }
  const auto qpn = static_cast<rnic::Qpn>(r.v0);
  qp_types_[qpn] = attr.type;
  co_return rnic::Expected<rnic::Qpn>::of(qpn);
}

sim::Task<rnic::Status> MasqContext::modify_qp(rnic::Qpn qpn,
                                               const rnic::QpAttr& attr,
                                               std::uint32_t mask) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call(verbs::modify_qp_verb(attr, mask),
                             verbs::modify_qp_lib(attr, mask, costs),
                             CmdModifyQp{qpn, attr, mask});
  co_return r.status;
}

sim::Task<rnic::Expected<net::Gid>> MasqContext::query_gid() {
  // vBond answers locally from the frontend (§3.3.1): the virtual GID is
  // kept in sync with the vEth IP, no device round trip needed.
  co_await lib_charge("query_gid", sim::microseconds(2));
  profile_.add("query_gid", verbs::Layer::kMasqDriver, sim::microseconds(2));
  co_await sim::delay(loop(), sim::microseconds(2));
  co_return rnic::Expected<net::Gid>::of(session_->vbond().vgid());
}

sim::Task<rnic::Expected<rnic::QpAttr>> MasqContext::query_qp(
    rnic::Qpn qpn) {
  Response r =
      co_await call("query_qp", sim::microseconds(2), CmdQueryQp{qpn});
  if (r.status != rnic::Status::kOk) {
    co_return rnic::Expected<rnic::QpAttr>::error(r.status);
  }
  co_return rnic::Expected<rnic::QpAttr>::of(r.attr);
}

sim::Task<rnic::Status> MasqContext::destroy_qp(rnic::Qpn qpn) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("destroy_qp", lib_share(costs.destroy_qp),
                             CmdDestroyQp{qpn});
  // Only a confirmed destroy loses the routing entry: a failed destroy
  // (e.g. kDeadlineExceeded) leaves the QP alive on the device, and a UD
  // QP must keep routing post_send through the control path (§3.3.4).
  // ERROR'd QPs are purged by the device hook instead.
  if (r.status == rnic::Status::kOk) qp_types_.erase(qpn);
  co_return r.status;
}

sim::Task<rnic::Status> MasqContext::destroy_cq(rnic::Cqn cq) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("destroy_cq", lib_share(costs.destroy_cq),
                             CmdDestroyCq{cq});
  co_return r.status;
}

sim::Task<rnic::Status> MasqContext::dereg_mr(const verbs::MrHandle& mr) {
  const auto& costs = session_->backend().config().driver_costs;
  Response r = co_await call("dereg_mr", lib_share(costs.dereg_mr),
                             CmdDeregMr{mr.lkey});
  co_return r.status;
}

sim::Task<rnic::Status> MasqContext::dealloc_pd(rnic::PdId pd) {
  const auto& costs = session_->backend().config().driver_costs;
  co_await lib_charge("dealloc_pd", lib_share(costs.dealloc_pd));
  Response r = co_await session_->dealloc_pd_local(pd);
  co_return r.status;
}

rnic::Status MasqContext::post_send(rnic::Qpn qpn, const rnic::SendWr& wr) {
  auto it = qp_types_.find(qpn);
  if (it != qp_types_.end() && it->second == rnic::QpType::kUd) {
    // §3.3.4: UD WQEs go through the control path so RConnrename can
    // rewrite the per-WQE destination. The call is asynchronous from the
    // application's perspective; errors surface as CQEs.
    struct Fwd {
      static sim::Task<void> run(MasqContext* self, rnic::Qpn q,
                                 rnic::SendWr w) {
        CmdBatch one;
        one.cmds.push_back(CmdUdSend{q, w});
        (void)co_await self->submit(std::move(one), /*retry_entries=*/true);
      }
    };
    ++ud_control_sends_;
    loop().spawn(Fwd::run(this, qpn, wr));
    return rnic::Status::kOk;
  }
  // Zero-copy data path: write the WQE, then ring the doorbell through the
  // guest-mapped BAR — the MMIO write traverses GVA -> GPA -> HVA -> HPA
  // and lands on the device with no hypervisor involvement.
  const rnic::Status st =
      session_->backend().device().post_send(qpn, wr, /*ring_doorbell=*/false);
  if (st == rnic::Status::kOk) {
    session_->vm().gva().write_u64(
        doorbell_gva_ + session_->backend().device().doorbell_offset(qpn), 1);
  }
  return st;
}

rnic::Status MasqContext::post_recv(rnic::Qpn qpn, const rnic::RecvWr& wr) {
  return session_->backend().device().post_recv(qpn, wr);
}

int MasqContext::poll_cq(rnic::Cqn cq, int max_entries,
                         rnic::Completion* out) {
  return session_->backend().device().poll_cq(cq, max_entries, out);
}

sim::Future<bool> MasqContext::cq_nonempty(rnic::Cqn cq) {
  return session_->backend().device().cq_nonempty(cq);
}

// ---------------------------------------------------------------------------
// MasqBatch — the pipelined submission API. Queued verbs marshal into one
// CmdBatch and cross the virtqueue in a single transit: one kick on the way
// down, one interrupt on the way back, no matter how many verbs ride along.
// Dependent verbs (create_qp on an in-batch CQ, modify_qp on an in-batch
// QP) use slot links the backend resolves while draining. Batches wider
// than the descriptor ring are chunked: links into an already-committed
// chunk are substituted with the concrete result client-side.
// ---------------------------------------------------------------------------
class MasqBatch final : public verbs::ControlBatch {
 public:
  explicit MasqBatch(MasqContext& ctx) : ctx_(ctx) {}

  int reg_mr(rnic::PdId pd, mem::Addr addr, std::uint64_t len,
             std::uint32_t access) override {
    Meta m;
    m.kind = Meta::kRegMr;
    m.verb = "reg_mr";
    m.lib = lib_share(costs().reg_mr_base);
    m.addr = addr;
    m.len = len;
    return push(CmdRegMr{pd, addr, len, access}, BatchLink{}, m);
  }

  int create_cq(int cqe) override {
    Meta m;
    m.verb = "create_cq";
    m.lib = lib_share(costs().create_cq_base);
    return push(CmdCreateCq{cqe}, BatchLink{}, m);
  }

  int create_qp(const rnic::QpInitAttr& attr, int send_cq_slot,
                int recv_cq_slot) override {
    Meta m;
    m.kind = Meta::kCreateQp;
    m.verb = "create_qp";
    m.lib = lib_share(costs().create_qp);
    m.qp_type = attr.type;
    BatchLink link;
    link.send_cq_from = send_cq_slot;
    link.recv_cq_from = recv_cq_slot;
    return push(CmdCreateQp{attr}, link, m);
  }

  int modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                std::uint32_t mask) override {
    Meta m;
    m.verb = verbs::modify_qp_verb(attr, mask);
    m.lib = verbs::modify_qp_lib(attr, mask, costs());
    return push(CmdModifyQp{qpn, attr, mask}, BatchLink{}, m);
  }

  int modify_qp_slot(int qp_slot, const rnic::QpAttr& attr,
                     std::uint32_t mask) override {
    Meta m;
    m.verb = verbs::modify_qp_verb(attr, mask);
    m.lib = verbs::modify_qp_lib(attr, mask, costs());
    BatchLink link;
    link.qpn_from = qp_slot;
    return push(CmdModifyQp{0, attr, mask}, link, m);
  }

  sim::Task<rnic::Status> commit() override {
    const std::size_t ring = static_cast<std::size_t>(ctx_.vq_.ring_size());
    while (committed_ < cmds_.size()) {
      const std::size_t begin = committed_;
      const std::size_t n = std::min(cmds_.size() - begin, ring);
      std::vector<std::size_t> chunk(n);
      std::iota(chunk.begin(), chunk.end(), begin);
      sim::Time lib_total = 0;
      // The one virtqueue round trip is shared by the whole chunk; the
      // profile attributes a near-equal share to each verb so Fig.-16-style
      // breakdowns show the amortization directly. The division remainder
      // goes to the chunk's first entries, one extra ns each, so the
      // per-verb shares always sum to exactly the charged round trip.
      const sim::Time rt = ctx_.vq_.costs().round_trip();
      const sim::Time rt_base = rt / static_cast<sim::Time>(n);
      const sim::Time rt_rem = rt % static_cast<sim::Time>(n);
      for (std::size_t i = begin; i < begin + n; ++i) {
        ctx_.profile_.add(metas_[i].verb, verbs::Layer::kVerbsLib,
                          metas_[i].lib);
        const sim::Time rt_share =
            rt_base +
            (static_cast<sim::Time>(i - begin) < rt_rem ? 1 : 0);
        ctx_.profile_.add(metas_[i].verb, verbs::Layer::kVirtio, rt_share);
        lib_total += metas_[i].lib;
      }
      // The guest library still pays its per-verb CPU share up front; only
      // the channel transits are amortized.
      co_await sim::delay(ctx_.loop(), lib_total);
      co_await submit_envelope(std::move(chunk));
      committed_ = begin + n;
    }
    co_await retry_failed_entries();
    rnic::Status first = rnic::Status::kOk;
    for (const Result& res : results_) {
      if (res.status != rnic::Status::kOk) {
        first = res.status;
        break;
      }
    }
    co_return first;
  }

  rnic::Status status(int slot) const override {
    return results_.at(slot).status;
  }
  std::uint64_t value(int slot) const override {
    return results_.at(slot).value;
  }
  verbs::MrHandle mr(int slot) const override { return results_.at(slot).mr; }
  int size() const override { return static_cast<int>(cmds_.size()); }

 private:
  struct Meta {
    enum Kind { kPlain, kRegMr, kCreateQp } kind = kPlain;
    const char* verb = "?";
    sim::Time lib = 0;
    mem::Addr addr = 0;       // kRegMr
    std::uint64_t len = 0;    // kRegMr
    rnic::QpType qp_type = rnic::QpType::kRc;  // kCreateQp
  };
  struct Result {
    rnic::Status status = rnic::Status::kOk;
    std::uint64_t value = 0;
    verbs::MrHandle mr;
  };

  const verbs::DriverCosts& costs() const {
    return ctx_.session_->backend().config().driver_costs;
  }

  int push(Command cmd, BatchLink link, const Meta& m) {
    cmds_.push_back(std::move(cmd));
    links_.push_back(link);
    metas_.push_back(m);
    results_.emplace_back();
    return static_cast<int>(cmds_.size()) - 1;
  }

  // Builds one envelope from `entries` (ascending slots), submits it and
  // records every entry's result. First submissions and retry rounds map
  // a slot link the same way:
  //   * a link to an entry in this envelope becomes that entry's position;
  //   * a link to an earlier entry outside it is substituted client-side
  //     with that entry's result — or, if that entry failed, poisoned, and
  //     the dependent inherits its status (retryable vs permanent matters
  //     for the retry rounds);
  //   * any other link names no earlier entry and is poisoned, so the
  //     backend fails the entry kInvalidArgument.
  sim::Task<void> submit_envelope(std::vector<std::size_t> entries) {
    const std::size_t n = entries.size();
    const int poison = static_cast<int>(n);  // past the envelope's end
    CmdBatch b;
    b.cmds.reserve(n);
    b.links.reserve(n);
    // Ordered: iterated below to patch per-slot results.
    sim::FlatMap<std::size_t, rnic::Status> dep_failed;
    for (const std::size_t i : entries) {
      Command cmd = cmds_[i];
      auto map = [&](int slot, auto apply) -> int {
        if (slot < 0) return -1;
        const auto dep = static_cast<std::size_t>(slot);
        const auto at = std::lower_bound(entries.begin(), entries.end(), dep);
        if (at != entries.end() && *at == dep) {
          return static_cast<int>(at - entries.begin());
        }
        if (dep >= i) return poison;
        if (results_[dep].status != rnic::Status::kOk) {
          dep_failed[i] = results_[dep].status;
          return poison;
        }
        apply(results_[dep].value);
        return -1;
      };
      BatchLink link;
      if (auto* c = std::get_if<CmdCreateQp>(&cmd)) {
        link.send_cq_from = map(links_[i].send_cq_from, [c](std::uint64_t v) {
          c->attr.send_cq = static_cast<rnic::Cqn>(v);
        });
        link.recv_cq_from = map(links_[i].recv_cq_from, [c](std::uint64_t v) {
          c->attr.recv_cq = static_cast<rnic::Cqn>(v);
        });
      }
      if (auto* c = std::get_if<CmdModifyQp>(&cmd)) {
        link.qpn_from = map(links_[i].qpn_from, [c](std::uint64_t v) {
          c->qpn = static_cast<rnic::Qpn>(v);
        });
      }
      b.cmds.push_back(std::move(cmd));
      b.links.push_back(link);
    }
    Response r = co_await ctx_.submit(std::move(b), /*retry_entries=*/false);
    for (std::size_t k = 0; k < n; ++k) {
      // A batch that never completed (retry budget exhausted) fails every
      // entry with the envelope's status.
      record(entries[k],
             r.batch.size() == n ? r.batch[k] : Response{r.status, 0, 0});
    }
    for (const auto& [i, st] : dep_failed) results_[i].status = st;
  }

  // After the initial chunked submission, transiently-failed entries are
  // retried in rounds. Each round collects the retryable set plus ladder
  // collateral — a modify_qp that failed kInvalidState only because an
  // earlier transition on the same QP is being retried — then resubmits it
  // in ring-sized envelopes under fresh cmd_ids (entry-level retries are
  // new work, not a replay of the original chunk). Only a link to an
  // earlier entry is a dependency. Rounds stop when nothing retryable
  // remains or the budget runs out, at which point still-transient entries
  // fail kDeadlineExceeded like a solo verb would.
  sim::Task<void> retry_failed_entries() {
    const RetryPolicy& rp = ctx_.session_->backend().config().retry;
    const sim::Time deadline = ctx_.loop().now() + rp.verb_deadline;
    const std::size_t ring = static_cast<std::size_t>(ctx_.vq_.ring_size());
    for (int round = 1; round < rp.max_attempts; ++round) {
      std::vector<std::size_t> retry;
      sim::FlatSet<std::size_t> retry_slots;
      sim::FlatSet<std::uint64_t> retry_qpns;
      for (std::size_t i = 0; i < cmds_.size(); ++i) {
        const auto* mod = std::get_if<CmdModifyQp>(&cmds_[i]);
        const int dep = links_[i].qpn_from;
        const bool linked = dep >= 0 && static_cast<std::size_t>(dep) < i;
        const bool dep_ok =
            linked && results_[dep].status == rnic::Status::kOk;
        bool take = rnic::is_retryable(results_[i].status);
        if (!take && mod != nullptr &&
            results_[i].status == rnic::Status::kInvalidState) {
          if (linked) {
            take = retry_slots.count(static_cast<std::size_t>(dep)) != 0 ||
                   (dep_ok && retry_qpns.count(results_[dep].value) != 0);
          } else if (dep < 0) {
            take = retry_qpns.count(mod->qpn) != 0;
          }
        }
        if (!take) continue;
        retry_slots.insert(i);
        retry.push_back(i);
        if (mod != nullptr) {
          if (dep < 0) {
            retry_qpns.insert(mod->qpn);
          } else if (dep_ok) {
            retry_qpns.insert(results_[dep].value);
          }
        }
      }
      if (retry.empty()) co_return;
      if (ctx_.loop().now() >= deadline) break;
      ++ctx_.control_retries_;
      co_await sim::delay(ctx_.loop(), ctx_.backoff_delay(round));
      // Links point backwards only, so a dependency in an earlier slice
      // has its fresh result recorded by the time the later slice is built.
      for (std::size_t off = 0; off < retry.size(); off += ring) {
        const std::size_t n = std::min(ring, retry.size() - off);
        std::vector<std::size_t> slice(retry.begin() + off,
                                       retry.begin() + off + n);
        co_await submit_envelope(std::move(slice));
      }
    }
    for (Result& res : results_) {
      if (rnic::is_retryable(res.status)) {
        res.status = rnic::Status::kDeadlineExceeded;
        ++ctx_.deadline_failures_;
      }
    }
  }

  void record(std::size_t i, const Response& r) {
    Result& res = results_[i];
    res.status = r.status;
    // A failed entry carries no result: the backend echoes inputs in v0
    // even on failure (modify_qp returns its QPN), and a retry round that
    // fails must not leave the previous round's mr/value visible — zero
    // everything on non-kOk so value()/mr() never report stale state.
    switch (metas_[i].kind) {
      case Meta::kRegMr:
        res.mr = r.status == rnic::Status::kOk
                     ? verbs::MrHandle{static_cast<rnic::Key>(r.v0),
                                       static_cast<rnic::Key>(r.v1),
                                       metas_[i].addr, metas_[i].len}
                     : verbs::MrHandle{};
        break;
      case Meta::kCreateQp:
        if (r.status == rnic::Status::kOk) {
          const auto qpn = static_cast<rnic::Qpn>(r.v0);
          res.value = r.v0;
          ctx_.qp_types_[qpn] = metas_[i].qp_type;
        } else {
          res.value = 0;
        }
        break;
      case Meta::kPlain:
        res.value = r.status == rnic::Status::kOk ? r.v0 : 0;
        break;
    }
  }

  MasqContext& ctx_;
  std::vector<Command> cmds_;
  std::vector<BatchLink> links_;
  std::vector<Meta> metas_;
  std::vector<Result> results_;
  std::size_t committed_ = 0;
};

std::unique_ptr<verbs::ControlBatch> MasqContext::make_batch() {
  return std::make_unique<MasqBatch>(*this);
}

}  // namespace masq
