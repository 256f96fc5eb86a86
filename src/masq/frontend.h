// MasQ frontend driver — the verbs::Context a guest application sees.
//
// Control-path verbs marshal into commands and cross the virtio virtqueue
// to the backend (~20 us round trip, Table 1). Data-path verbs touch only
// memory the hypervisor mapped straight through: WQEs are written into the
// device queues and the doorbell is rung via the guest-mapped MMIO BAR
// (Appendix B.1) — no VM exit, no host software, which is the entire point
// of the design (§3.1).
#pragma once

#include <memory>

#include "hyp/instance.h"
#include "masq/backend.h"
#include "masq/commands.h"
#include "overlay/oob.h"
#include "sim/rng.h"
#include "sim/flat_map.h"
#include "verbs/api.h"
#include "virtio/virtqueue.h"

namespace masq {

class MasqBatch;
class WarmPool;

class MasqContext : public verbs::Context {
 public:
  MasqContext(Backend::Session& session, overlay::OobEndpoint& oob,
              virtio::ChannelCosts virtio_costs = {});
  // Unhooks the QP-ERROR subscription and tears the warm pool's liveness
  // down before the device/backend go away.
  ~MasqContext() override;

  std::string name() const override { return "MasQ"; }
  sim::EventLoop& loop() override { return session_->backend().loop(); }

  mem::Addr alloc_buffer(std::uint64_t len) override {
    return session_->vm().alloc_guest_buffer(len);
  }
  void write_buffer(mem::Addr addr,
                    std::span<const std::uint8_t> in) override {
    session_->vm().write_guest(addr, in);
  }
  void read_buffer(mem::Addr addr, std::span<std::uint8_t> out) override {
    session_->vm().read_guest(addr, out);
  }

  sim::Task<rnic::Expected<rnic::PdId>> alloc_pd() override;
  sim::Task<rnic::Expected<verbs::MrHandle>> reg_mr(
      rnic::PdId pd, mem::Addr addr, std::uint64_t len,
      std::uint32_t access) override;
  sim::Task<rnic::Expected<rnic::Cqn>> create_cq(int cqe) override;
  sim::Task<rnic::Expected<rnic::Qpn>> create_qp(
      const rnic::QpInitAttr& attr) override;
  sim::Task<rnic::Status> modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                                    std::uint32_t mask) override;
  sim::Task<rnic::Expected<net::Gid>> query_gid() override;
  sim::Task<rnic::Expected<rnic::QpAttr>> query_qp(rnic::Qpn qpn) override;
  sim::Task<rnic::Status> destroy_qp(rnic::Qpn qpn) override;
  sim::Task<rnic::Status> destroy_cq(rnic::Cqn cq) override;
  sim::Task<rnic::Status> dereg_mr(const verbs::MrHandle& mr) override;
  sim::Task<rnic::Status> dealloc_pd(rnic::PdId pd) override;

  [[nodiscard]] rnic::Status post_send(rnic::Qpn qpn,
                                       const rnic::SendWr& wr) override;
  [[nodiscard]] rnic::Status post_recv(rnic::Qpn qpn,
                                       const rnic::RecvWr& wr) override;
  int poll_cq(rnic::Cqn cq, int max_entries,
              rnic::Completion* out) override;
  sim::Future<bool> cq_nonempty(rnic::Cqn cq) override;
  sim::Future<bool> next_rx_event(rnic::Qpn qpn) override {
    return session_->backend().device().next_rx_event(qpn);
  }

  overlay::OobEndpoint& oob() override { return oob_; }
  sim::Time scale_compute(sim::Time host_time) const override {
    return session_->vm().compute(host_time);
  }

  // Pipelined control path: queued verbs ship as one CmdBatch in a single
  // virtqueue transit (one kick + one interrupt for the whole batch, with
  // in-batch slot links for dependent verbs). Batches wider than the ring
  // are chunked to ring size so descriptor backpressure still holds.
  std::unique_ptr<verbs::ControlBatch> make_batch() override;

  // Warm-path connection setup (DESIGN.md §14): forwarded to the pool when
  // BackendConfig.warm.enabled constructed one; cold answers otherwise.
  sim::Task<verbs::WarmEndpoint> acquire_warm(
      const net::Gid& peer_gid) override;
  sim::Task<void> release_warm(const verbs::WarmEndpoint& ep,
                               const net::Gid& peer_gid,
                               rnic::Qpn peer_qpn) override;
  sim::Task<void> discard_warm(const verbs::WarmEndpoint& ep) override;
  void invalidate_warm(const net::Gid& peer_gid) override;
  // Null unless the warm path is enabled.
  WarmPool* warm_pool() { return warm_pool_.get(); }

  Backend::Session& session() { return *session_; }
  virtio::Virtqueue<Envelope, Response>& virtqueue() { return vq_; }

  // --- Live migration (DESIGN.md §15) -----------------------------------
  // The Migrator drives these four in order. begin_migration() closes the
  // control-path gate: new verbs park on a promise instead of entering the
  // virtqueue, so the queue can drain to empty and stay empty. unbind()
  // detaches from the source session (QP-ERROR hook off the old device,
  // session pointer nulled) just before the source Vm is destroyed;
  // rebind() attaches to the freshly registered destination session and
  // remaps the doorbell BAR into the new guest address space.
  // end_migration() reopens the gate and releases every parked caller.
  void begin_migration() { migration_gate_ = true; }
  void end_migration();
  void unbind();
  void rebind(Backend::Session& session);
  bool migration_in_progress() const { return migration_gate_; }

  // Control-path verbs that needed at least one retry (transient failure
  // or attempt timeout).
  std::uint64_t control_retries() const { return control_retries_; }
  // Verbs that exhausted their retry budget and failed kDeadlineExceeded.
  std::uint64_t deadline_failures() const { return deadline_failures_; }
  // UD post_sends routed through the control path (§3.3.4) — observable
  // for the qp_types_ routing table: a UD QP whose entry was lost would
  // stop incrementing this and fall through to the data path.
  std::uint64_t ud_control_sends() const { return ud_control_sends_; }

 private:
  friend class MasqBatch;
  using CallOutcome = virtio::Virtqueue<Envelope, Response>::CallOutcome;

  // A solo verb: lib charge + virtqueue round trip + backend handling of a
  // batch of one (with retries). Returns the entry's response, or the
  // envelope's status when the batch never completed.
  sim::Task<Response> call(const char* verb, sim::Time lib_time, Command cmd);

  // One virtqueue attempt, weighing one ring descriptor per batch entry.
  // Under a fault plane the per-attempt deadline is armed (a dropped
  // descriptor resumes as timed_out); without one the plain
  // never-times-out path is used so fault-free runs keep an identical
  // event stream.
  sim::Task<CallOutcome> attempt(Envelope env, sim::Time attempt_deadline);
  // The one submit loop: bounded retry with exponential backoff + jitter
  // and a per-verb deadline, every attempt under the same cmd_id — the
  // backend's dedup makes a retry idempotent. Attempt timeouts are always
  // retried. A retryable envelope status (rnic::is_retryable) is retried
  // only with `retry_entries`: a solo verb owns its retries, while
  // MasqBatch gets per-entry errors back and runs its own entry-level
  // retry rounds under fresh ids. Exhaustion surfaces as
  // kDeadlineExceeded, never a hang.
  sim::Task<Response> submit(CmdBatch batch, bool retry_entries);
  // Backoff before retry `attempt` (1-based), jittered.
  sim::Time backoff_delay(int attempt);

  // Pointer, not reference: live migration detaches the context from the
  // source session (unbind) and reattaches it to the destination session
  // (rebind). Null only inside the migration atomic section.
  Backend::Session* session_;
  overlay::OobEndpoint& oob_;
  virtio::Virtqueue<Envelope, Response> vq_;
  mem::Addr doorbell_gva_ = 0;  // device BAR mapped into the guest
  // Control-path gate: while set, submit() parks on a promise before
  // touching the virtqueue. Closed by begin_migration(), reopened
  // (waiters released) by end_migration().
  bool migration_gate_ = false;
  std::vector<sim::Promise<bool>> gate_waiters_;
  // Warm-pool staleness subscriptions (satellite fix): a peer that
  // migrates re-registers its unchanged vGID against a new physical GID;
  // both the re-push and any explicit invalidation must purge parked
  // pairs toward that peer, or the next acquire() would hand out a QP
  // wired to the peer's old host. Zero when no warm pool exists.
  sdn::Controller::SubId warm_push_sub_ = 0;
  sdn::Controller::SubId warm_inval_sub_ = 0;
  sim::FlatMap<rnic::Qpn, rnic::QpType> qp_types_;
  std::uint64_t next_cmd_id_ = 1;
  sim::Rng jitter_rng_;
  std::uint64_t control_retries_ = 0;
  std::uint64_t deadline_failures_ = 0;
  std::uint64_t ud_control_sends_ = 0;
  rnic::RnicDevice::QpErrorHookId qp_error_hook_ = 0;
  std::unique_ptr<WarmPool> warm_pool_;
};

}  // namespace masq
