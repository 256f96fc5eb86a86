#include "masq/backend.h"

namespace masq {

Backend::Backend(sim::EventLoop& loop, rnic::RnicDevice& device,
                 sdn::Controller& controller, overlay::VirtualNetwork& vnet,
                 BackendConfig config)
    : loop_(loop),
      device_(device),
      controller_(controller),
      vnet_(vnet),
      config_(std::move(config)),
      // §3.3.1: "the controller can be configured to push down the
      // mappings in advance" — the cache plants every (re)binding, which
      // also makes live migration transparent to later connections.
      cache_(loop, controller,
             sdn::CacheConfig{.hit_cost = config_.mapping_cache_hit,
                              .insert_pushes = true}),
      conntrack_(loop, vnet, config_.conntrack_costs) {
  if (config_.faults != nullptr) {
    cache_.set_fault_probe(
        [f = config_.faults](std::uint64_t key_hash) {
          return f->expire_cache_entry(key_hash);
        });
  }
  // Table 2: a QP entering ERROR carries no connection any more. Purge its
  // RConntrack entries whatever forced the transition — a rule-update
  // teardown, a data-path fault, or an injected error — deferring the
  // table work off the device's flush path. The deferred callback may
  // outlive this backend in the loop's queue, so it only holds a weak
  // liveness reference.
  qp_error_sub_ = device_.on_qp_error(
      [this, alive = std::weak_ptr<const char>(liveness_)](rnic::Qpn qpn) {
        // pending_qp_purges_ lets the invariant auditor distinguish "entry
        // for an ERROR'd QP because the deferred purge has not run yet"
        // (legal) from a genuinely leaked row.
        ++pending_qp_purges_;
        loop_.schedule_after(0, [this, alive, qpn] {
          if (alive.expired()) return;
          if (conntrack_.has_qp(qpn)) {
            loop_.spawn(purge_and_settle(qpn, alive));
          } else {
            --pending_qp_purges_;
          }
        });
      });
}

sim::Task<void> Backend::purge_and_settle(
    rnic::Qpn qpn, std::weak_ptr<const char> alive) {
  co_await conntrack_.purge_qp(qpn);
  if (!alive.expired()) --pending_qp_purges_;
}

Backend::~Backend() {
  // Run before member destruction: the device must not call a hook into a
  // dead backend, and loop callbacks already queued by the hook must see
  // the liveness flag down. (~Session → ~VBond → unregister_vgid then
  // broadcasts invalidations, which cache_ — destroyed after sessions_ —
  // still hears.)
  liveness_.reset();
  device_.remove_qp_error_hook(qp_error_sub_);
}

rnic::FnId Backend::tenant_fn(std::uint32_t vni) {
  if (config_.map_tenants_to_pf) return rnic::kPf;
  auto it = tenant_fn_.find(vni);
  if (it != tenant_fn_.end()) return it->second;
  // Default QoS grouping policy (§3.3.3): group QPs by tenant, then map
  // each group to one VF-backed rate limiter. When tenants outnumber VFs,
  // groups share limiters round-robin.
  const int num_vfs = device_.num_functions() - 1;
  if (num_vfs == 0) return rnic::kPf;
  const rnic::FnId fn = next_vf_;
  next_vf_ = static_cast<rnic::FnId>(next_vf_ % num_vfs + 1);
  tenant_fn_[vni] = fn;
  return fn;
}

void Backend::set_tenant_rate_limit(std::uint32_t vni, double gbps) {
  const rnic::FnId fn = tenant_fn(vni);
  if (fn == rnic::kPf) {
    throw std::logic_error(
        "QoS requires VF-backed tenants (backend is in PF mode)");
  }
  device_.set_vf_rate_limit(fn, gbps);
}

Backend::Session& Backend::register_vm(hyp::Vm& vm) {
  const rnic::FnId fn = tenant_fn(vm.config().vni);
  sessions_.push_back(std::make_unique<Session>(*this, vm, fn));
  return *sessions_.back();
}

void Backend::remove_session(Session& session) {
  std::erase_if(sessions_, [&session](const std::unique_ptr<Session>& s) {
    return s.get() == &session;
  });
}

void Backend::Session::adopt_qp(rnic::Qpn qpn,
                                const rnic::QpAttr* tenant_attr) {
  owned_qps_.insert(qpn);
  if (tenant_attr != nullptr) tenant_view_[qpn] = *tenant_attr;
}

void Backend::Session::adopt_cq(rnic::Cqn cq) { owned_cqs_.insert(cq); }

void Backend::Session::adopt_mr(rnic::Key lkey) { owned_mrs_.insert(lkey); }

void Backend::Session::adopt_pd(rnic::PdId pd) { owned_pds_.insert(pd); }

Backend::Session::Session(Backend& backend, hyp::Vm& vm, rnic::FnId fn)
    : backend_(backend),
      vm_(vm),
      fn_(fn),
      driver_(backend.loop(), backend.device(), fn,
              backend.config().driver_costs),
      vbond_(backend.controller(), vm.config().vni, vm.config().mac,
             backend.device().gid(rnic::kPf)) {
  // vBond initialization: the vEth already carries a valid IP, so bind
  // immediately and publish the (VNI, vGID) -> pGID mapping.
  vbond_.bind(vm.config().vip);
  backend_.conntrack().watch_tenant(vm.config().vni);
}

void Backend::Session::set_profile(verbs::LayerProfile* profile) {
  profile_ = profile;
  driver_.set_profile(profile, verbs::Layer::kRdmaDriver);
}

namespace {

// Resolves in-batch result links against the sub-responses produced so
// far. Returns kOk, or the error the dependent entry must fail with: a
// link that points outside [0, done) — i.e. forward or out of range — is
// kInvalidArgument; a link at an entry that itself failed *propagates that
// entry's status*, so the frontend can tell a dependent of a transient
// failure (kUnavailable — retry the chain) from a dependent of a
// permanent one.
rnic::Status resolve_links(const BatchLink& link,
                           const std::vector<Response>& done,
                           Command* cmd) {
  auto fetch = [&done](int slot, std::uint64_t* out) -> rnic::Status {
    if (slot < 0 || slot >= static_cast<int>(done.size())) {
      return rnic::Status::kInvalidArgument;
    }
    if (done[slot].status != rnic::Status::kOk) {
      return done[slot].status;  // dependency failed: inherit its error
    }
    *out = done[slot].v0;
    return rnic::Status::kOk;
  };
  rnic::Status st = rnic::Status::kOk;
  std::uint64_t v = 0;
  if (auto* c = std::get_if<CmdCreateQp>(cmd)) {
    if (link.send_cq_from >= 0) {
      if ((st = fetch(link.send_cq_from, &v)) != rnic::Status::kOk) return st;
      c->attr.send_cq = static_cast<rnic::Cqn>(v);
    }
    if (link.recv_cq_from >= 0) {
      if ((st = fetch(link.recv_cq_from, &v)) != rnic::Status::kOk) return st;
      c->attr.recv_cq = static_cast<rnic::Cqn>(v);
    }
  }
  if (link.qpn_from >= 0) {
    if ((st = fetch(link.qpn_from, &v)) != rnic::Status::kOk) return st;
    const auto qpn = static_cast<rnic::Qpn>(v);
    if (auto* c = std::get_if<CmdModifyQp>(cmd)) c->qpn = qpn;
    else if (auto* c = std::get_if<CmdQueryQp>(cmd)) c->qpn = qpn;
    else if (auto* c = std::get_if<CmdDestroyQp>(cmd)) c->qpn = qpn;
    else return rnic::Status::kInvalidArgument;  // link on a non-QP command
  }
  return rnic::Status::kOk;
}

}  // namespace

sim::Task<Response> Backend::Session::handle(Envelope env) {
  if (auto it = completed_cmds_.find(env.cmd_id);
      it != completed_cmds_.end()) {
    ++dedup_hits_;
    co_return it->second;
  }
  if (auto it = inflight_cmds_.find(env.cmd_id); it != inflight_cmds_.end()) {
    // A retry raced the original execution: ride its future rather than
    // executing the command a second time.
    ++dedup_hits_;
    auto future = it->second;  // copy: the leader erases the map entry
    co_return co_await future;
  }
  sim::Promise<Response> leader(backend_.loop());
  inflight_cmds_.emplace(env.cmd_id, leader.get_future());
  Response r;
  sim::FaultPlane* faults = backend_.faults();
  if (faults != nullptr && faults->fail_command(env.cmd_id)) {
    r = Response{rnic::Status::kUnavailable, 0, 0};
  } else {
    // handle_batch turns an entry's exception into that entry's error, so
    // nothing here throws into the in-flight table.
    r = co_await handle_batch(std::move(env.batch));
  }
  inflight_cmds_.erase(env.cmd_id);
  if (!rnic::is_retryable(r.status)) {
    // Memoize only terminal outcomes. The frontend retries a retryable
    // response under the SAME cmd_id (id reuse keeps timeout retries
    // idempotent), so a memoized kUnavailable would replay as a dedup hit
    // on every backoff attempt and the command could never re-execute
    // after the controller recovers. Transient failures — injected or
    // real — therefore must not enter the window.
    completed_cmds_.emplace(env.cmd_id, r);
    completed_order_.push_back(env.cmd_id);
    if (completed_order_.size() > kDedupWindow) {
      completed_cmds_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
  }
  leader.set_value(r);
  co_return r;
}

sim::Task<Response> Backend::Session::handle_batch(CmdBatch batch) {
  Response out;
  out.status = rnic::Status::kOk;
  out.batch.reserve(batch.cmds.size());
  for (std::size_t i = 0; i < batch.cmds.size(); ++i) {
    Command cmd = std::move(batch.cmds[i]);
    rnic::Status link_st = rnic::Status::kOk;
    if (i < batch.links.size() && batch.links[i].any()) {
      link_st = resolve_links(batch.links[i], out.batch, &cmd);
    }
    Response r;
    if (link_st != rnic::Status::kOk) {
      r.status = link_st;  // broken dependency: fail just this entry
    } else if (backend_.faults() != nullptr &&
               backend_.faults()->fail_command(i)) {
      // Injected per-entry transient failure: this entry reports
      // kUnavailable (retryable); its batchmates still run.
      r.status = rnic::Status::kUnavailable;
    } else {
      // Error independence: an exception from one entry becomes that
      // entry's error response; the rest of the batch still runs.
      try {
        r = co_await handle_one(std::move(cmd));
      } catch (...) {
        r = Response{rnic::Status::kInvalidArgument, 0, 0};
      }
    }
    if (out.status == rnic::Status::kOk && r.status != rnic::Status::kOk) {
      out.status = r.status;  // batch status = first per-entry error
    }
    out.batch.push_back(std::move(r));
  }
  co_return out;
}

sim::Task<Response> Backend::Session::handle_one(Command cmd) {
  // MasQ driver processing (frontend marshalling + backend dispatch).
  if (profile_ != nullptr) {
    const char* verb = std::visit(
        [](const auto& c) -> const char* {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, CmdRegMr>) return "reg_mr";
          else if constexpr (std::is_same_v<T, CmdCreateCq>) return "create_cq";
          else if constexpr (std::is_same_v<T, CmdCreateQp>) return "create_qp";
          else if constexpr (std::is_same_v<T, CmdModifyQp>) {
            return verbs::modify_qp_verb(c.attr, c.mask);
          }
          else if constexpr (std::is_same_v<T, CmdQueryQp>) return "query_qp";
          else if constexpr (std::is_same_v<T, CmdDestroyQp>) return "destroy_qp";
          else if constexpr (std::is_same_v<T, CmdDestroyCq>) return "destroy_cq";
          else if constexpr (std::is_same_v<T, CmdDeregMr>) return "dereg_mr";
          else return "ud_send";
        },
        cmd);
    profile_->add(verb, verbs::Layer::kMasqDriver,
                  backend_.config().command_overhead);
  }
  co_await sim::delay(backend_.loop(), backend_.config().command_overhead);

  if (auto* c = std::get_if<CmdRegMr>(&cmd)) co_return co_await on_reg_mr(*c);
  if (auto* c = std::get_if<CmdCreateCq>(&cmd)) {
    co_return co_await on_create_cq(*c);
  }
  if (auto* c = std::get_if<CmdCreateQp>(&cmd)) {
    co_return co_await on_create_qp(*c);
  }
  if (auto* c = std::get_if<CmdModifyQp>(&cmd)) {
    co_return co_await on_modify_qp(*c);
  }
  if (auto* c = std::get_if<CmdQueryQp>(&cmd)) {
    co_return co_await on_query_qp(*c);
  }
  if (auto* c = std::get_if<CmdDestroyQp>(&cmd)) {
    co_return co_await on_destroy_qp(*c);
  }
  if (auto* c = std::get_if<CmdDestroyCq>(&cmd)) {
    co_return co_await on_destroy_cq(*c);
  }
  if (auto* c = std::get_if<CmdDeregMr>(&cmd)) {
    co_return co_await on_dereg_mr(*c);
  }
  if (auto* c = std::get_if<CmdUdSend>(&cmd)) {
    co_return co_await on_ud_send(*c);
  }
  co_return Response{rnic::Status::kInvalidArgument, 0, 0};
}

sim::Task<Response> Backend::Session::alloc_pd_local() {
  auto pd = co_await driver_.alloc_pd();
  if (pd.status == rnic::Status::kOk) owned_pds_.insert(pd.value);
  co_return Response{pd.status, pd.value, 0};
}

sim::Task<Response> Backend::Session::dealloc_pd_local(rnic::PdId pd) {
  const rnic::Status st = co_await driver_.dealloc_pd(pd);
  if (st == rnic::Status::kOk) owned_pds_.erase(pd);
  co_return Response{st, 0, 0};
}

sim::Task<Response> Backend::Session::on_reg_mr(const CmdRegMr& cmd) {
  // The frontend shipped the (GVA, GPA) mapping; pinning the host levels
  // and building the MTT happens in the kernel driver (Appendix B.2).
  auto mr = co_await driver_.reg_mr(cmd.pd, vm_.gva(), cmd.gva, cmd.len,
                                    cmd.access);
  if (mr.status == rnic::Status::kOk) owned_mrs_.insert(mr.value.lkey);
  co_return Response{mr.status, mr.value.lkey, mr.value.rkey};
}

sim::Task<Response> Backend::Session::on_create_cq(const CmdCreateCq& cmd) {
  auto cq = co_await driver_.create_cq(cmd.cqe);
  if (cq.status == rnic::Status::kOk) owned_cqs_.insert(cq.value);
  co_return Response{cq.status, cq.value, 0};
}

sim::Task<Response> Backend::Session::on_create_qp(const CmdCreateQp& cmd) {
  auto qp = co_await driver_.create_qp(cmd.attr);
  if (qp.status == rnic::Status::kOk) {
    ++qps_created_;
    owned_qps_.insert(qp.value);
  }
  co_return Response{qp.status, qp.value, 0};
}

sim::Task<Response> Backend::Session::on_modify_qp(const CmdModifyQp& cmd) {
  rnic::QpAttr attr = cmd.attr;
  const bool to_rtr = (cmd.mask & rnic::kAttrState) != 0 &&
                      attr.state == rnic::QpState::kRtr;
  const bool has_dest = (cmd.mask & rnic::kAttrDestGid) != 0 &&
                        !attr.dest_gid.is_zero();
  if (to_rtr && has_dest) {
    const auto dst_vip = attr.dest_gid.to_ipv4();
    if (!dst_vip) co_return Response{rnic::Status::kInvalidArgument, 0, 0};

    // RConntrack: an RDMA connection cannot be established unless the
    // security rules explicitly allow it (Fig. 6 step (1)).
    const bool allowed = co_await backend_.conntrack().validate(
        vni(), vm_.config().vip, *dst_vip);
    if (!allowed) co_return Response{rnic::Status::kPermissionDenied, 0, 0};

    // RConnrename: replace the peer's virtual GID with the physical GID
    // (Fig. 4 step (4)). The application keeps seeing the virtual view;
    // only the hardware QPC gets the physical address. An unreachable
    // controller with no fresh-enough cached mapping is kUnavailable
    // (retryable), distinct from an authoritative kNotFound.
    std::optional<net::Gid> pgid;
    if (backend_.config().disable_mapping_cache) {
      auto reply =
          co_await backend_.controller().query_ex(vni(), attr.dest_gid);
      if (reply.unreachable) {
        co_return Response{rnic::Status::kUnavailable, 0, 0};
      }
      pgid = reply.pgid;
    } else {
      auto res = co_await backend_.mapping_cache().resolve_ex(
          vni(), attr.dest_gid);
      if (res.status == sdn::MappingCache::ResolveStatus::kUnavailable) {
        co_return Response{rnic::Status::kUnavailable, 0, 0};
      }
      pgid = res.pgid;
    }
    if (!pgid) co_return Response{rnic::Status::kNotFound, 0, 0};
    attr.dest_gid = *pgid;

    const rnic::Status st =
        co_await driver_.modify_qp(cmd.qpn, attr, cmd.mask);
    if (st == rnic::Status::kOk) {
      co_await backend_.conntrack().track(RConntrack::Entry{
          vni(), vm_.config().vip, *dst_vip, cmd.qpn, &driver_});
      // The QP may have been forced into ERROR (data-path fault, injected
      // error, rule teardown) while track() was charging its insert cost —
      // in that case the purge hook already ran against an empty table, so
      // re-check and drop the entry we just installed (Table 2: a dead QP
      // carries no connection).
      if (backend_.device().qp_state(cmd.qpn) == rnic::QpState::kError) {
        co_await backend_.conntrack().purge_qp(cmd.qpn);
      }
      // The tenant keeps seeing the QPC it configured (virtual GID); only
      // the hardware view was renamed.
      tenant_view_[cmd.qpn] = cmd.attr;
    }
    // v0 echoes the QPN so later batch entries can link off this slot.
    co_return Response{st, cmd.qpn, 0};
  }
  const rnic::Status st = co_await driver_.modify_qp(cmd.qpn, attr, cmd.mask);
  if (st == rnic::Status::kOk) {
    rnic::QpAttr& view = tenant_view_[cmd.qpn];
    if (cmd.mask & rnic::kAttrState) view.state = cmd.attr.state;
    if (cmd.mask & rnic::kAttrDestGid) view.dest_gid = cmd.attr.dest_gid;
    if (cmd.mask & rnic::kAttrDestQpn) view.dest_qpn = cmd.attr.dest_qpn;
    if (cmd.mask & rnic::kAttrPathMtu) view.path_mtu = cmd.attr.path_mtu;
    if (cmd.mask & rnic::kAttrQkey) view.qkey = cmd.attr.qkey;
  }
  co_return Response{st, cmd.qpn, 0};
}

sim::Task<Response> Backend::Session::on_query_qp(const CmdQueryQp& cmd) {
  // The device validates existence and supplies hardware-owned fields
  // (current state); the addressing fields come from the tenant view.
  if (!backend_.device().qp_exists(cmd.qpn)) {
    co_return Response{rnic::Status::kNotFound, 0, 0};
  }
  Response r;
  auto it = tenant_view_.find(cmd.qpn);
  r.attr = it != tenant_view_.end() ? it->second : rnic::QpAttr{};
  r.attr.state = backend_.device().qp_state(cmd.qpn);
  co_return r;
}

sim::Task<Response> Backend::Session::on_destroy_qp(const CmdDestroyQp& cmd) {
  tenant_view_.erase(cmd.qpn);
  co_await backend_.conntrack().untrack(cmd.qpn, vni());
  const rnic::Status st = co_await driver_.destroy_qp(cmd.qpn);
  if (st == rnic::Status::kOk && owned_qps_.erase(cmd.qpn) > 0) {
    ++qps_destroyed_;
  }
  co_return Response{st, 0, 0};
}

sim::Task<Response> Backend::Session::on_destroy_cq(const CmdDestroyCq& cmd) {
  const rnic::Status st = co_await driver_.destroy_cq(cmd.cq);
  if (st == rnic::Status::kOk) owned_cqs_.erase(cmd.cq);
  co_return Response{st, 0, 0};
}

sim::Task<Response> Backend::Session::on_dereg_mr(const CmdDeregMr& cmd) {
  const rnic::Status st = co_await driver_.dereg_mr(cmd.lkey);
  if (st == rnic::Status::kOk) owned_mrs_.erase(cmd.lkey);
  co_return Response{st, 0, 0};
}

sim::Task<Response> Backend::Session::on_ud_send(const CmdUdSend& cmd) {
  // §3.3.4: the datagram WQE carries its own destination; rename it like a
  // connection destination, then hand the WQE to the device.
  rnic::SendWr wr = cmd.wr;
  auto res = co_await backend_.mapping_cache().resolve_ex(vni(), wr.ud.gid);
  if (res.status == sdn::MappingCache::ResolveStatus::kUnavailable) {
    co_return Response{rnic::Status::kUnavailable, 0, 0};
  }
  if (!res.pgid) co_return Response{rnic::Status::kNotFound, 0, 0};
  wr.ud.gid = *res.pgid;
  co_return Response{backend_.device().post_send(cmd.qpn, wr), 0, 0};
}

}  // namespace masq
