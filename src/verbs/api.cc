#include "verbs/api.h"

namespace verbs {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kVerbsLib: return "Verbs Lib";
    case Layer::kVirtio: return "virtio";
    case Layer::kMasqDriver: return "MasQ Driver";
    case Layer::kRdmaDriver: return "RDMA Driver";
  }
  return "?";
}

void LayerProfile::add(const std::string& verb, Layer layer, sim::Time t) {
  data_[verb][static_cast<int>(layer)] += t;
}

sim::Time LayerProfile::total(const std::string& verb) const {
  auto it = data_.find(verb);
  if (it == data_.end()) return 0;
  sim::Time sum = 0;
  for (auto t : it->second) sum += t;
  return sum;
}

sim::Time LayerProfile::by_layer(const std::string& verb, Layer layer) const {
  auto it = data_.find(verb);
  if (it == data_.end()) return 0;
  return it->second[static_cast<int>(layer)];
}

sim::Time LayerProfile::grand_total() const {
  sim::Time sum = 0;
  for (const auto& [verb, layers] : data_) {
    for (auto t : layers) sum += t;
  }
  return sum;
}

std::vector<std::string> LayerProfile::verbs() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [verb, layers] : data_) out.push_back(verb);
  return out;
}

const char* modify_qp_verb(const rnic::QpAttr& attr, std::uint32_t mask) {
  if ((mask & rnic::kAttrState) == 0) return "modify_qp";
  switch (attr.state) {
    case rnic::QpState::kInit: return "modify_qp(INIT)";
    case rnic::QpState::kRtr: return "modify_qp(RTR)";
    case rnic::QpState::kRts: return "modify_qp(RTS)";
    case rnic::QpState::kError: return "modify_qp(ERROR)";
    default: return "modify_qp";
  }
}

namespace {

// Default ControlBatch: replays the queued entries one by one through the
// plain virtual verbs at commit() time. Semantics intentionally mirror the
// backend's batch drain (masq/backend.cc): in order, error-independent, an
// entry whose dependency failed inherits its status without executing.
class SequentialBatch final : public ControlBatch {
 public:
  explicit SequentialBatch(Context& ctx) : ctx_(ctx) {}

  int reg_mr(rnic::PdId pd, mem::Addr addr, std::uint64_t len,
             std::uint32_t access) override {
    Op op;
    op.kind = Op::kRegMr;
    op.pd = pd;
    op.addr = addr;
    op.len = len;
    op.access = access;
    return push(op);
  }

  int create_cq(int cqe) override {
    Op op;
    op.kind = Op::kCreateCq;
    op.cqe = cqe;
    return push(op);
  }

  int create_qp(const rnic::QpInitAttr& attr, int send_cq_slot,
                int recv_cq_slot) override {
    Op op;
    op.kind = Op::kCreateQp;
    op.init = attr;
    op.send_cq_slot = send_cq_slot;
    op.recv_cq_slot = recv_cq_slot;
    return push(op);
  }

  int modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                std::uint32_t mask) override {
    Op op;
    op.kind = Op::kModifyQp;
    op.qpn = qpn;
    op.attr = attr;
    op.mask = mask;
    return push(op);
  }

  int modify_qp_slot(int qp_slot, const rnic::QpAttr& attr,
                     std::uint32_t mask) override {
    Op op;
    op.kind = Op::kModifyQp;
    op.qp_slot = qp_slot;
    op.attr = attr;
    op.mask = mask;
    return push(op);
  }

  sim::Task<rnic::Status> commit() override {
    rnic::Status first = rnic::Status::kOk;
    for (std::size_t i = committed_; i < ops_.size(); ++i) {
      results_[i].status = co_await run_one(i);
      if (first == rnic::Status::kOk &&
          results_[i].status != rnic::Status::kOk) {
        first = results_[i].status;
      }
    }
    committed_ = ops_.size();
    co_return first;
  }

  rnic::Status status(int slot) const override {
    return results_.at(slot).status;
  }
  std::uint64_t value(int slot) const override {
    return results_.at(slot).value;
  }
  MrHandle mr(int slot) const override { return results_.at(slot).mr; }
  int size() const override { return static_cast<int>(ops_.size()); }

 private:
  struct Op {
    enum Kind { kRegMr, kCreateCq, kCreateQp, kModifyQp } kind = kRegMr;
    rnic::PdId pd = 0;
    mem::Addr addr = 0;
    std::uint64_t len = 0;
    std::uint32_t access = 0;
    int cqe = 0;
    rnic::QpInitAttr init;
    int send_cq_slot = -1;
    int recv_cq_slot = -1;
    rnic::Qpn qpn = 0;
    int qp_slot = -1;
    rnic::QpAttr attr;
    std::uint32_t mask = 0;
  };
  struct Result {
    rnic::Status status = rnic::Status::kOk;
    std::uint64_t value = 0;
    MrHandle mr;
  };

  int push(const Op& op) {
    ops_.push_back(op);
    results_.emplace_back();
    return static_cast<int>(ops_.size()) - 1;
  }

  // Reads an earlier slot's value. An invalid slot (forward / out of
  // range) fails kInvalidArgument; a failed entry passes its status on.
  rnic::Status fetch(int slot, std::size_t self, std::uint64_t* out) const {
    if (slot < 0 || static_cast<std::size_t>(slot) >= self) {
      return rnic::Status::kInvalidArgument;
    }
    if (results_[slot].status != rnic::Status::kOk) {
      return results_[slot].status;
    }
    *out = results_[slot].value;
    return rnic::Status::kOk;
  }

  sim::Task<rnic::Status> run_one(std::size_t self) {
    Op& op = ops_[self];
    Result& res = results_[self];
    switch (op.kind) {
      case Op::kRegMr: {
        auto r = co_await ctx_.reg_mr(op.pd, op.addr, op.len, op.access);
        if (r.ok()) res.mr = r.value;
        co_return r.status;
      }
      case Op::kCreateCq: {
        auto r = co_await ctx_.create_cq(op.cqe);
        if (r.ok()) res.value = r.value;
        co_return r.status;
      }
      case Op::kCreateQp: {
        std::uint64_t v = 0;
        if (op.send_cq_slot >= 0) {
          if (auto st = fetch(op.send_cq_slot, self, &v);
              st != rnic::Status::kOk) {
            co_return st;
          }
          op.init.send_cq = static_cast<rnic::Cqn>(v);
        }
        if (op.recv_cq_slot >= 0) {
          if (auto st = fetch(op.recv_cq_slot, self, &v);
              st != rnic::Status::kOk) {
            co_return st;
          }
          op.init.recv_cq = static_cast<rnic::Cqn>(v);
        }
        auto r = co_await ctx_.create_qp(op.init);
        if (r.ok()) res.value = r.value;
        co_return r.status;
      }
      case Op::kModifyQp: {
        rnic::Qpn qpn = op.qpn;
        if (op.qp_slot >= 0) {
          std::uint64_t v = 0;
          if (auto st = fetch(op.qp_slot, self, &v);
              st != rnic::Status::kOk) {
            co_return st;
          }
          qpn = static_cast<rnic::Qpn>(v);
        }
        const rnic::Status st = co_await ctx_.modify_qp(qpn, op.attr, op.mask);
        // Mirror MasqBatch: failed entries carry no result value.
        if (st == rnic::Status::kOk) res.value = qpn;
        co_return st;
      }
    }
    co_return rnic::Status::kInvalidArgument;
  }

  Context& ctx_;
  std::vector<Op> ops_;
  std::vector<Result> results_;
  std::size_t committed_ = 0;
};

}  // namespace

std::unique_ptr<ControlBatch> Context::make_batch() {
  return std::make_unique<SequentialBatch>(*this);
}

// Warm-path defaults: a context without a pool always answers cold, and
// release/discard/invalidate are no-ops on endpoints it never handed out —
// callers fall through to the ordinary ladder on every candidate.
sim::Task<WarmEndpoint> Context::acquire_warm(const net::Gid& peer_gid) {
  (void)peer_gid;
  co_return WarmEndpoint{};
}

sim::Task<void> Context::release_warm(const WarmEndpoint& ep,
                                      const net::Gid& peer_gid,
                                      rnic::Qpn peer_qpn) {
  (void)ep;
  (void)peer_gid;
  (void)peer_qpn;
  co_return;
}

sim::Task<void> Context::discard_warm(const WarmEndpoint& ep) {
  (void)ep;
  co_return;
}

void Context::invalidate_warm(const net::Gid& peer_gid) { (void)peer_gid; }

sim::Time Context::data_verb_call_time(DataVerb v) const {
  switch (v) {
    case DataVerb::kPostSend:
    case DataVerb::kPostRecv:
      return sim::nanoseconds(200);
    case DataVerb::kPollCq:
      return sim::nanoseconds(30);
  }
  return 0;
}

sim::Task<void> Context::lib_charge(const char* verb, sim::Time t) {
  profile_.add(verb, Layer::kVerbsLib, t);
  co_await sim::delay(loop(), t);
}

sim::Task<rnic::Completion> Context::wait_completion(rnic::Cqn cq) {
  while (true) {
    rnic::Completion c;
    if (poll_cq(cq, 1, &c) == 1) co_return c;
    co_await cq_nonempty(cq);
  }
}

sim::Task<std::vector<rnic::Completion>> Context::wait_completions(
    rnic::Cqn cq, int n) {
  std::vector<rnic::Completion> out;
  out.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(out.size()) < n) {
    rnic::Completion c = co_await wait_completion(cq);
    out.push_back(c);
  }
  co_return out;
}

sim::Task<void> Context::compute(sim::Time host_time) {
  co_await sim::delay(loop(), scale_compute(host_time));
}

}  // namespace verbs
