#include "masq/rconntrack.h"

#include <algorithm>

namespace masq {

void RConntrack::watch_tenant(std::uint32_t vni) {
  if (std::find(watched_.begin(), watched_.end(), vni) != watched_.end()) {
    return;
  }
  watched_.push_back(vni);
  vnet_.policy(vni).subscribe([this] {
    // Rule update: re-validate asynchronously (the update itself returns
    // immediately; teardown happens in the background, §4.3.2).
    loop_.spawn(revalidate_all());
  });
}

sim::Task<overlay::RuleId> RConntrack::install_rule(
    overlay::SecurityPolicy& policy, overlay::RuleChain& chain,
    overlay::Rule rule) {
  co_await sim::delay(loop_, costs_.insert_rule);
  const overlay::RuleId id = chain.add_rule(rule);
  policy.notify_changed();
  co_return id;
}

sim::Task<bool> RConntrack::validate(std::uint32_t vni, net::Ipv4Addr src,
                                     net::Ipv4Addr dst) {
  ++validations_;
  co_await sim::delay(loop_, costs_.valid_conn);
  co_return vnet_.policy(vni).connection_allowed(
      overlay::FlowTuple{src, dst, overlay::Proto::kRdma});
}

sim::Task<void> RConntrack::track(Entry entry) {
  co_await sim::delay(loop_, costs_.insert_conn);
  watch_tenant(entry.vni);
  table_.push_back(entry);
}

sim::Task<void> RConntrack::untrack(rnic::Qpn qpn, std::uint32_t vni) {
  co_await sim::delay(loop_, costs_.delete_conn);
  table_.erase(std::remove_if(table_.begin(), table_.end(),
                              [&](const Entry& e) {
                                return e.qpn == qpn && e.vni == vni;
                              }),
               table_.end());
}

sim::Task<void> RConntrack::purge_qp(rnic::Qpn qpn) {
  if (!has_qp(qpn)) co_return;
  co_await sim::delay(loop_, costs_.delete_conn);
  table_.erase(std::remove_if(table_.begin(), table_.end(),
                              [&](const Entry& e) { return e.qpn == qpn; }),
               table_.end());
  ++purges_;
}

bool RConntrack::has_qp(rnic::Qpn qpn) const {
  return std::any_of(table_.begin(), table_.end(),
                     [&](const Entry& e) { return e.qpn == qpn; });
}

const RConntrack::Entry* RConntrack::lookup(rnic::Qpn qpn,
                                            std::uint32_t vni) const {
  for (const Entry& e : table_) {
    if (e.qpn == qpn && e.vni == vni) return &e;
  }
  return nullptr;
}

sim::Task<void> RConntrack::revalidate_all() {
  // Collect violators first: resetting mutates device state, not table_.
  std::vector<Entry> violating;
  for (const Entry& e : table_) {
    const bool ok = vnet_.policy(e.vni).connection_allowed(
        overlay::FlowTuple{e.src_vip, e.dst_vip, overlay::Proto::kRdma});
    if (!ok) violating.push_back(e);
  }
  for (const Entry& e : violating) {
    rnic::QpAttr attr;
    attr.state = rnic::QpState::kError;
    // reset_conn (Table 4 / Fig. 18): kernel routine + RNIC processing.
    co_await e.driver->modify_qp(e.qpn, attr, rnic::kAttrState);
    ++resets_;
    table_.erase(std::remove_if(table_.begin(), table_.end(),
                                [&](const Entry& x) {
                                  return x.qpn == e.qpn && x.vni == e.vni;
                                }),
                 table_.end());
  }
}

}  // namespace masq
