// RConntrack — RDMA connection tracking (§3.3.2, Fig. 6).
//
// Enforces the tenant's security rules on RDMA connections in three parts:
//  1. a connection cannot be established unless explicitly allowed:
//     validate() is consulted by the backend on modify_qp(RTR);
//  2. packets of established connections need no per-packet checks — the
//     RNIC only carries connections this module admitted;
//  3. when rules change, established connections that are no longer
//     allowed are torn down by forcing their QP into the ERROR state
//     (Table 2 semantics), which the RNIC honours by flushing WQEs and
//     dropping packets.
//
// Operation costs follow Table 4: valid_conn 2.5 us, insert_conn 1.5 us,
// delete_conn 1.5 us; reset_conn is dominated by the kernel routine + RNIC
// processing charged through KernelDriver::modify_qp(ERROR) (Fig. 18).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/addr.h"
#include "overlay/oob.h"
#include "overlay/security.h"
#include "rnic/types.h"
#include "sim/event_loop.h"
#include "sim/task.h"
#include "verbs/kernel_driver.h"

namespace masq {

struct RConntrackCosts {
  sim::Time insert_rule = sim::microseconds(1.5);  // Table 4
  sim::Time valid_conn = sim::microseconds(2.5);   // Table 4
  sim::Time insert_conn = sim::microseconds(1.5);  // Table 4
  sim::Time delete_conn = sim::microseconds(1.5);  // Table 4
};

class RConntrack {
 public:
  // The RCT_Table record of Fig. 3: (vni, src_vip, dst_vip, qpn), plus the
  // driver handle needed to reset the QP.
  struct Entry {
    std::uint32_t vni = 0;
    net::Ipv4Addr src_vip;
    net::Ipv4Addr dst_vip;
    rnic::Qpn qpn = 0;
    verbs::KernelDriver* driver = nullptr;
  };

  RConntrack(sim::EventLoop& loop, overlay::VirtualNetwork& vnet,
             RConntrackCosts costs = {})
      : loop_(loop), vnet_(vnet), costs_(costs) {}

  // Subscribes to a tenant's policy so rule updates trigger re-validation
  // of established connections (done automatically on first use of a VNI).
  void watch_tenant(std::uint32_t vni);

  // Security-rule management entry point (update_rules in Table 4):
  // charges insert_rule, installs the rule and notifies the policy so
  // established connections get re-validated.
  sim::Task<overlay::RuleId> install_rule(overlay::SecurityPolicy& policy,
                                          overlay::RuleChain& chain,
                                          overlay::Rule rule);

  // Connection-establishment check (Fig. 6 step 1). Charges valid_conn.
  sim::Task<bool> validate(std::uint32_t vni, net::Ipv4Addr src,
                           net::Ipv4Addr dst);

  // Records an established connection. Charges insert_conn.
  sim::Task<void> track(Entry entry);

  // Removes a connection (destroy_qp path). Charges delete_conn.
  sim::Task<void> untrack(rnic::Qpn qpn, std::uint32_t vni);

  // Invariant repair for a QP that entered ERROR outside RConntrack's own
  // teardown (data-path fault, injected error): by Table 2 it carries no
  // connection any more, so every entry referencing it is dropped. QPNs
  // are device-global, so no VNI is needed. Idempotent with
  // revalidate_all's own erase. Charges delete_conn when entries existed.
  sim::Task<void> purge_qp(rnic::Qpn qpn);

  // §5: modern datacenters diagnose with packet headers; MasQ frames carry
  // only underlay addresses, so the mapping (underlay, QPN) -> tenant flow
  // must come from this table. Returns nullptr if untracked.
  const Entry* lookup(rnic::Qpn qpn, std::uint32_t vni) const;

  std::size_t table_size() const { return table_.size(); }
  std::uint64_t resets_performed() const { return resets_; }
  std::uint64_t validations() const { return validations_; }
  std::uint64_t qp_error_purges() const { return purges_; }
  // True if any entry (any VNI) references this QPN — the chaos sweep
  // asserts this is false for every QP in ERROR.
  bool has_qp(rnic::Qpn qpn) const;

  // Invariant auditing (src/check): walks the table in insertion order
  // (the table is a plain vector, so this is already deterministic).
  void for_each_entry(const std::function<void(const Entry&)>& fn) const {
    for (const Entry& e : table_) fn(e);
  }

  // Test-only corruption hook: plants a row directly, without the
  // validate/track path or its cost charge — used to prove the
  // RConntrack<->QP consistency auditor trips on an orphaned row.
  void corrupt_insert_for_test(Entry entry) {
    table_.push_back(std::move(entry));
  }

  // --- Live migration (DESIGN.md §15) -----------------------------------
  // Synchronous and uncharged: the Migrator's atomic section moves rows
  // wholesale and bills the time as migration downtime, not per-row
  // conntrack operations. extract_qp removes and returns every row for
  // the QP; adopt re-inserts one (typically with `driver` re-pointed at
  // the destination host's driver). The (vni, vip, qpn) tuple is
  // unchanged — that is the point of transparent migration.
  std::vector<Entry> extract_qp(rnic::Qpn qpn) {
    std::vector<Entry> out;
    std::erase_if(table_, [&](const Entry& e) {
      if (e.qpn != qpn) return false;
      out.push_back(e);
      return true;
    });
    return out;
  }
  void adopt(Entry entry) { table_.push_back(std::move(entry)); }

 private:
  // Rescans the table after a rule change; resets now-forbidden
  // connections (Fig. 6 step 2 / §4.3.2).
  sim::Task<void> revalidate_all();

  sim::EventLoop& loop_;
  overlay::VirtualNetwork& vnet_;
  RConntrackCosts costs_;
  std::vector<Entry> table_;
  std::vector<std::uint32_t> watched_;
  std::uint64_t resets_ = 0;
  std::uint64_t validations_ = 0;
  std::uint64_t purges_ = 0;
};

}  // namespace masq
