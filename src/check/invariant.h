// Runtime invariant auditing (masq-check).
//
// The simulator's correctness argument rests on whole-system invariants no
// single unit test sees: physical-only GIDs in every QPC past RTR, legal
// Fig. 5 QP transitions, balanced virtqueue ring accounting across fault
// injections, host caches coherent with controller truth, and an
// RConntrack table that tracks exactly the live admitted connections. The
// InvariantRegistry turns those into machine-checked audits: components
// register auditors (src/check/auditors.h), and the registry runs them at
// configurable audit points — periodically from the event loop's audit
// hook, at quiescence, or explicitly from tests.
//
// Cost model: auditing is opt-in. With no registry attached the event loop
// pays one branch per event; a disabled run is bit-identical to a run
// before this subsystem existed. `MASQ_CHECK=1` in the environment turns
// auditing on for every fabric::Testbed, which is how ctest and the CI
// chaos job double as model-checking runs.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/time.h"

namespace check {

// Master switch: true if MASQ_CHECK is set to anything but "" or "0".
bool env_enabled();

// One failed invariant check.
struct Violation {
  std::string invariant;   // auditor name, e.g. "qp-state"
  std::string point;       // audit point, e.g. "periodic", "quiesce"
  sim::Time at = 0;        // simulated time of the audit
  std::string diagnostic;  // precise, actionable description
};

// Thrown on violation under ViolationPolicy::kThrow; propagates out of
// EventLoop::run() so the owning test fails with the diagnostic.
class InvariantViolationError : public std::runtime_error {
 public:
  explicit InvariantViolationError(const Violation& v);
};

enum class ViolationPolicy : std::uint8_t {
  kThrow,   // record, log, then throw InvariantViolationError (default)
  kRecord,  // record and log only; callers inspect violations()
};

class InvariantRegistry {
 public:
  // Handed to each auditor; fail() reports a violation attributed to the
  // auditor at the current audit point.
  class Reporter {
   public:
    void fail(std::string diagnostic) {
      registry_.report_violation(std::string(invariant_), point_,
                                 std::move(diagnostic));
    }
    std::string_view point() const { return point_; }

   private:
    friend class InvariantRegistry;
    Reporter(InvariantRegistry& registry, std::string_view invariant,
             std::string_view point)
        : registry_(registry), invariant_(invariant), point_(point) {}
    InvariantRegistry& registry_;
    std::string_view invariant_;
    std::string_view point_;
  };

  using AuditFn = std::function<void(Reporter&)>;

  explicit InvariantRegistry(sim::EventLoop& loop);
  ~InvariantRegistry();
  InvariantRegistry(const InvariantRegistry&) = delete;
  InvariantRegistry& operator=(const InvariantRegistry&) = delete;

  void add_auditor(std::string name, AuditFn fn);
  // Drops the auditor(s) registered under exactly this name. Needed when an
  // audited component dies before the registry (e.g. an instance's
  // virtqueue torn down by live migration).
  void remove_auditor(std::string_view name) {
    std::erase_if(auditors_,
                  [name](const auto& a) { return a.first == name; });
  }

  // Runs every auditor once, tagged with `point`.
  void audit(std::string_view point);

  // Arms the loop's audit hook: audit("periodic") every n executed events.
  // The registry must outlive the attachment (detach() or destruction
  // clears the hook).
  void attach(std::uint64_t every_n_events);
  void detach();

  // Direct reporting path for checks that do not run as registered
  // auditors (e.g. the determinism run-twice harness).
  void report_violation(std::string invariant, std::string_view point,
                        std::string diagnostic);

  void set_policy(ViolationPolicy p) { policy_ = p; }
  ViolationPolicy policy() const { return policy_; }

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t audits_run() const { return audits_; }
  // Individual auditor invocations (audits x registered auditors).
  std::uint64_t checks_run() const { return checks_; }

  // Human-readable violation list, one line each; empty string when clean.
  std::string report() const;

  sim::EventLoop& loop() { return loop_; }

 private:
  sim::EventLoop& loop_;
  std::vector<std::pair<std::string, AuditFn>> auditors_;
  std::vector<Violation> violations_;
  ViolationPolicy policy_ = ViolationPolicy::kThrow;
  std::uint64_t audits_ = 0;
  std::uint64_t checks_ = 0;
  bool attached_ = false;
};

}  // namespace check
