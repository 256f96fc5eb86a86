// The command protocol between MasQ's frontend driver (in the VM) and
// backend driver (on the host), carried over a virtio virtqueue (Fig. 2).
// Only control-path verbs appear here — data-path operations never cross
// this channel (§3.1), with the single documented exception of UD WQEs
// (§3.3.4), which are forwarded so that RConnrename can rewrite their
// per-WQE destination.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "mem/physical_memory.h"
#include "net/addr.h"
#include "rnic/types.h"
#include "sim/time.h"

namespace masq {

struct CmdRegMr {
  rnic::PdId pd = 0;
  mem::Addr gva = 0;  // guest VA; the frontend ships (GVA, GPA) mappings
  std::uint64_t len = 0;
  std::uint32_t access = 0;
};

struct CmdCreateCq {
  int cqe = 0;
};

struct CmdCreateQp {
  rnic::QpInitAttr attr;
};

struct CmdModifyQp {
  rnic::Qpn qpn = 0;
  rnic::QpAttr attr;  // dest_gid is *virtual* here; the backend renames it
  std::uint32_t mask = 0;
};

struct CmdDestroyQp {
  rnic::Qpn qpn = 0;
};

// ibv_query_qp: returns the *tenant's* view of the QPC — RConnrename keeps
// the virtual addresses the application configured, even though the
// hardware QPC holds physical ones ("two different views of the same QPC",
// §3.3.1).
struct CmdQueryQp {
  rnic::Qpn qpn = 0;
};

struct CmdDestroyCq {
  rnic::Cqn cq = 0;
};

struct CmdDeregMr {
  rnic::Key lkey = 0;
};

// §3.3.4: a UD datagram WQE forwarded through the control path so the
// backend can rename the destination before handing it to the device.
struct CmdUdSend {
  rnic::Qpn qpn = 0;
  rnic::SendWr wr;
};

// One control verb. Batches carry these, so batches cannot nest by
// construction.
using Command =
    std::variant<CmdRegMr, CmdCreateCq, CmdCreateQp, CmdModifyQp, CmdQueryQp,
                 CmdDestroyQp, CmdDestroyCq, CmdDeregMr, CmdUdSend>;

// In-batch result references: connection setup is a dependency chain
// (create_qp needs the CQ created two slots earlier; modify_qp needs the
// QP created one slot earlier), so a batch entry may declare that a field
// is filled from an *earlier* entry's response instead of carrying a
// concrete value. The backend resolves links while draining the batch —
// this is what lets reg_mr -> create_cq -> create_qp -> modify_qp ship as
// one descriptor batch instead of four dependent round trips.
struct BatchLink {
  int send_cq_from = -1;  // CmdCreateQp: attr.send_cq <- response[v0]
  int recv_cq_from = -1;  // CmdCreateQp: attr.recv_cq <- response[v0]
  int qpn_from = -1;      // CmdModifyQp/QueryQp/DestroyQp: qpn <- response[v0]

  bool any() const {
    return send_cq_from >= 0 || recv_cq_from >= 0 || qpn_from >= 0;
  }
};

// Commands submitted as one virtqueue transit (one kick, one interrupt);
// a verb submitted on its own is a batch of one. The backend drains it per
// wakeup: each entry runs the same RConntrack/RConnrename path whatever
// its batchmates, and one failed entry must not poison them — every entry
// gets its own Response.
struct CmdBatch {
  std::vector<Command> cmds;
  std::vector<BatchLink> links;  // parallel to cmds; may be shorter (no links)
};

struct Response {
  rnic::Status status = rnic::Status::kOk;
  std::uint64_t v0 = 0;  // pd / lkey / cqn / qpn, depending on the command
  std::uint64_t v1 = 0;
  rnic::QpAttr attr{};   // CmdQueryQp only
  // An envelope's response: one Response per batch entry, in submission
  // order, and status is kOk iff every entry succeeded (first error
  // otherwise). Empty when the envelope failed as a whole.
  std::vector<Response> batch{};
};

// What actually crosses the virtqueue: a batch plus a frontend-chosen
// command id (ids start at 1). Retried submissions reuse the id, so the
// backend can recognise an envelope it already executed (a retry racing
// the original, a duplicated descriptor) and replay the memoized response
// instead of executing twice.
struct Envelope {
  std::uint64_t cmd_id = 0;
  CmdBatch batch;
};

// Frontend retry policy for control verbs. Transient failures
// (rnic::is_retryable) and per-attempt timeouts are retried with
// exponential backoff and jitter until max_attempts or the per-verb
// deadline — whichever comes first — after which the verb fails with
// kDeadlineExceeded rather than hanging.
struct RetryPolicy {
  int max_attempts = 4;
  // Per-attempt response timeout (covers a dropped descriptor).
  sim::Time attempt_timeout = sim::milliseconds(5);
  sim::Time base_backoff = sim::microseconds(100);
  double backoff_multiplier = 2.0;
  // Backoff is scaled by 1 + U[0, jitter_frac).
  double jitter_frac = 0.5;
  // Hard wall-clock bound for one verb, all attempts included.
  sim::Time verb_deadline = sim::milliseconds(50);
};

}  // namespace masq
