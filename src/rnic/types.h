// Core RDMA object identifiers, work requests and completions — a compact,
// C++-flavoured mirror of the ibverbs data model the paper's Verbs operate
// on (Fig. 1 / Table 1).
#pragma once

#include <cstdint>
#include <string>

#include "mem/physical_memory.h"
#include "net/addr.h"

namespace rnic {

using Qpn = std::uint32_t;   // queue pair number (24 bits on the wire)
using Cqn = std::uint32_t;   // completion queue id
using Key = std::uint32_t;   // lkey / rkey
using PdId = std::uint32_t;  // protection domain id
using FnId = std::uint16_t;  // device function: 0 = PF, 1..N = VFs

inline constexpr FnId kPf = 0;

// QP states of Fig. 5.
enum class QpState : std::uint8_t {
  kReset,
  kInit,
  kRtr,   // ready to receive
  kRts,   // ready to send
  kSqd,   // send queue drain
  kSqe,   // send queue error
  kError,
};

const char* to_string(QpState s);

enum class QpType : std::uint8_t {
  kRc,  // reliable connection (the paper's main focus)
  kUd,  // unreliable datagram (§3.3.4)
};

enum class WrOpcode : std::uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaWriteImm,  // write + 4-byte immediate; consumes a recv WQE remotely
  kRdmaRead,
};

enum class WcStatus : std::uint8_t {
  kSuccess,
  kLocProtErr,        // local sge outside MR / wrong PD / bad lkey
  kLocQpOpErr,        // posted in an illegal QP state
  kWrFlushErr,        // flushed because the QP entered ERROR (Table 2)
  kRemAccessErr,      // responder rejected rkey/bounds/PD
  kRnrRetryExc,       // receiver had no recv WQE posted
  kTransportRetryExc, // no ack: peer unreachable or dropping (Table 2)
  kCqOverflow,        // synthetic: completion dropped, CQ full
};

const char* to_string(WcStatus s);

enum class WcOpcode : std::uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaRead,
  kRecv,
  kRecvRdmaWithImm,
};

// MR access flags (subset).
enum Access : std::uint32_t {
  kLocalWrite = 1u << 0,
  kRemoteWrite = 1u << 1,
  kRemoteRead = 1u << 2,
};

struct Sge {
  mem::Addr addr = 0;  // VA in the *application's* address space
  std::uint32_t length = 0;
  Key lkey = 0;
};

// Address handle for UD sends (§3.3.4): the destination travels with the
// WQE, which is exactly why MasQ must rename it per-WQE.
struct UdDest {
  net::Gid gid;
  Qpn qpn = 0;
  std::uint32_t qkey = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  WrOpcode opcode = WrOpcode::kSend;
  Sge sge;
  mem::Addr remote_addr = 0;  // write/read
  Key rkey = 0;               // write/read
  std::uint32_t imm = 0;      // kRdmaWriteImm payload
  bool signaled = true;
  UdDest ud{};  // UD only
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge;
};

struct Completion {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  WcOpcode opcode = WcOpcode::kSend;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;  // valid when opcode == kRecvRdmaWithImm
  Qpn qpn = 0;
};

struct QpCaps {
  std::uint32_t max_send_wr = 128;
  std::uint32_t max_recv_wr = 128;
  std::uint32_t max_send_sge = 1;
  std::uint32_t max_recv_sge = 1;
};

struct QpInitAttr {
  QpType type = QpType::kRc;
  PdId pd = 0;
  Cqn send_cq = 0;
  Cqn recv_cq = 0;
  QpCaps caps;
};

// Fields of the QP context settable through modify_qp. The dest_gid a
// tenant writes here is *virtual*; what the RNIC must end up seeing is
// *physical* — the gap RConnrename closes.
struct QpAttr {
  QpState state = QpState::kReset;
  net::Gid dest_gid{};
  Qpn dest_qpn = 0;
  std::uint32_t path_mtu = 1024;
  std::uint32_t rq_psn = 0;
  std::uint32_t sq_psn = 0;
  std::uint32_t qkey = 0;  // UD
};

enum QpAttrMask : std::uint32_t {
  kAttrState = 1u << 0,
  kAttrDestGid = 1u << 1,
  kAttrDestQpn = 1u << 2,
  kAttrPathMtu = 1u << 3,
  kAttrRqPsn = 1u << 4,
  kAttrSqPsn = 1u << 5,
  kAttrQkey = 1u << 6,
};

// Verb-level status. Control verbs either succeed or explain why not.
// [[nodiscard]] on the type: any call (including a co_await resume) whose
// result is a Status must consume it — a silently dropped status is a
// latent bug, so intentional drops are spelled `(void)` with a reason.
enum class [[nodiscard]] Status : std::uint8_t {
  kOk,
  kInvalidArgument,
  kNotFound,
  kPermissionDenied,  // security rule rejected the operation (RConntrack)
  kInvalidState,      // FSM transition not allowed (Fig. 5)
  kQueueFull,
  kResourceExhausted,
  kUnavailable,        // transient backend/controller failure: retryable
  kDeadlineExceeded,   // verb deadline expired before a definitive answer
};

// EAGAIN-class errors: a bounded retry with backoff may succeed.
inline bool is_retryable(Status s) { return s == Status::kUnavailable; }

const char* to_string(Status s);

// Verb result: a status plus a value that is only meaningful on kOk.
template <typename T>
struct [[nodiscard]] Expected {
  Status status = Status::kOk;
  T value{};

  bool ok() const { return status == Status::kOk; }
  static Expected error(Status s) { return Expected{s, T{}}; }
  static Expected of(T v) { return Expected{Status::kOk, std::move(v)}; }
};

}  // namespace rnic
