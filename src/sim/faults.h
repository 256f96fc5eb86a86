// Fault-injection plane: a seeded, schedule-driven chaos harness for the
// deterministic event loop.
//
// Components with fault sites (the virtqueue, the backend command
// dispatcher, the SDN mapping cache) consult a FaultPlane through small
// pull-style hooks; window faults (controller outages) and explicit
// injections (force a QP into ERROR at time T) are pushed onto the loop by
// arm()/inject_*. Every decision derives from one seeded Rng consumed in
// event-loop order, so a (seed, FaultConfig) pair replays bit-for-bit:
// re-running a failed chaos seed reproduces the identical fault sequence.
// Each fired fault is appended to a replay log that the chaos harness
// prints (and CI uploads) on failure.
//
// A default-constructed FaultConfig injects nothing, and components treat
// a null FaultPlane* as "faults off" — the plane costs nothing unless a
// test, bench knob file, or CI job turns it on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace sim {

enum class FaultSite : std::uint8_t {
  kVqTransit,   // a virtqueue descriptor in guest->host transit
  kCmdExec,     // a backend command (or batch entry) execution
  kCacheEntry,  // a mapping-cache entry about to be served
  kSdnControl,  // controller reachability window
  kQpError,     // explicit QP ERROR injection
};

enum class FaultAction : std::uint8_t {
  kNone,
  kDrop,       // descriptor lost: no response ever arrives
  kDelay,      // descriptor delivered late
  kDuplicate,  // descriptor delivered twice
  kFail,       // command fails with a transient (retryable) error
  kExpire,     // cache entry evicted just before being served
  kOutageBegin,
  kOutageEnd,
  kForceError,  // QP forced into ERROR
};

const char* to_string(FaultSite s);
const char* to_string(FaultAction a);

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  Time delay = 0;  // kDelay only

  bool none() const { return action == FaultAction::kNone; }
};

// One fired fault, as persisted in the replay log.
struct FaultRecord {
  Time at = 0;
  FaultSite site = FaultSite::kVqTransit;
  FaultAction action = FaultAction::kNone;
  std::uint64_t detail = 0;  // site-specific: command id, QPN, key hash
  Time delay = 0;
};

// [begin, end) in simulated time during which the SDN controller is
// unreachable from the hosts.
struct OutageWindow {
  Time begin = 0;
  Time end = 0;
};

struct FaultConfig {
  // Virtqueue descriptor faults (per transit).
  double vq_drop_p = 0.0;
  double vq_dup_p = 0.0;
  double vq_delay_p = 0.0;
  Time vq_delay_min = microseconds(10);
  Time vq_delay_max = microseconds(200);
  // Transient per-command failure (surfaces as rnic::Status::kUnavailable).
  double cmd_fail_p = 0.0;
  // Mapping-cache entry evicted right before it would have been served.
  double cache_expire_p = 0.0;
  // Controller unreachable during these windows.
  std::vector<OutageWindow> sdn_outages;

  bool any() const {
    return vq_drop_p > 0 || vq_dup_p > 0 || vq_delay_p > 0 ||
           cmd_fail_p > 0 || cache_expire_p > 0 || !sdn_outages.empty();
  }

  // Parses "key = value" knob lines ('#' starts a comment). Keys:
  //   vq_drop_p, vq_dup_p, vq_delay_p, cmd_fail_p, cache_expire_p
  //   vq_delay_min_us, vq_delay_max_us
  //   sdn_outage_ms = <begin>:<end>        (repeatable)
  // Returns false and fills *err on the first malformed line.
  static bool parse(std::string_view text, FaultConfig* out,
                    std::string* err);
};

class FaultPlane {
 public:
  FaultPlane(EventLoop& loop, FaultConfig config, std::uint64_t seed);
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // Schedules the window faults. `sdn_down(true/false)` fires at each
  // outage edge (typically wired to Controller::set_reachable). Call once,
  // before the loop runs past the first window edge.
  void arm(std::function<void(bool)> sdn_down);

  // --- pull-style decision points --------------------------------------
  // Virtqueue guest->host transit: drop / delay / duplicate.
  FaultDecision on_vq_transit(std::uint64_t cmd_id);
  // Backend command execution: true = fail with a transient error.
  bool fail_command(std::uint64_t detail);
  // Deterministic switch: while set, every command fails transiently. No
  // rng draw is consumed, so toggling it mid-run leaves the probabilistic
  // streams bit-identical — regression tests use it to target one verb.
  void set_force_cmd_failures(bool on) { force_cmd_failures_ = on; }
  // Mapping cache: true = evict this entry instead of serving it.
  bool expire_cache_entry(std::uint64_t key_hash);

  // --- explicit injections ---------------------------------------------
  // Schedules `fire` at absolute time t and logs it as a forced QP ERROR.
  void inject_qp_error_at(Time t, std::uint64_t qpn,
                          std::function<void()> fire);

  std::uint64_t seed() const { return seed_; }
  const FaultConfig& config() const { return cfg_; }
  const std::vector<FaultRecord>& log() const { return log_; }
  std::uint64_t faults_fired() const { return log_.size(); }
  // Replay log, one record per line — stable across identical runs.
  std::string dump_log() const;

 private:
  void record(FaultSite site, FaultAction action, std::uint64_t detail,
              Time delay = 0);

  EventLoop& loop_;
  FaultConfig cfg_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<FaultRecord> log_;
  bool armed_ = false;
  bool force_cmd_failures_ = false;
};

}  // namespace sim
