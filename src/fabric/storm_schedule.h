// Storm topology + pre-drawn schedule (DESIGN.md §12), shared by the storm
// engine (scale.cc) and the fabric traffic phase (traffic.cc).
//
// Everything here is a pure function of (config, seed): the same VM→host/
// tenant geometry, the same vGID arithmetic, and the same seeded random
// draws in the same order. Nothing consumes randomness once the loop
// starts.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/scale.h"
#include "net/addr.h"

namespace fabric::storm {

// ---- topology (pure functions of the config) ----
inline std::size_t total_vms(const ScaleConfig& cfg) {
  return cfg.hosts * cfg.vms_per_host;
}
inline std::size_t host_of(const ScaleConfig& cfg, std::size_t vm) {
  return vm / cfg.vms_per_host;
}
inline std::size_t tenant_of(const ScaleConfig& cfg, std::size_t vm) {
  return vm % cfg.tenants;
}
inline std::uint32_t vni_of(const ScaleConfig& cfg, std::size_t vm) {
  return 100 + static_cast<std::uint32_t>(tenant_of(cfg, vm));
}
// vGID value space: low 14 bits the VM id, upper bits the generation — an
// IP change mints a vGID never seen before.
inline net::Gid gid_of(std::size_t vm, std::uint32_t generation) {
  return net::Gid::from_ipv4(
      net::Ipv4Addr{static_cast<std::uint32_t>(vm) | (generation << 14)});
}
inline net::Gid pgid_of_host(std::size_t h) {
  return net::Gid::from_ipv4(
      net::Ipv4Addr{0x0A000000u + static_cast<std::uint32_t>(h) + 1});
}
// ---- the pre-drawn schedule ----
// Drawn up front from one seeded stream in one fixed order (wave
// connections, then IP changes, then rule resets); the vectors are in
// spawn order, which is also the engine's tie-break order for
// same-timestamp events.
// VM ids are 32-bit, as in gid_of.
struct StormSchedule {
  struct Conn {
    std::uint32_t src;
    std::uint32_t dst;
    sim::Time start;
  };
  struct IpChange {
    std::uint32_t vm;
    sim::Time when;
  };

  std::vector<Conn> wave_conns;
  std::vector<IpChange> ip_changes;
  std::vector<Conn> reset_conns;

  static StormSchedule draw(const ScaleConfig& cfg);
};

}  // namespace fabric::storm
