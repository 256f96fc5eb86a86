#include "fabric/storm_schedule.h"

#include "sim/rng.h"

namespace fabric::storm {

StormSchedule StormSchedule::draw(const ScaleConfig& cfg) {
  StormSchedule s;
  sim::Rng rng(cfg.seed);
  const std::size_t vms = total_vms(cfg);
  const sim::Time horizon =
      static_cast<sim::Time>(cfg.waves) * cfg.wave_gap + cfg.spread;
  // Peers are same-tenant by construction: tenant t owns VMs
  // {t, t + T, t + 2T, ...}. Draw until the peer isn't the VM itself
  // (a tenant with one VM connects to itself; fine for the cache).
  const std::size_t tenant_pop = vms / cfg.tenants;
  auto same_tenant_peer = [&](std::size_t vm, std::size_t tenant) {
    std::size_t peer = vm;
    if (tenant_pop > 1) {
      do {
        peer = tenant + cfg.tenants * rng.next_below(tenant_pop);
      } while (peer == vm);
    }
    return static_cast<std::uint32_t>(peer);
  };
  // Draw order is load-bearing: per connection the jitter comes FIRST,
  // then the peer draws — changing it changes every downstream event time
  // for a given seed.
  s.wave_conns.reserve(cfg.waves * vms * cfg.conns_per_vm);
  for (std::size_t w = 0; w < cfg.waves; ++w) {
    const sim::Time wave_start = static_cast<sim::Time>(w) * cfg.wave_gap;
    std::size_t tenant = 0;  // tenant_of(cfg, vm)
    for (std::size_t vm = 0; vm < vms; ++vm) {
      for (std::size_t c = 0; c < cfg.conns_per_vm; ++c) {
        const sim::Time start =
            wave_start + static_cast<sim::Time>(rng.next_below(
                             static_cast<std::uint64_t>(cfg.spread) + 1));
        s.wave_conns.push_back(Conn{static_cast<std::uint32_t>(vm),
                                    same_tenant_peer(vm, tenant), start});
      }
      if (++tenant == cfg.tenants) tenant = 0;
    }
  }
  s.ip_changes.reserve(cfg.ip_changes);
  for (std::size_t i = 0; i < cfg.ip_changes; ++i) {
    const std::size_t vm = rng.next_below(vms);
    const sim::Time when = static_cast<sim::Time>(
        rng.next_below(static_cast<std::uint64_t>(horizon)));
    s.ip_changes.push_back(IpChange{static_cast<std::uint32_t>(vm), when});
  }
  // A security-rule reset makes every VM of one tenant re-validate a peer
  // connection: a surge of resolves against warm caches.
  s.reset_conns.reserve(cfg.rule_resets * (tenant_pop + 1));
  for (std::size_t i = 0; i < cfg.rule_resets; ++i) {
    const std::size_t tenant = rng.next_below(cfg.tenants);
    const sim::Time when = static_cast<sim::Time>(
        rng.next_below(static_cast<std::uint64_t>(horizon)));
    for (std::size_t vm = tenant; vm < vms; vm += cfg.tenants) {
      s.reset_conns.push_back(Conn{static_cast<std::uint32_t>(vm),
                                   same_tenant_peer(vm, tenant), when});
    }
  }
  return s;
}

}  // namespace fabric::storm
