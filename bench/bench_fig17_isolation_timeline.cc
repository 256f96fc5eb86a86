// Fig. 17: performance isolation and security timeline. Two tenant flows
// share the 40 Gbps link; at t=10 s flow A's tenant is rate-limited to
// 10 Gbps, at t=20 s to 5 Gbps, at t=30 s the limit is lifted, and at
// t=45 s a security rule banning the connection is installed — RConntrack
// tears the connection down and flow A drops to zero while flow B absorbs
// the spare bandwidth.
#include <cstdio>
#include <vector>

#include "apps/common.h"
#include "bench/bench_util.h"

namespace {

constexpr int kSeconds = 60;
constexpr std::uint32_t kMsg = 8 * 1024 * 1024;  // 8 MiB writes

struct Buckets {
  std::vector<double> gbits = std::vector<double>(kSeconds + 1, 0.0);
};

sim::Task<void> writer(fabric::Testbed* bed, std::size_t src, std::size_t dst,
                       std::uint16_t port, Buckets* out) {
  verbs::Context& ctx = bed->ctx(src);
  struct Srv {
    static sim::Task<void> run(fabric::Testbed* bed, std::size_t dst,
                               std::size_t src, std::uint16_t port) {
      auto ep = co_await apps::setup_endpoint(bed->ctx(dst),
                                              {.buf_len = kMsg});
      (void)co_await apps::connect_server(bed->ctx(dst), ep,
                                          bed->instance_vip(src), port);
    }
  };
  bed->loop().spawn(Srv::run(bed, dst, src, port));
  auto ep = co_await apps::setup_endpoint(ctx, {.buf_len = kMsg});
  if (co_await apps::connect_client(ctx, ep, bed->instance_vip(dst), port) !=
      rnic::Status::kOk) {
    co_return;
  }
  const sim::Time deadline = sim::seconds(kSeconds);
  while (ctx.loop().now() < deadline) {
    const auto st = co_await apps::write_and_wait(ctx, ep, 0, 0, kMsg);
    if (st != rnic::WcStatus::kSuccess) break;  // torn down by RConntrack
    const auto sec = static_cast<std::size_t>(ctx.loop().now() / sim::kSecond);
    if (sec <= kSeconds) {
      out->gbits[sec] += static_cast<double>(kMsg) * 8.0 / 1e9;
    }
  }
}

sim::Task<void> operator_events(fabric::Testbed* bed) {
  auto& backend = bed->masq_backend(0);
  co_await sim::delay(bed->loop(), sim::seconds(10));
  backend.set_tenant_rate_limit(100, 10.0);
  std::printf("  [t=10s] tenant A rate limit -> 10 Gbps\n");
  co_await sim::delay(bed->loop(), sim::seconds(10));
  backend.set_tenant_rate_limit(100, 5.0);
  std::printf("  [t=20s] tenant A rate limit -> 5 Gbps\n");
  co_await sim::delay(bed->loop(), sim::seconds(10));
  backend.set_tenant_rate_limit(100, 40.0);
  std::printf("  [t=30s] tenant A rate limit lifted\n");
  co_await sim::delay(bed->loop(), sim::seconds(15));
  // Security rule update: forbid tenant A's RDMA connection entirely.
  overlay::SecurityPolicy& pol = bed->policy(100);
  (void)co_await backend.conntrack().install_rule(
      pol, pol.firewall(overlay::Chain::kForward),
      overlay::Rule::deny(net::Ipv4Cidr::any(), net::Ipv4Cidr::any(),
                          overlay::Proto::kRdma, 1000));
  std::printf("  [t=45s] security rule installed: tenant A RDMA denied "
              "-> RConntrack resets the connection\n");
}

}  // namespace

int main() {
  bench::title("Fig. 17", "rate limiting + security teardown timeline "
                          "(tenants share one spine link)");

  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.cal.host_dram_bytes = 16ull << 30;
  cfg.cal.vm_mem_bytes = 1ull << 30;
  // Both tenants' flows run host 0 -> host 1 across a one-spine Clos
  // (DESIGN.md §17): the 40 Gbps contention point is now a *shared spine
  // link*, not a private wire — the isolation claims must survive real
  // fabric sharing. A full-rate spine reproduces the paper's direct-wire
  // numbers exactly (the max-min bottleneck just moves one hop in).
  cfg.topology = bench::cross_leaf_fabric(2, 1, 40.0);
  fabric::Testbed bed(loop, cfg);
  // Tenant A (vni 100): instances 0,1. Tenant B (vni 200): instances 2,3.
  (void)bed.add_instance(100);
  (void)bed.add_instance(100);
  (void)bed.add_instance(200);
  (void)bed.add_instance(200);

  Buckets a, b;
  loop.spawn(writer(&bed, 0, 1, 7200, &a));
  loop.spawn(writer(&bed, 2, 3, 7201, &b));
  loop.spawn(operator_events(&bed));
  loop.run();

  std::printf("\n%-10s | %10s %10s %10s\n", "time (s)", "flow A", "flow B",
              "aggregate");
  std::printf("%.48s\n", "------------------------------------------------");
  for (int s = 0; s < kSeconds; s += 3) {
    std::printf("%-10d | %10.1f %10.1f %10.1f\n", s, a.gbits[s], b.gbits[s],
                a.gbits[s] + b.gbits[s]);
  }
  bench::note("paper shape: ~18.9/18.9 unrestricted; A pinned at 10 then 5 "
              "while B absorbs the slack; A drops to 0 when the security "
              "rule lands; aggregate stays at link rate throughout");
  return 0;
}
