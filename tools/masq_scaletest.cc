// masq_scaletest — deterministic connection-storm driver for the sharded
// SDN control plane (DESIGN.md §12).
//
//   masq_scaletest [options]
//     --tenants <n>       tenants                       (default: 10)
//     --hosts <n>         hosts                         (default: 16)
//     --vms <n>           VMs per host                  (default: 625)
//     --conns <n>         connections per VM per wave   (default: 2)
//     --waves <n>         storm waves                   (default: 3)
//     --shards <n>        controller shards             (default: 8)
//     --rtt <us>          controller RTT                (default: 100)
//     --service <us>      per-key shard service budget  (default: 1)
//     --window <us>       host cache miss-lane window   (default: 5)
//     --ip-changes <n>    vBond IP churn events         (default: 200)
//     --rule-resets <n>   security-rule reset storms    (default: 3)
//     --down-shard <i>    mark shard i unreachable ...
//     --down-from <ms>      ... from this time ...      (default: 60)
//     --down-until <ms>     ... until this time         (default: 110)
//     --seed <n>          workload seed                 (default: 1)
//     --trace             mix every event into the FNV-1a trace hash
//     -o, --out <file>    report path (default: BENCH_scale.json)
//     --smoke             small CI preset (4 hosts x 25 VMs)
//     --churn             churn-storm preset: enables the warm path
//                         (DESIGN.md §14) and rescales churn to ~2 vBond
//                         IP changes per VM packed into sub-second VM
//                         lifetimes (6 waves, 10 ms apart). Applied after
//                         all other flags, so it composes with --smoke;
//                         the report gains a "warm" JSON block.
//
//   Fabric traffic phase (DESIGN.md §17) — replays a slice of the storm
//   schedule as data flows over a leaf-spine Clos fabric with ECMP +
//   multi-hop DCQCN; the report gains a "topology" JSON block:
//     --topology <mode>   direct (one leaf: NIC links only) | leafspine
//                         (8 leaves unless --leaves chose more); enables
//                         the phase
//     --leaves <n> --spines <n>          fabric shape  (presets: 8 / 2)
//     --host-gbps <g> --spine-gbps <g>   link rates    (default: 25 / 40)
//     --pattern <p>       pairs | incast                (default: pairs)
//     --flows <n>         schedule conns replayed       (default: 256)
//     --fanin <n>         incast fan-in width           (default: 32)
//     --flow-kb <n>       flow size                     (default: 64)
//     --elephant-every <n>  every Nth flow is an elephant (0 = off)
//     --elephant-kb <n>   elephant size                 (default: 4096)
//     --tenant-gbps <g>   per-tenant rate limiter       (0 = off)
//     --placement         leaf-affine (tenant-packed) host placement
//     --no-dcqcn          ideal max-min only, no congestion control
//     --fail-spine <i> --fail-from <ms> --fail-until <ms>  spine outage
//     --incast            128-host incast fan-in preset
//     --mice              128-host elephant/mice preset
//     --overspine         128-host oversubscribed-spine preset
//                         (presets apply in place, like --smoke: flags
//                         given after a preset override its fields)
//     Zero leaves or spines, an unknown pattern, or a --fail-spine past the
//     spine count is refused with the usage text and exit status 2. So is
//     a --host-gbps or --spine-gbps that is not a finite number above 0, a
//     --tenant-gbps that is not a finite number at or above 0, and a
//     --flow-kb or --elephant-kb of 0.
//     -h, --help
//
// The default configuration is the 10k-VM storm (16 hosts x 625 VMs):
// every (config, seed) pair produces one event stream and one report —
// two runs emit byte-identical BENCH_scale.json.
//
// The emitted JSON carries a trailing "perf" object (sim_events,
// trace_hash, wall_ms, events_per_sec, peak_rss_kb). Every field sits on
// its own line: the first two are deterministic, the rest are
// wall-clock/host facts — determinism diffs strip them with
//   grep -vE '"(wall_ms|events_per_sec|peak_rss_kb)":'
// as the CI perf-smoke job does.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "fabric/scale.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--tenants n] [--hosts n] [--vms n] [--conns n] [--waves n]\n"
      "          [--shards n] [--rtt us] [--service us] [--window us]\n"
      "          [--ip-changes n] [--rule-resets n]\n"
      "          [--down-shard i] [--down-from ms] [--down-until ms]\n"
      "          [--seed n] [--trace] [-o file] [--smoke]\n"
      "          [--churn]\n"
      "          [--topology direct|leafspine] [--leaves n] [--spines n]\n"
      "          [--host-gbps g] [--spine-gbps g] [--pattern pairs|incast]\n"
      "          [--flows n] [--fanin n] [--flow-kb n] [--elephant-every n]\n"
      "          [--elephant-kb n] [--tenant-gbps g] [--placement]\n"
      "          [--no-dcqcn] [--fail-spine i] [--fail-from ms]\n"
      "          [--fail-until ms] [--incast] [--mice] [--overspine]\n",
      argv0);
}

long peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  fabric::ScaleConfig cfg;
  cfg.ip_changes = 200;
  cfg.rule_resets = 3;
  std::string out_path = "BENCH_scale.json";
  bool churn = false;
  // Shared base of the fabric presets (--incast/--mice/--overspine): 128
  // hosts on an 8-leaf/2-spine Clos with a cheap control-plane storm (the
  // phase under test is the data plane, not the 10k-VM resolve storm).
  // Presets apply inline like --smoke, so later flags still override.
  auto fabric_preset_base = [&cfg] {
    cfg.hosts = 128;
    cfg.vms_per_host = 4;
    cfg.tenants = 16;
    cfg.waves = 2;
    cfg.ip_changes = 32;
    cfg.rule_resets = 1;
    cfg.traffic.enabled = true;
    cfg.traffic.leaves = 8;
    cfg.traffic.spines = 2;
    cfg.traffic.host_gbps = 25.0;
    cfg.traffic.spine_gbps = 40.0;
    cfg.traffic.dcqcn = true;
    cfg.traffic.tenant_gbps = 5.0;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_zu = [&]() {
      return static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    };
    auto next_us = [&]() { return sim::microseconds(std::atof(next())); };
    // A rate in Gbps; NaN unless the whole argument is a number.
    auto next_gbps = [&]() {
      const char* arg = next();
      char* end = nullptr;
      const double gbps = std::strtod(arg, &end);
      return end != arg && *end == '\0' ? gbps : std::nan("");
    };
    if (a == "-h" || a == "--help") {
      usage(argv[0]);
      return 0;
    } else if (a == "--tenants") {
      cfg.tenants = next_zu();
    } else if (a == "--hosts") {
      cfg.hosts = next_zu();
    } else if (a == "--vms") {
      cfg.vms_per_host = next_zu();
    } else if (a == "--conns") {
      cfg.conns_per_vm = next_zu();
    } else if (a == "--waves") {
      cfg.waves = next_zu();
    } else if (a == "--shards") {
      cfg.shards = next_zu();
    } else if (a == "--rtt") {
      cfg.query_rtt = next_us();
    } else if (a == "--service") {
      cfg.query_service = next_us();
    } else if (a == "--window") {
      cfg.batch_window = next_us();
    } else if (a == "--ip-changes") {
      cfg.ip_changes = next_zu();
    } else if (a == "--rule-resets") {
      cfg.rule_resets = next_zu();
    } else if (a == "--down-shard") {
      cfg.down_shard = std::atoi(next());
    } else if (a == "--down-from") {
      cfg.down_from = sim::milliseconds(std::atof(next()));
    } else if (a == "--down-until") {
      cfg.down_until = sim::milliseconds(std::atof(next()));
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "-o" || a == "--out") {
      out_path = next();
    } else if (a == "--smoke") {
      cfg.hosts = 4;
      cfg.vms_per_host = 25;
      cfg.tenants = 5;
      cfg.waves = 2;
      cfg.shards = 4;
      cfg.ip_changes = 20;
      cfg.rule_resets = 1;
    } else if (a == "--churn") {
      churn = true;
    } else if (a == "--topology") {
      const std::string mode = next();
      cfg.traffic.enabled = true;
      if (mode == "direct") {
        cfg.traffic.leaves = 1;
      } else if (mode == "leafspine") {
        if (cfg.traffic.leaves <= 1) cfg.traffic.leaves = 8;
      } else {
        std::fprintf(stderr, "unknown topology: %s\n", mode.c_str());
        usage(argv[0]);
        return 2;
      }
    } else if (a == "--leaves") {
      cfg.traffic.leaves = next_zu();
    } else if (a == "--spines") {
      cfg.traffic.spines = next_zu();
    } else if (a == "--host-gbps") {
      cfg.traffic.host_gbps = next_gbps();
    } else if (a == "--spine-gbps") {
      cfg.traffic.spine_gbps = next_gbps();
    } else if (a == "--pattern") {
      cfg.traffic.pattern = next();
      if (cfg.traffic.pattern != "pairs" && cfg.traffic.pattern != "incast") {
        std::fprintf(stderr, "unknown pattern: %s\n",
                     cfg.traffic.pattern.c_str());
        usage(argv[0]);
        return 2;
      }
    } else if (a == "--flows") {
      cfg.traffic.flows = next_zu();
    } else if (a == "--fanin") {
      cfg.traffic.incast_fanin = next_zu();
    } else if (a == "--flow-kb") {
      cfg.traffic.flow_kb = next_zu();
    } else if (a == "--elephant-every") {
      cfg.traffic.elephant_every = next_zu();
    } else if (a == "--elephant-kb") {
      cfg.traffic.elephant_kb = next_zu();
    } else if (a == "--tenant-gbps") {
      cfg.traffic.tenant_gbps = next_gbps();
    } else if (a == "--placement") {
      cfg.traffic.placement = true;
    } else if (a == "--no-dcqcn") {
      cfg.traffic.dcqcn = false;
    } else if (a == "--fail-spine") {
      cfg.traffic.fail_spine = std::atoi(next());
    } else if (a == "--fail-from") {
      cfg.traffic.fail_from = sim::milliseconds(std::atof(next()));
    } else if (a == "--fail-until") {
      cfg.traffic.fail_until = sim::milliseconds(std::atof(next()));
    } else if (a == "--incast") {
      // Incast fan-in: 48 senders converge on host 0. The victim's
      // leaf->host link saturates, so DCQCN must cut the senders and walk
      // them back up through fast recovery; 256 KB flows keep the fan-in
      // congested for many RP ticks.
      fabric_preset_base();
      cfg.traffic.pattern = "incast";
      cfg.traffic.incast_fanin = 48;
      cfg.traffic.flows = 256;
      cfg.traffic.flow_kb = 256;
    } else if (a == "--mice") {
      // Elephant/mice mix: mostly 16 KB mice with a 2 MB elephant every
      // 8th flow — max-min sharing must keep mice FCTs flat under the
      // elephants.
      fabric_preset_base();
      cfg.traffic.pattern = "pairs";
      cfg.traffic.flows = 512;
      cfg.traffic.flow_kb = 16;
      cfg.traffic.elephant_every = 8;
      cfg.traffic.elephant_kb = 2048;
    } else if (a == "--overspine") {
      // Oversubscribed spine: one 10 G spine under 128 hosts of pair
      // traffic — every cross-leaf flow shares one bottleneck.
      fabric_preset_base();
      cfg.traffic.pattern = "pairs";
      cfg.traffic.spines = 1;
      cfg.traffic.spine_gbps = 10.0;
      cfg.traffic.flows = 384;
      cfg.traffic.flow_kb = 64;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  // FabricTopology throws on an empty tier, and a spine index past the
  // count would fail some other spine: refuse both up front.
  const fabric::TrafficConfig& tc = cfg.traffic;
  if (tc.leaves == 0 || tc.spines == 0 ||
      (tc.fail_spine >= 0 &&
       static_cast<std::size_t>(tc.fail_spine) >= tc.spines)) {
    std::fprintf(stderr,
                 "bad fabric: %zu leaves x %zu spines, --fail-spine %d\n",
                 tc.leaves, tc.spines, tc.fail_spine);
    usage(argv[0]);
    return 2;
  }
  // FluidNet throws on a link rate at or below 0, a NaN rate runs wrong
  // or never ends, a negative or NaN limiter is silently off, and a 0 KB
  // flow is FluidNet's unbounded flow, so the phase would never end.
  const bool rates_ok = std::isfinite(tc.host_gbps) && tc.host_gbps > 0 &&
                        std::isfinite(tc.spine_gbps) && tc.spine_gbps > 0 &&
                        std::isfinite(tc.tenant_gbps) && tc.tenant_gbps >= 0;
  if (!rates_ok || tc.flow_kb == 0 || tc.elephant_kb == 0) {
    std::fprintf(stderr,
                 "bad traffic: host %g, spine %g, tenant %g Gbps; flow %llu, "
                 "elephant %llu KB\n",
                 tc.host_gbps, tc.spine_gbps, tc.tenant_gbps,
                 static_cast<unsigned long long>(tc.flow_kb),
                 static_cast<unsigned long long>(tc.elephant_kb));
    usage(argv[0]);
    return 2;
  }
  if (cfg.down_shard >= 0 && cfg.down_until <= cfg.down_from) {
    cfg.down_from = sim::milliseconds(60);
    cfg.down_until = sim::milliseconds(110);
  }
  if (churn) {
    // Churn-storm preset (applied post-parse so it rides on top of
    // whatever topology --smoke or explicit flags chose): warm path on,
    // waves packed 10 ms apart, and ~2 IP changes per VM — thousands of
    // sub-second VM lifetimes at the default 10k-VM scale.
    cfg.warm = true;
    cfg.waves = std::max<std::size_t>(cfg.waves, 6);
    cfg.wave_gap = sim::milliseconds(10);
    cfg.spread = sim::milliseconds(5);
    cfg.ip_changes = 2 * cfg.hosts * cfg.vms_per_host;
    cfg.rule_resets = std::max<std::size_t>(cfg.rule_resets, 2);
  }

  std::printf("# scale storm: %zu tenants x %zu hosts x %zu VMs/host "
              "(%zu VMs), %zu shards, seed %llu\n",
              cfg.tenants, cfg.hosts, cfg.vms_per_host,
              cfg.hosts * cfg.vms_per_host, cfg.shards,
              static_cast<unsigned long long>(cfg.seed));
  const auto wall0 = std::chrono::steady_clock::now();
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  std::printf(
      "conns: %llu attempted, %llu ok, %llu degraded, %llu unavailable, "
      "%llu not-found\n",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.unavailable),
      static_cast<unsigned long long>(r.not_found));
  std::printf("setup latency: p50 %.3f us, p99 %.3f us, max %.3f us\n",
              r.p50_us, r.p99_us, r.max_us);
  std::printf("throughput: %.3f kconn/s over %.3f ms\n", r.kconn_per_s,
              r.elapsed_ms);
  std::printf("cache: hit rate %.4f (%llu hits, %llu misses, %llu "
              "coalesced); %llu batches carrying %llu keys\n",
              r.hit_rate, static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.coalesced),
              static_cast<unsigned long long>(r.agent_batches),
              static_cast<unsigned long long>(r.agent_batched_keys));
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    const fabric::ShardReport& sr = r.per_shard[s];
    std::printf("shard %zu: %llu queries (%llu batched, %llu unreachable), "
                "max queue depth %zu, %llu degraded serves, %zu entries\n",
                s, static_cast<unsigned long long>(sr.queries),
                static_cast<unsigned long long>(sr.batched_queries),
                static_cast<unsigned long long>(sr.unreachable),
                sr.max_queue_depth,
                static_cast<unsigned long long>(sr.degraded_serves),
                sr.table_size);
  }
  if (r.traffic.enabled) {
    // The effective (clamped) shape is printed here, NOT serialized into
    // the JSON, whose bytes tests and CI pin.
    const fabric::TrafficReport& t = r.traffic;
    std::printf("topology: %zu hosts over %zu leaves x %zu spines "
                "(%.0f/%.0f Gbps), pattern %s\n",
                t.hosts, t.leaves, t.spines, tc.host_gbps, tc.spine_gbps,
                tc.pattern.c_str());
    std::printf("traffic: %llu flows, %.1f MB in %.3f ms (%.3f Gbps agg); "
                "fct p50 %.1f us, p99 %.1f us, max %.1f us\n",
                static_cast<unsigned long long>(t.flows),
                static_cast<double>(t.total_bytes) / 1e6, t.elapsed_ms,
                t.agg_gbps, t.fct_p50_us, t.fct_p99_us, t.fct_max_us);
    std::printf("fabric: %zu spine crossings (ecmp fold 0x%016llx), "
                "%llu ECN marks on %llu flows, %llu recoveries, peak spine "
                "util %.3f, peak tenant %.3f Gbps\n",
                t.spine_crossings,
                static_cast<unsigned long long>(t.ecmp_fold),
                static_cast<unsigned long long>(t.ecn_marks),
                static_cast<unsigned long long>(t.throttled_flows),
                static_cast<unsigned long long>(t.dcqcn_recoveries),
                t.peak_spine_util, t.peak_tenant_gbps);
  }
  const long rss_kb = peak_rss_kb();
  const double events_per_sec =
      wall_ms > 0 ? static_cast<double>(r.sim_events) / (wall_ms / 1000.0)
                  : 0.0;
  std::printf("perf: %llu events in %.1f ms (%.0f events/s), "
              "peak RSS %ld KiB\n",
              static_cast<unsigned long long>(r.sim_events), wall_ms,
              events_per_sec, rss_kb);

  // Splice the perf object into the report JSON as its last key. The
  // report body stays byte-identical to ScaleReport::json(); volatile
  // fields (wall_ms, events_per_sec, peak_rss_kb) each sit on
  // their own line so determinism diffs can strip them (see file comment).
  std::string json = r.json();
  char perf[512];
  std::snprintf(perf, sizeof(perf),
                "  ],\n"
                "  \"perf\": {\n"
                "    \"sim_events\": %llu,\n"
                "    \"trace_hash\": \"0x%016llx\",\n"
                "    \"wall_ms\": %.3f,\n"
                "    \"events_per_sec\": %.0f,\n"
                "    \"peak_rss_kb\": %ld\n"
                "  }\n"
                "}\n",
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.trace_hash), wall_ms,
                events_per_sec, rss_kb);
  const std::string tail = "  ]\n}\n";
  if (json.size() >= tail.size() &&
      json.compare(json.size() - tail.size(), tail.size(), tail) == 0) {
    json.replace(json.size() - tail.size(), tail.size(), perf);
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
