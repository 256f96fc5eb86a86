// masq_perftest — a perftest-style command-line tool for the simulated
// testbed. The knobs mirror ib_send_lat / ib_write_bw:
//
//   masq_perftest [options]
//     -t, --test  lat|bw           (default: lat)
//     -o, --op    send|write       (default: send)
//     -c, --candidate host|sriov|freeflow|masq   (default: masq)
//     -s, --size  <bytes>          message size (default: 2)
//     -n, --iters <count>          iterations (default: 1000)
//     -q, --qps   <count>          concurrent QPs, bw only (default: 1)
//     -r, --rate  <gbps>           MasQ tenant rate limit (default: none)
//     --pf                         map MasQ tenants to the PF (Fig. 9)
//     --faults <file>              fault-injection knob file (MasQ only);
//                                  see tools/chaos.knobs for the format
//     --fault-seed <n>             fault plane RNG seed (default: 1)
//     --check                      run the invariant auditors (src/check)
//                                  during the measurement; reports audit
//                                  counts so the overhead is visible
//     --check-every <n>            audit every n events (default: 512)
//     -h, --help
//
// Examples:
//   masq_perftest -t lat -o send -c host -s 2 -n 1000
//   masq_perftest -t bw -o write -c masq -s 65536 -q 128
//   masq_perftest -t bw -c masq -r 10        # rate-limited tenant
//   masq_perftest -t lat -c masq --faults tools/chaos.knobs --fault-seed 42
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/perftest.h"
#include "fabric/testbed.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [-t lat|bw] [-o send|write] [-c host|sriov|freeflow|masq]\n"
      "          [-s bytes] [-n iters] [-q qps] [-r gbps] [--pf]\n"
      "          [--faults <knob-file>] [--fault-seed <n>]\n"
      "          [--check] [--check-every <n>]\n",
      argv0);
}

bool parse_candidate(const std::string& s, fabric::Candidate* out) {
  if (s == "host") *out = fabric::Candidate::kHostRdma;
  else if (s == "sriov") *out = fabric::Candidate::kSriov;
  else if (s == "freeflow") *out = fabric::Candidate::kFreeFlow;
  else if (s == "masq") *out = fabric::Candidate::kMasq;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string test = "lat";
  std::string op_s = "send";
  fabric::Candidate candidate = fabric::Candidate::kMasq;
  std::uint32_t size = 2;
  int iters = 1000;
  int qps = 1;
  double rate = -1.0;
  bool use_pf = false;
  std::string faults_file;
  std::uint64_t fault_seed = 1;
  bool check = false;
  std::uint64_t check_every = 512;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "-h" || a == "--help") {
      usage(argv[0]);
      return 0;
    } else if (a == "-t" || a == "--test") {
      test = next();
    } else if (a == "-o" || a == "--op") {
      op_s = next();
    } else if (a == "-c" || a == "--candidate") {
      if (!parse_candidate(next(), &candidate)) {
        usage(argv[0]);
        return 2;
      }
    } else if (a == "-s" || a == "--size") {
      size = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (a == "-n" || a == "--iters") {
      iters = std::atoi(next());
    } else if (a == "-q" || a == "--qps") {
      qps = std::atoi(next());
    } else if (a == "-r" || a == "--rate") {
      rate = std::atof(next());
    } else if (a == "--pf") {
      use_pf = true;
    } else if (a == "--faults") {
      faults_file = next();
    } else if (a == "--fault-seed") {
      fault_seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--check") {
      check = true;
    } else if (a == "--check-every") {
      check = true;
      check_every = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  const auto op = op_s == "write" ? apps::perftest::Op::kWrite
                                  : apps::perftest::Op::kSend;

  sim::EventLoop loop;
  fabric::TestbedConfig cfg;
  cfg.candidate = candidate;
  cfg.masq_use_pf = use_pf;
  cfg.cal.host_dram_bytes = 32ull << 30;
  if (!faults_file.empty()) {
    if (candidate != fabric::Candidate::kMasq) {
      std::fprintf(stderr, "--faults requires -c masq\n");
      return 2;
    }
    std::ifstream in(faults_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", faults_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    if (!sim::FaultConfig::parse(text.str(), &cfg.faults, &err)) {
      std::fprintf(stderr, "%s: %s\n", faults_file.c_str(), err.c_str());
      return 2;
    }
    cfg.fault_seed = fault_seed;
  }
  if (check) {
    cfg.check_invariants = true;  // also honors MASQ_CHECK=1 without --check
    cfg.check_audit_every = check_every == 0 ? 1 : check_every;
  }
  fabric::Testbed bed(loop, cfg);
  bed.add_instances(2);
  if (rate > 0) {
    if (candidate != fabric::Candidate::kMasq || use_pf) {
      std::fprintf(stderr, "-r requires -c masq without --pf\n");
      return 2;
    }
    bed.masq_backend(0).set_tenant_rate_limit(fabric::kDefaultVni, rate);
  }

  std::printf("# candidate=%s test=%s op=%s size=%uB iters=%d",
              fabric::to_string(candidate), test.c_str(), op_s.c_str(), size,
              iters);
  if (qps > 1) std::printf(" qps=%d", qps);
  if (rate > 0) std::printf(" rate=%.1fGbps", rate);
  if (use_pf) std::printf(" pf");
  if (bed.checks() != nullptr) {
    std::printf(" check=every-%llu-events",
                static_cast<unsigned long long>(cfg.check_audit_every));
  }
  if (bed.faults() != nullptr) {
    std::printf(" faults=%s seed=%llu", faults_file.c_str(),
                static_cast<unsigned long long>(fault_seed));
  }
  std::printf("\n");
  std::fflush(stdout);  // keep the header ahead of stderr diagnostics

  try {
  if (test == "lat") {
    apps::perftest::LatConfig lc;
    lc.op = op;
    lc.msg_size = size;
    lc.iterations = iters;
    const sim::Stats s = apps::perftest::run_lat(bed, lc);
    std::printf("%-10s %10s %10s %10s %10s %10s\n", "#bytes", "iters",
                "t_min[us]", "t_avg[us]", "t_p99[us]", "t_max[us]");
    std::printf("%-10u %10zu %10.2f %10.2f %10.2f %10.2f\n", size, s.count(),
                s.min(), s.mean(), s.percentile(99.0), s.max());
  } else if (test == "bw") {
    apps::perftest::BwConfig bc;
    bc.op = op;
    bc.msg_size = size == 2 ? 65536 : size;  // bw default like perftest
    bc.iterations = iters;
    bc.num_qps = qps;
    const double gbps = apps::perftest::run_bw(bed, bc);
    std::printf("%-10s %10s %14s %14s\n", "#bytes", "iters", "BW[Gbps]",
                "Mmsg/sec");
    std::printf("%-10u %10d %14.2f %14.3f\n", bc.msg_size,
                bc.iterations * qps, gbps,
                gbps / 8.0 * 1000.0 / bc.msg_size);
  } else {
    usage(argv[0]);
    return 2;
  }
  } catch (const std::exception& e) {
    // Under aggressive fault rates a setup verb can exhaust its retry
    // budget; the harness aborts the measurement rather than reporting
    // numbers from a half-built testbed. Print the replay recipe so the
    // run can be reproduced and diagnosed.
    std::fprintf(stderr, "error: %s\n", e.what());
    if (bed.faults() != nullptr) {
      std::fprintf(stderr,
                   "# faults fired: %llu (replay: --faults %s "
                   "--fault-seed %llu)\n%s",
                   static_cast<unsigned long long>(
                       bed.faults()->faults_fired()),
                   faults_file.c_str(),
                   static_cast<unsigned long long>(fault_seed),
                   bed.faults()->dump_log().c_str());
    }
    return 1;
  }
  if (bed.faults() != nullptr) {
    std::printf("# faults fired: %llu (replay: --faults %s --fault-seed %llu)\n",
                static_cast<unsigned long long>(bed.faults()->faults_fired()),
                faults_file.c_str(),
                static_cast<unsigned long long>(fault_seed));
  }
  if (bed.checks() != nullptr) {
    // Audit-overhead accounting: each audit ran every registered auditor
    // once; events is the denominator for the per-event audit rate.
    const check::InvariantRegistry& c = *bed.checks();
    std::printf(
        "# checks: audits=%llu auditor-calls=%llu violations=%zu "
        "events=%llu\n",
        static_cast<unsigned long long>(c.audits_run()),
        static_cast<unsigned long long>(c.checks_run()),
        c.violations().size(),
        static_cast<unsigned long long>(loop.events_executed()));
  }
  return 0;
}
