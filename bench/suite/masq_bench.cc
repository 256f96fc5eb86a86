// masq_bench — the repository benchmark (README.md in this directory).
//
//   masq_bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//              [--layers] [--repeats n] [--smoke]
//   masq_bench --self-test <path/to/BENCHMARK.json>
//
// One workload per process, single-threaded. Repeats, each on fresh state,
// run until at least --repeats (default 5) are done and --seconds (default
// 10) have passed; host-time metrics are medians over the repeats. Every
// repeat's deterministic output must be identical, and at full size must
// equal the FNV-1a digest pinned in digests.txt for (workload, seed) when
// one is pinned. --trace 1 (alias --layers) adds one traced repeat and the
// layer microbenches.
//
// Output: a table of every metric with its unit, median, min, max and n,
// then, as the last line, one JSON object
//   {"correct": true, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit status is 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"
#include "workloads.h"

namespace {

using masq_bench::Repeat;
using masq_bench::Traced;
using masq_bench::Values;
using masq_bench::Workload;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The order BENCHMARK.json lists them in; the self-test keeps the two equal.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// "sim_" units are virtual (modelled) time; the rest are host measurements
// or counts.
constexpr MetricDef kPerLayer[] = {
    {"conn_setup_p50_us", "sim_us"},
    {"conn_setup_p99_us", "sim_us"},
    {"conn_setup_n", "count"},
    {"conn_rate_kps", "kconn/sim_s"},
    {"fct_p50_us", "sim_us"},
    {"fct_p99_us", "sim_us"},
    {"fct_n", "count"},
    {"fabric_gbps", "Gbps"},
    {"goodput_gbps", "Gbps"},
    {"fail_ratio", "ratio"},
    {"tracing_overhead_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.micro_ns_per_event", "ns"},
    {"fabric.draw_s", "s"},
    {"fabric.storm_s", "s"},
    {"sdn.cache_hit_rate", "ratio"},
    {"sdn.cache_misses", "count"},
    {"sdn.coalesced", "count"},
    {"sdn.keys_per_batch", "keys"},
    {"sdn.shard_queries_max", "count"},
    {"sdn.shard_queue_depth_max", "count"},
    {"sdn.degraded_serves", "count"},
    {"sdn.prefills", "count"},
    {"masq.warm_pooled", "count"},
    {"masq.warm_reused", "count"},
    {"masq.warm_cold", "count"},
    {"net.traffic_s", "s"},
    {"net.fluid_only_s", "s"},
    {"dcqcn.s", "s"},
    {"dcqcn.ecn_marks", "count"},
    {"dcqcn.recoveries", "count"},
    {"dcqcn.throttled_flows", "count"},
    {"net.spine_crossings", "count"},
    {"net.peak_spine_util", "ratio"},
    {"net.us_per_flow", "us"},
    {"net.fluid_us_per_event_128", "us"},
    {"net.fluid_us_per_event_2048", "us"},
    {"verbs.post_send_ns", "ns"},
    {"rnic.wqes", "count"},
    {"rnic.us_per_wqe", "us"},
    {"ctrl.verbs_lib_us", "sim_us"},
    {"ctrl.virtio_us", "sim_us"},
    {"ctrl.masq_us", "sim_us"},
    {"ctrl.rdma_driver_us", "sim_us"},
    {"virtio.kicks_per_conn", "count"},
    {"virtio.interrupts_per_conn", "count"},
};

constexpr std::size_t kSetupSamples = 21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::size_t repeats = 5;
  bool trace = false;
  bool smoke = false;
};

struct Summary {
  double median = 0;
  double min = 0;
  double max = 0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& xs) {
  sim::Stats s;
  for (double x : xs) s.add(x);
  return {s.median(), s.min(), s.max(), s.count()};
}

struct Result {
  std::vector<Repeat> repeats;
  Summary wall;
  Summary setup;
  double elapsed_s = 0;
  std::uint64_t digest = 0;
  std::string digest_status;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values end_to_end;
  Values per_layer;  // --trace 1 only
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// digests.txt lines: "<workload> <seed> <0xdigest>"; '#' starts a comment.
std::optional<std::uint64_t> pinned_digest(const std::string& workload,
                                           std::uint64_t seed) {
  const std::string path = std::string(MASQ_BENCH_DIR) + "/digests.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    std::string hex;
    if (!(fields >> name >> s >> hex)) {
      throw std::runtime_error(path + ": malformed line: " + line);
    }
    if (name == workload && s == seed) {
      return std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return std::nullopt;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The host's CPUs are shared with other tenants. A neighbour thrashing one
// core's caches slows memory-bound work on it by up to 2x while compute-only
// code runs within 2% on every CPU, and which core suffers changes over
// minutes. Before each repeat the benchmark therefore moves to the allowed
// CPU where a short cache-bound probe runs fastest. It stays put when only
// one CPU is allowed or the affinity cannot be changed.
class CpuChooser {
 public:
  CpuChooser() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }
  // Gives the process back every CPU it started with.
  ~CpuChooser() {
    if (CPU_COUNT(&allowed_) > 0) {
      (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuChooser(const CpuChooser&) = delete;
  CpuChooser& operator=(const CpuChooser&) = delete;

  void move_to_quietest() {
    if (CPU_COUNT(&allowed_) < 2) return;
    int best = -1;
    double best_s = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !run_on(cpu)) continue;
      const double s = std::min({probe_s(), probe_s(), probe_s()});
      if (best < 0 || s < best_s) {
        best = cpu;
        best_s = s;
      }
    }
    if (best < 0 || !run_on(best)) {
      (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

 private:
  static bool run_on(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  // Random read-modify-writes over 1 MB, the size of a core's private
  // caches; ~1 ms.
  double probe_s() {
    std::uint32_t x = 1;
    const auto t0 = Clock::now();
    for (int i = 0; i < 400'000; ++i) {
      x = x * 1664525u + 1013904223u;
      ++buf_[(x >> 8) & (buf_.size() - 1)];
    }
    return seconds_since(t0);
  }

  cpu_set_t allowed_;
  std::vector<std::uint32_t> buf_ = std::vector<std::uint32_t>(1 << 18);
};

Result measure(const Workload& w, const Options& o) {
  Result r;
  CpuChooser cpus;
  const auto t0 = Clock::now();
  do {
    cpus.move_to_quietest();
    r.repeats.push_back(w.run(o.seed, o.smoke));
  } while (r.repeats.size() < o.repeats || seconds_since(t0) < o.seconds);
  r.elapsed_s = seconds_since(t0);

  const Repeat& first = r.repeats.front();
  std::vector<double> walls;
  std::vector<double> setups;
  for (const Repeat& rep : r.repeats) {
    walls.push_back(rep.wall_s);
    r.attempted += rep.attempted;
    r.failed += rep.failed;
    r.failed += rep.output != first.output;  // nondeterminism
  }
  // Set-up takes 0.02-10 ms, so it is sampled back to back, after the CPU
  // choice rather than after each probe, which would leave caches cold.
  cpus.move_to_quietest();
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    setups.push_back(w.setup(o.seed, o.smoke));
  }
  r.wall = summarize(walls);
  r.setup = summarize(setups);
  r.digest = fnv1a(first.output);
  if (o.smoke) {
    r.digest_status = "not pinned at --smoke size";
  } else if (const auto pin = pinned_digest(w.name, o.seed); !pin) {
    r.digest_status = "unpinned seed";
  } else if (*pin == r.digest) {
    r.digest_status = "matches pin";
  } else {
    r.digest_status = "PIN MISMATCH";
    ++r.failed;
  }
  r.end_to_end = {{"wall_s", r.wall.median},
                  {"setup_s", r.setup.median},
                  {"peak_rss_mb", peak_rss_mb()}};

  if (o.trace) {
    cpus.move_to_quietest();
    const Traced traced = w.trace(o.seed, o.smoke, first);
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    r.per_layer = first.model;
    r.per_layer.insert(traced.layers.begin(), traced.layers.end());
    cpus.move_to_quietest();
    const Values micro = masq_bench::layer_microbenches(o.smoke);
    r.per_layer.insert(micro.begin(), micro.end());
    r.per_layer["tracing_overhead_s"] = traced.wall_s - r.wall.median;
    // A layer the workload does not exercise did no work.
    for (const MetricDef& d : kPerLayer) r.per_layer.try_emplace(d.name, 0.0);
  }
  return r;
}

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return d.unit;
  }
  return "?";
}

void print_row(const char* name, const char* unit, const Summary& s) {
  std::printf("%-28s %-12s %14.6g %14.6g %14.6g %5zu\n", name, unit, s.median,
              s.min, s.max, s.n);
}

void print_report(const Workload& w, const Options& o, const Result& r) {
  std::printf("# masq_bench %s seed %llu%s: %zu repeats in %.1f s; output "
              "digest 0x%016llx (%s)\n",
              w.name, static_cast<unsigned long long>(o.seed),
              o.smoke ? " (smoke)" : "", r.repeats.size(), r.elapsed_s,
              static_cast<unsigned long long>(r.digest),
              r.digest_status.c_str());
  std::printf("%-28s %-12s %14s %14s %14s %5s\n", "# metric", "unit",
              "median", "min", "max", "n");
  std::printf("# end-to-end, host time\n");
  print_row("wall_s", "s", r.wall);
  std::printf("#   wall_s by repeat:");
  for (const Repeat& rep : r.repeats) std::printf(" %.4f", rep.wall_s);
  std::printf("\n");
  print_row("setup_s", "s", r.setup);
  const double rss = r.end_to_end.at("peak_rss_mb");
  print_row("peak_rss_mb", "MB", {rss, rss, rss, 1});
  std::printf("# end-to-end, modelled (identical in every repeat)\n");
  const Values& model = r.repeats.front().model;
  for (const auto& [name, v] : model) {
    print_row(name.c_str(), unit_of(name), {v, v, v, r.repeats.size()});
  }
  if (o.trace) {
    std::printf("# per-layer, traced repeat and microbenches\n");
    for (const MetricDef& d : kPerLayer) {
      if (model.count(d.name) != 0) continue;
      const auto it = r.per_layer.find(d.name);
      const double v = it == r.per_layer.end() ? NAN : it->second;
      print_row(d.name, d.unit, {v, v, v, 1});
    }
  }
  std::printf("# checks: %llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

// The last stdout line: the end-to-end or the per-layer set, by --trace.
void print_json(const Result& r, bool trace) {
  const Values& values = trace ? r.per_layer : r.end_to_end;
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  if (values.size() != defs.size()) {
    throw std::logic_error("metric set differs from its definitions");
  }
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[192];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = values.at(defs[i].name);
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("non-finite metric ") + defs[i].name);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---- self-test ----

// The value of string field `field` in `obj`, or "" if absent.
std::string string_field(const std::string& obj, const std::string& field) {
  const std::size_t key = obj.find("\"" + field + "\"");
  if (key == std::string::npos) return "";
  const std::size_t open = obj.find('"', obj.find(':', key) + 1);
  const std::size_t close = obj.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return obj.substr(open + 1, close - open - 1);
}

// The (name, unit) pairs of the objects in the array under `key`.
std::set<std::pair<std::string, std::string>> json_entries(
    const std::string& json, const std::string& key) {
  std::set<std::pair<std::string, std::string>> out;
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return out;
  const std::size_t end = json.find(']', at);
  for (std::size_t open = json.find('{', at); open < end;
       open = json.find('{', open + 1)) {
    const std::string obj = json.substr(open, json.find('}', open) - open);
    out.emplace(string_field(obj, "name"), string_field(obj, "unit"));
  }
  return out;
}

std::set<std::pair<std::string, std::string>> def_entries(
    std::span<const MetricDef> defs) {
  std::set<std::pair<std::string, std::string>> out;
  for (const MetricDef& d : defs) out.emplace(d.name, d.unit);
  return out;
}

std::set<std::string> keys_of(const Values& v) {
  std::set<std::string> out;
  for (const auto& [name, x] : v) out.insert(name);
  return out;
}

std::set<std::string> names_of(std::span<const MetricDef> defs) {
  std::set<std::string> out;
  for (const MetricDef& d : defs) out.insert(d.name);
  return out;
}

int self_test(const char* benchmark_json) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
  };
  std::ifstream in(benchmark_json);
  check(static_cast<bool>(in), std::string("read ") + benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();

  std::set<std::pair<std::string, std::string>> declared;
  for (const Workload& w : masq_bench::workloads()) {
    declared.emplace(w.name, "");
  }
  check(json_entries(json, "workloads") == declared,
        "BENCHMARK.json names exactly masq_bench's workloads");
  check(json_entries(json, "end_to_end") == def_entries(kEndToEnd),
        "BENCHMARK.json end_to_end names and units match masq_bench");
  check(json_entries(json, "per_layer") == def_entries(kPerLayer),
        "BENCHMARK.json per_layer names and units match masq_bench");

  for (const Workload& w : masq_bench::workloads()) {
    Options o;
    o.workload = w.name;
    o.seconds = 0;
    o.repeats = 2;
    o.trace = true;
    o.smoke = true;
    const Result r = measure(w, o);
    const std::string name = w.name;
    // For fabric_mice this includes the split run reproducing the
    // in-engine traffic report; for every workload, the traced repeat
    // reproducing the untimed output.
    check(r.failed == 0, name + ": every check passes");
    check(keys_of(r.end_to_end) == names_of(kEndToEnd),
          name + ": every end-to-end metric is present");
    check(keys_of(r.per_layer) == names_of(kPerLayer),
          name + ": every per-layer metric is present");
  }
  check(masq_bench::rdma_loop_matches_perftest(),
        "rdma_bw16 loop reproduces apps::perftest::run_bw goodput");
  return failures == 0 ? 0 : 1;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed n] [--seconds s] "
               "[--trace 0|1] [--layers] [--repeats n] [--smoke]\n"
               "       %s --self-test <BENCHMARK.json>\n"
               "workloads:",
               argv0, argv0);
  for (const Workload& w : masq_bench::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t n = 0;
    if (a == "--self-test" && has_value) {
      return self_test(argv[++i]);
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value && parse_u64(argv[i + 1], &n)) {
      o.seed = n;
      ++i;
    } else if (a == "--seconds" && has_value && parse_u64(argv[i + 1], &n)) {
      o.seconds = static_cast<double>(n);
      ++i;
    } else if (a == "--repeats" && has_value && parse_u64(argv[i + 1], &n) &&
               n > 0) {
      o.repeats = n;
      ++i;
    } else if (a == "--trace" && has_value &&
               (std::string(argv[i + 1]) == "0" ||
                std::string(argv[i + 1]) == "1")) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--layers") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : masq_bench::workloads()) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    usage(argv[0]);
    return 2;
  }
  try {
    const Result r = measure(*workload, o);
    print_report(*workload, o, r);
    print_json(r, o.trace);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masq_bench: %s\n", e.what());
    return 1;
  }
}
