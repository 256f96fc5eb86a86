// The four masq_bench workloads (README.md in this directory).
//
// Every layer is timed from outside, around calls into public entry points
// only: fabric::storm::StormSchedule::draw, fabric::run_scale_storm,
// fabric::run_traffic_phase, fabric::Testbed, verbs::Context,
// apps::setup_endpoint / connect_*, net::FluidNet and sim::EventLoop. The
// partitioned storm engine and the direct-wire traffic mode are deliberately
// never called, so either can be deleted without touching the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace masq_bench {

// Metric name -> value.
using Values = std::map<std::string, double>;

// One repeat: fresh state, inputs built, the run measured, outputs checked.
struct Repeat {
  double wall_s = 0;  // host seconds of the measured run
  // Deterministic results (report text plus every modelled value at full
  // precision); identical across repeats and digested against the pins.
  std::string output;
  std::uint64_t attempted = 0;  // operations the run performed
  std::uint64_t failed = 0;     // operations whose result failed a check
  // Modelled (virtual-time) end-to-end metrics; 0 where the workload has no
  // such quantity (no flows, no data path, too few samples for a p99).
  Values model;
};

// The extra repeat a --layers run makes, with per-call timers on.
struct Traced {
  double wall_s = 0;  // comparable to Repeat::wall_s
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // traced results that differ from the untimed
  // Per-layer metrics of the layers the workload exercises; masq_bench
  // reports every other per-layer metric as 0.
  Values layers;
};

struct Workload {
  const char* name;
  Repeat (*run)(std::uint64_t seed, bool smoke);
  // Builds the inputs alone, as a repeat does before its run, and returns
  // the host seconds that took: one setup_s sample.
  double (*setup)(std::uint64_t seed, bool smoke);
  // `untimed` is one of the untimed repeats, for equivalence checks.
  Traced (*trace)(std::uint64_t seed, bool smoke, const Repeat& untimed);
};

const std::vector<Workload>& workloads();

// Microbenches every --layers run adds: the event core and the fluid
// solver in isolation.
Values layer_microbenches(bool smoke);

// The rdma_bw16 loop at --smoke size against apps::perftest::run_bw on the
// same configuration; true when their goodputs are bit-identical.
bool rdma_loop_matches_perftest();

}  // namespace masq_bench
