#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>

#include "apps/common.h"
#include "apps/perftest.h"
#include "fabric/scale.h"
#include "fabric/storm_schedule.h"
#include "fabric/testbed.h"
#include "fabric/traffic.h"
#include "masq/frontend.h"
#include "net/fluid.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace masq_bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Output text: one "name=value" line per result, doubles at full precision
// so the digest covers every bit.
void append(std::string& out, const char* name, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s=%.17g\n", name, v);
  out += buf;
}
void append_u64(std::string& out, const char* name, std::uint64_t v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s=%llu\n", name,
                static_cast<unsigned long long>(v));
  out += buf;
}
void append_values(std::string& out, const Values& values) {
  for (const auto& [name, v] : values) append(out, name.c_str(), v);
}

// A percentile is reported only when at least ten samples lie beyond it;
// 0 marks a sample too small to support it.
double tail_or_zero(std::size_t n, double p, double value) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 ? value : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Storm workloads: storm100k, churn20k, fabric_mice. Each is a
// masq_scaletest command line (named above its config) run single-loop.
// ---------------------------------------------------------------------------

// masq_scaletest's defaults; --smoke shrinks to its CI preset.
fabric::ScaleConfig storm_base(std::uint64_t seed, bool smoke) {
  fabric::ScaleConfig cfg;
  cfg.ip_changes = 200;
  cfg.rule_resets = 3;
  if (smoke) {
    cfg.hosts = 4;
    cfg.vms_per_host = 25;
    cfg.tenants = 5;
    cfg.waves = 2;
    cfg.shards = 4;
    cfg.ip_changes = 20;
    cfg.rule_resets = 1;
  }
  cfg.seed = seed;
  return cfg;
}

// masq_scaletest --hosts 160: 100k VMs, 630k connection starts.
fabric::ScaleConfig storm100k_config(std::uint64_t seed, bool smoke) {
  fabric::ScaleConfig cfg = storm_base(seed, smoke);
  if (!smoke) cfg.hosts = 160;
  return cfg;
}

// masq_scaletest --hosts 32 --churn: 20k VMs, warm path on, 40k IP changes.
fabric::ScaleConfig churn20k_config(std::uint64_t seed, bool smoke) {
  fabric::ScaleConfig cfg = storm_base(seed, smoke);
  if (!smoke) cfg.hosts = 32;
  cfg.warm = true;
  cfg.waves = std::max<std::size_t>(cfg.waves, 6);
  cfg.wave_gap = sim::milliseconds(10);
  cfg.spread = sim::milliseconds(5);
  cfg.ip_changes = 2 * cfg.hosts * cfg.vms_per_host;
  cfg.rule_resets = std::max<std::size_t>(cfg.rule_resets, 2);
  return cfg;
}

// masq_scaletest --mice --flows 1024 (--flows 128 at --smoke size).
fabric::ScaleConfig mice_config(std::uint64_t seed, bool smoke) {
  fabric::ScaleConfig cfg;
  cfg.hosts = 128;
  cfg.vms_per_host = 4;
  cfg.tenants = 16;
  cfg.waves = 2;
  cfg.ip_changes = 32;
  cfg.rule_resets = 1;
  fabric::TrafficConfig& t = cfg.traffic;
  t.enabled = true;
  t.leaves = 8;
  t.spines = 2;
  t.host_gbps = 25.0;
  t.spine_gbps = 40.0;
  t.dcqcn = true;
  t.tenant_gbps = 5.0;
  t.pattern = "pairs";
  t.flows = smoke ? 128 : 1024;
  t.flow_kb = 16;
  t.elephant_every = 8;
  t.elephant_kb = 2048;
  cfg.seed = seed;
  return cfg;
}

// Every TrafficReport field at full precision.
std::string traffic_text(const fabric::TrafficReport& t) {
  std::string s;
  append_u64(s, "traffic.flows", t.flows);
  append_u64(s, "traffic.total_bytes", t.total_bytes);
  append(s, "traffic.elapsed_ms", t.elapsed_ms);
  append(s, "traffic.agg_gbps", t.agg_gbps);
  append(s, "traffic.fct_p50_us", t.fct_p50_us);
  append(s, "traffic.fct_p99_us", t.fct_p99_us);
  append(s, "traffic.fct_max_us", t.fct_max_us);
  append_u64(s, "traffic.ecmp_fold", t.ecmp_fold);
  append_u64(s, "traffic.spine_crossings", t.spine_crossings);
  append_u64(s, "traffic.ecn_marks", t.ecn_marks);
  append_u64(s, "traffic.dcqcn_recoveries", t.dcqcn_recoveries);
  append_u64(s, "traffic.throttled_flows", t.throttled_flows);
  append(s, "traffic.peak_spine_util", t.peak_spine_util);
  append(s, "traffic.peak_tenant_gbps", t.peak_tenant_gbps);
  return s;
}

// What the schedule says the run must do, counted from outside the engine.
struct StormExpect {
  std::uint64_t conns = 0;
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
};

StormExpect draw_expectations(const fabric::ScaleConfig& cfg,
                              const fabric::storm::StormSchedule& sched) {
  StormExpect e;
  e.conns = sched.wave_conns.size() + sched.reset_conns.size();
  if (!cfg.traffic.enabled) return e;
  const fabric::TrafficConfig& t = cfg.traffic;
  e.flows = std::min<std::uint64_t>(t.flows, sched.wave_conns.size());
  for (std::uint64_t i = 0; i < e.flows; ++i) {
    const bool elephant = t.elephant_every > 0 && i % t.elephant_every == 0;
    e.bytes += (elephant ? t.elephant_kb : t.flow_kb) * 1024;
  }
  return e;
}

// Checks a report against the schedule and its own invariants; returns the
// number of failed checks.
std::uint64_t storm_failures(const fabric::ScaleConfig& cfg,
                             const fabric::ScaleReport& r,
                             const StormExpect& e) {
  std::uint64_t bad = 0;
  bad += r.attempted != e.conns;
  bad += r.ok + r.degraded + r.unavailable + r.not_found != r.attempted;
  // A refusal needs a scripted cause: a shard outage for `unavailable`,
  // vBond IP churn for `not_found`.
  if (cfg.down_shard < 0) bad += r.unavailable;
  if (cfg.ip_changes == 0) bad += r.not_found;
  if (cfg.warm) {
    bad += r.warm_pooled + r.warm_reused + r.warm_cold != r.ok + r.degraded;
  }
  bad += !(r.hit_rate >= 0.0 && r.hit_rate <= 1.0);
  bad += !(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
  if (cfg.traffic.enabled) {
    const fabric::TrafficReport& t = r.traffic;
    bad += t.flows != e.flows;
    bad += t.total_bytes != e.bytes;
    bad += !(t.fct_max_us > 0.0 && t.fct_p50_us <= t.fct_p99_us &&
             t.fct_p99_us <= t.fct_max_us);
    bad += t.spine_crossings > t.flows;
  }
  return bad;
}

Values storm_model(const fabric::ScaleReport& r) {
  const std::uint64_t done = r.ok + r.degraded;
  const fabric::TrafficReport& t = r.traffic;
  return {
      {"conn_setup_p50_us", r.p50_us},
      {"conn_setup_p99_us", tail_or_zero(done, 99.0, r.p99_us)},
      {"conn_rate_kps", r.kconn_per_s},
      {"fct_p50_us", t.fct_p50_us},
      {"fct_p99_us", tail_or_zero(t.flows, 99.0, t.fct_p99_us)},
      {"fabric_gbps", t.agg_gbps},
      {"goodput_gbps", 0.0},
      {"fail_ratio",
       ratio(static_cast<double>(r.unavailable + r.not_found),
             static_cast<double>(r.attempted))},
      {"conn_setup_n", static_cast<double>(done)},
      {"fct_n", static_cast<double>(t.flows)},
  };
}

std::string storm_output(const fabric::ScaleReport& r, const Values& model) {
  std::string out = r.json();
  append_values(out, model);
  if (r.traffic.enabled) out += traffic_text(r.traffic);
  return out;
}

double storm_setup(const fabric::ScaleConfig& cfg) {
  const auto t0 = Clock::now();
  const auto sched = fabric::storm::StormSchedule::draw(cfg);
  return seconds_since(t0);
}

Repeat storm_repeat(const fabric::ScaleConfig& cfg) {
  Repeat rep;
  const StormExpect expect =
      draw_expectations(cfg, fabric::storm::StormSchedule::draw(cfg));
  const auto t0 = Clock::now();
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  rep.wall_s = seconds_since(t0);
  rep.attempted = r.attempted + r.traffic.flows;
  rep.failed = storm_failures(cfg, r, expect);
  rep.model = storm_model(r);
  rep.output = storm_output(r, rep.model);
  return rep;
}

// Control-plane layers of one storm report, run in `storm_s` host seconds.
void storm_layers(const fabric::ScaleReport& r, double storm_s, Values& l) {
  l["sim.events"] = static_cast<double>(r.sim_events);
  l["sim.ns_per_event"] =
      ratio(storm_s * 1e9, static_cast<double>(r.sim_events));
  l["fabric.storm_s"] = storm_s;
  l["sdn.cache_hit_rate"] = r.hit_rate;
  l["sdn.cache_misses"] = static_cast<double>(r.cache_misses);
  l["sdn.coalesced"] = static_cast<double>(r.coalesced);
  l["sdn.keys_per_batch"] = ratio(static_cast<double>(r.agent_batched_keys),
                                  static_cast<double>(r.agent_batches));
  std::uint64_t queries_max = 0;
  std::size_t depth_max = 0;
  std::uint64_t degraded = 0;
  for (const fabric::ShardReport& s : r.per_shard) {
    queries_max = std::max(queries_max, s.queries);
    depth_max = std::max(depth_max, s.max_queue_depth);
    degraded += s.degraded_serves;
  }
  l["sdn.shard_queries_max"] = static_cast<double>(queries_max);
  l["sdn.shard_queue_depth_max"] = static_cast<double>(depth_max);
  l["sdn.degraded_serves"] = static_cast<double>(degraded);
  l["sdn.prefills"] = static_cast<double>(r.warm_prefills);
  l["masq.warm_pooled"] = static_cast<double>(r.warm_pooled);
  l["masq.warm_reused"] = static_cast<double>(r.warm_reused);
  l["masq.warm_cold"] = static_cast<double>(r.warm_cold);
}

// storm100k / churn20k: the traced repeat is the same draw and storm with a
// timer around each call.
Traced storm_trace(const fabric::ScaleConfig& cfg, const Repeat& untimed) {
  Traced tr;
  tr.layers["fabric.draw_s"] = storm_setup(cfg);
  const auto t0 = Clock::now();
  const fabric::ScaleReport r = fabric::run_scale_storm(cfg);
  tr.wall_s = seconds_since(t0);
  tr.attempted = r.attempted;
  tr.failed = storm_output(r, storm_model(r)) != untimed.output;
  storm_layers(r, tr.wall_s, tr.layers);
  return tr;
}

// fabric_mice: the traced repeat splits the in-engine run into its parts —
// the control-plane storm with traffic off, the draw, and the traffic phase
// — then replays the phase with DCQCN off to isolate congestion control.
Traced mice_trace(const fabric::ScaleConfig& cfg, const Repeat& untimed) {
  Traced tr;
  Values& l = tr.layers;

  fabric::ScaleConfig storm_only = cfg;
  storm_only.traffic.enabled = false;
  auto t0 = Clock::now();
  const fabric::ScaleReport r = fabric::run_scale_storm(storm_only);
  const double storm_s = seconds_since(t0);
  storm_layers(r, storm_s, l);

  t0 = Clock::now();
  const auto sched = fabric::storm::StormSchedule::draw(cfg);
  l["fabric.draw_s"] = seconds_since(t0);

  t0 = Clock::now();
  const fabric::TrafficReport t = fabric::run_traffic_phase(cfg, sched);
  const double traffic_s = seconds_since(t0);

  fabric::ScaleConfig fluid_only = cfg;
  fluid_only.traffic.dcqcn = false;
  t0 = Clock::now();
  const fabric::TrafficReport fluid =
      fabric::run_traffic_phase(fluid_only, sched);
  const double fluid_s = seconds_since(t0);

  tr.wall_s = storm_s + l["fabric.draw_s"] + traffic_s;
  tr.attempted = r.attempted + t.flows + fluid.flows;
  // The split run must reproduce the in-engine traffic report exactly.
  tr.failed = !untimed.output.ends_with(traffic_text(t));
  tr.failed += fluid.flows != t.flows || fluid.total_bytes != t.total_bytes;

  l["net.traffic_s"] = traffic_s;
  l["net.fluid_only_s"] = fluid_s;
  l["dcqcn.s"] = traffic_s - fluid_s;
  l["dcqcn.ecn_marks"] = static_cast<double>(t.ecn_marks);
  l["dcqcn.recoveries"] = static_cast<double>(t.dcqcn_recoveries);
  l["dcqcn.throttled_flows"] = static_cast<double>(t.throttled_flows);
  l["net.spine_crossings"] = static_cast<double>(t.spine_crossings);
  l["net.peak_spine_util"] = t.peak_spine_util;
  l["net.us_per_flow"] = ratio(traffic_s * 1e6, static_cast<double>(t.flows));
  return tr;
}

// ---------------------------------------------------------------------------
// rdma_bw16: ib_write_bw over 16 RC QPs between two MasQ VMs on two hosts.
// The loop mirrors apps::perftest's bw client/server (same spawn order,
// same post/complete sequence), adding a seeded payload that is read back
// from the receiver afterwards, and per-call timers when traced.
// ---------------------------------------------------------------------------

struct RdmaShape {
  int qps;
  int iterations;  // WQEs per QP
  int window;      // outstanding WQEs per QP
  std::uint32_t msg;
};
constexpr RdmaShape kRdmaFull{16, 300, 128, 4096};
constexpr RdmaShape kRdmaSmoke{4, 40, 16, 4096};
constexpr std::uint64_t kRdmaMaxQps = 16;
constexpr std::uint16_t kRdmaPort = 9100;  // perftest's BwConfig default

// masq_perftest's testbed.
fabric::TestbedConfig rdma_testbed_config() {
  fabric::TestbedConfig cfg;
  cfg.candidate = fabric::Candidate::kMasq;
  cfg.cal.host_dram_bytes = 32ull << 30;
  return cfg;
}

// The payload QP q writes, drawn from a stream keyed by (seed, q).
std::vector<std::uint8_t> rdma_payload(std::uint64_t seed, int q,
                                       std::uint32_t len) {
  sim::Rng rng(seed * kRdmaMaxQps + static_cast<std::uint64_t>(q));
  std::vector<std::uint8_t> out(len);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// State the coroutines share; outlives loop.run().
struct RdmaRun {
  RdmaShape shape;
  std::uint64_t seed;
  // Per QP: client coroutine start, connection established (-1: failed),
  // receiver buffer, successful send CQEs.
  std::vector<sim::Time> begin;
  std::vector<sim::Time> ready;
  std::vector<mem::Addr> remote;
  std::vector<std::uint64_t> cqes;
  std::uint64_t payload_bytes = 0;
  sim::Time start = -1;
  sim::Time end = 0;
  sim::Stats* post_ns = nullptr;  // traced: host ns per post_send call

  RdmaRun(RdmaShape s, std::uint64_t sd)
      : shape(s),
        seed(sd),
        begin(s.qps, 0),
        ready(s.qps, -1),
        remote(s.qps, 0),
        cqes(s.qps, 0) {}
};

apps::EndpointOptions rdma_endpoint(const RdmaShape& s) {
  return {.buf_len = s.msg, .max_wr = static_cast<std::uint32_t>(s.window)};
}

sim::Task<void> rdma_server(fabric::Testbed& bed, RdmaRun* run, int q) {
  verbs::Context& ctx = bed.ctx(1);
  apps::Endpoint ep =
      co_await apps::setup_endpoint(ctx, rdma_endpoint(run->shape));
  // Failure shows on the client side, which never sees the connection.
  (void)co_await apps::connect_server(
      ctx, ep, bed.instance_vip(0), static_cast<std::uint16_t>(kRdmaPort + q));
}

sim::Task<void> rdma_client(fabric::Testbed& bed, RdmaRun* run, int q) {
  verbs::Context& ctx = bed.ctx(0);
  const RdmaShape& s = run->shape;
  run->begin[q] = ctx.loop().now();
  apps::Endpoint ep = co_await apps::setup_endpoint(ctx, rdma_endpoint(s));
  ctx.write_buffer(ep.buf, rdma_payload(run->seed, q, s.msg));
  const rnic::Status st = co_await apps::connect_client(
      ctx, ep, bed.instance_vip(1), static_cast<std::uint16_t>(kRdmaPort + q));
  if (st != rnic::Status::kOk) co_return;
  run->ready[q] = ctx.loop().now();
  run->remote[q] = ep.peer.raddr;
  if (run->start < 0) run->start = ctx.loop().now();
  int posted = 0;
  int completed = 0;
  auto post_one = [&] {
    rnic::SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(posted);
    wr.opcode = rnic::WrOpcode::kRdmaWrite;
    wr.sge = {ep.buf, s.msg, ep.mr.lkey};
    wr.remote_addr = ep.peer.raddr;
    wr.rkey = ep.peer.rkey;
    // A refused post yields no CQE, which the CQE count catches.
    if (run->post_ns == nullptr) {
      (void)ctx.post_send(ep.qp, wr);
    } else {
      const auto t0 = Clock::now();
      (void)ctx.post_send(ep.qp, wr);
      run->post_ns->add(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
    ++posted;
  };
  while (posted < s.iterations && posted < s.window) post_one();
  while (completed < s.iterations) {
    const rnic::Completion c = co_await ctx.wait_completion(ep.scq);
    ++completed;
    if (c.status == rnic::WcStatus::kSuccess) ++run->cqes[q];
    run->payload_bytes += s.msg;
    if (posted < s.iterations) post_one();
  }
  run->end = std::max(run->end, ctx.loop().now());
}

// Spawns every pair from one root, in perftest's order.
sim::Task<void> rdma_launch(fabric::Testbed& bed, RdmaRun* run) {
  for (int q = 0; q < run->shape.qps; ++q) {
    bed.loop().spawn(rdma_server(bed, run, q));
    bed.loop().spawn(rdma_client(bed, run, q));
  }
  co_return;
}

double rdma_setup() {
  sim::EventLoop loop;
  const auto t0 = Clock::now();
  fabric::Testbed bed(loop, rdma_testbed_config());
  bed.add_instances(2);
  return seconds_since(t0);
}

// One repeat; with `layers` set, per-call timers run and the data-path and
// control-path layer metrics are filled in.
Repeat rdma_once(const RdmaShape& s, std::uint64_t seed, Values* layers) {
  Repeat rep;
  sim::EventLoop loop;
  fabric::Testbed bed(loop, rdma_testbed_config());
  bed.add_instances(2);

  RdmaRun run(s, seed);
  sim::Stats post_ns;
  if (layers != nullptr) run.post_ns = &post_ns;
  loop.spawn(rdma_launch(bed, &run));
  const auto t0 = Clock::now();
  loop.run();
  rep.wall_s = seconds_since(t0);

  const std::uint64_t wqes = static_cast<std::uint64_t>(s.qps) * s.iterations;
  std::uint64_t ok_wqes = 0;
  std::uint64_t failed_conns = 0;
  std::uint64_t bad_payloads = 0;
  sim::Stats setup_us;
  sim::Time last_ready = 0;
  std::vector<std::uint8_t> got(s.msg);
  for (int q = 0; q < s.qps; ++q) {
    ok_wqes += run.cqes[q];
    append_u64(rep.output, "qp.cqes", run.cqes[q]);
    if (run.ready[q] < 0) {
      ++failed_conns;
      continue;
    }
    setup_us.add(sim::to_us(run.ready[q] - run.begin[q]));
    last_ready = std::max(last_ready, run.ready[q]);
    append(rep.output, "qp.setup_us", sim::to_us(run.ready[q] - run.begin[q]));
    bed.ctx(1).read_buffer(run.remote[q], got);
    bad_payloads += got != rdma_payload(seed, q, s.msg);
  }
  rep.attempted = static_cast<std::uint64_t>(s.qps) + wqes;
  rep.failed = failed_conns + (wqes - ok_wqes) + bad_payloads;
  const double goodput =
      run.end > run.start
          ? static_cast<double>(run.payload_bytes) * 8.0 /
                static_cast<double>(run.end - run.start)
          : 0.0;
  rep.model = {
      {"conn_setup_p50_us", setup_us.empty() ? 0.0 : setup_us.median()},
      {"conn_setup_p99_us",
       setup_us.empty() ? 0.0
                        : tail_or_zero(setup_us.count(), 99.0,
                                       setup_us.percentile(99.0))},
      {"conn_rate_kps",
       ratio(static_cast<double>(setup_us.count()), sim::to_ms(last_ready))},
      {"fct_p50_us", 0.0},
      {"fct_p99_us", 0.0},
      {"fabric_gbps", 0.0},
      {"goodput_gbps", goodput},
      {"fail_ratio", ratio(static_cast<double>(rep.failed),
                           static_cast<double>(rep.attempted))},
      {"conn_setup_n", static_cast<double>(setup_us.count())},
      {"fct_n", 0.0},
  };
  append_u64(rep.output, "payload_bytes", run.payload_bytes);
  append_values(rep.output, rep.model);

  if (layers != nullptr) {
    Values& l = *layers;
    const double events = static_cast<double>(loop.events_executed());
    l["sim.events"] = events;
    l["sim.ns_per_event"] = ratio(rep.wall_s * 1e9, events);
    l["verbs.post_send_ns"] = post_ns.empty() ? 0.0 : post_ns.median();
    l["rnic.wqes"] = static_cast<double>(ok_wqes);
    l["rnic.us_per_wqe"] =
        ratio(rep.wall_s * 1e6, static_cast<double>(ok_wqes));
    // Control path in virtual time, both ends of every connection.
    std::array<sim::Time, verbs::kNumLayers> by_layer{};
    double kicks = 0;
    double interrupts = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      verbs::Context& ctx = bed.ctx(i);
      for (const std::string& verb : ctx.profile().verbs()) {
        for (int k = 0; k < verbs::kNumLayers; ++k) {
          by_layer[k] +=
              ctx.profile().by_layer(verb, static_cast<verbs::Layer>(k));
        }
      }
      if (auto* m = dynamic_cast<masq::MasqContext*>(&ctx)) {
        kicks += static_cast<double>(m->virtqueue().kicks());
        interrupts += static_cast<double>(m->virtqueue().interrupts());
      }
    }
    const double conns = static_cast<double>(s.qps);
    l["ctrl.verbs_lib_us"] = sim::to_us(by_layer[0]) / conns;
    l["ctrl.virtio_us"] = sim::to_us(by_layer[1]) / conns;
    l["ctrl.masq_us"] = sim::to_us(by_layer[2]) / conns;
    l["ctrl.rdma_driver_us"] = sim::to_us(by_layer[3]) / conns;
    l["virtio.kicks_per_conn"] = kicks / conns;
    l["virtio.interrupts_per_conn"] = interrupts / conns;
  }
  return rep;
}

const RdmaShape& rdma_shape(bool smoke) {
  return smoke ? kRdmaSmoke : kRdmaFull;
}

Traced rdma_trace(const RdmaShape& s, std::uint64_t seed,
                  const Repeat& untimed) {
  Traced tr;
  const Repeat again = rdma_once(s, seed, &tr.layers);
  tr.wall_s = again.wall_s;
  tr.attempted = again.attempted;
  tr.failed = again.failed + (again.output != untimed.output);
  return tr;
}

// ---------------------------------------------------------------------------
// Layer microbenches.
// ---------------------------------------------------------------------------

// Host ns per event: no-op callbacks through schedule_at/run, each one
// rescheduling itself so ~4k stay pending, `events` in all.
double event_core_ns_per_event(std::uint64_t events) {
  constexpr sim::Time kPending = 4096;
  struct Tick {
    sim::EventLoop* loop;
    std::uint64_t* fired;
    std::uint64_t total;
    void operator()() const {
      if (++*fired + kPending <= total) {
        loop->schedule_at(loop->now() + kPending, Tick{*this});
      }
    }
  };
  sim::EventLoop loop;
  std::uint64_t fired = 0;
  for (sim::Time i = 0; i < kPending; ++i) {
    loop.schedule_at(i, Tick{&loop, &fired, events});
  }
  const auto t0 = Clock::now();
  loop.run();
  return ratio(seconds_since(t0) * 1e9, static_cast<double>(fired));
}

// Host µs per completed flow: `in_flight` finite 4 KB flows share one link,
// and each completion starts a replacement until `flows` have completed.
double fluid_us_per_event(std::size_t in_flight, std::uint64_t flows) {
  sim::EventLoop loop;
  net::FluidNet net(loop);
  const net::LinkId link = net.add_link(100.0, 0);
  std::uint64_t started = 0;
  std::uint64_t done = 0;
  std::function<void()> start = [&] {
    ++started;
    net.start_flow({link}, 4096, net::kUncapped, [&] {
      ++done;
      // Restart from a fresh event, not from inside the solver's
      // completion sweep.
      if (started < flows) loop.schedule_at(loop.now(), [&start] { start(); });
    });
  };
  for (std::size_t i = 0; i < in_flight; ++i) start();
  const auto t0 = Clock::now();
  loop.run();
  return ratio(seconds_since(t0) * 1e6, static_cast<double>(done));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"storm100k",
       [](std::uint64_t seed, bool smoke) {
         return storm_repeat(storm100k_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke) {
         return storm_setup(storm100k_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke, const Repeat& untimed) {
         return storm_trace(storm100k_config(seed, smoke), untimed);
       }},
      {"churn20k",
       [](std::uint64_t seed, bool smoke) {
         return storm_repeat(churn20k_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke) {
         return storm_setup(churn20k_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke, const Repeat& untimed) {
         return storm_trace(churn20k_config(seed, smoke), untimed);
       }},
      {"fabric_mice",
       [](std::uint64_t seed, bool smoke) {
         return storm_repeat(mice_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke) {
         return storm_setup(mice_config(seed, smoke));
       },
       [](std::uint64_t seed, bool smoke, const Repeat& untimed) {
         return mice_trace(mice_config(seed, smoke), untimed);
       }},
      {"rdma_bw16",
       [](std::uint64_t seed, bool smoke) {
         return rdma_once(rdma_shape(smoke), seed, nullptr);
       },
       [](std::uint64_t, bool) { return rdma_setup(); },
       [](std::uint64_t seed, bool smoke, const Repeat& untimed) {
         return rdma_trace(rdma_shape(smoke), seed, untimed);
       }},
  };
  return kAll;
}

Values layer_microbenches(bool smoke) {
  return {
      {"sim.micro_ns_per_event",
       event_core_ns_per_event(smoke ? 100'000 : 1'000'000)},
      {"net.fluid_us_per_event_128",
       fluid_us_per_event(128, smoke ? 1'280 : 12'800)},
      {"net.fluid_us_per_event_2048",
       fluid_us_per_event(2048, smoke ? 2'048 : 8'192)},
  };
}

bool rdma_loop_matches_perftest() {
  const Repeat ours = rdma_once(kRdmaSmoke, 1, nullptr);
  sim::EventLoop loop;
  fabric::Testbed bed(loop, rdma_testbed_config());
  bed.add_instances(2);
  apps::perftest::BwConfig bc;
  bc.op = apps::perftest::Op::kWrite;
  bc.msg_size = kRdmaSmoke.msg;
  bc.iterations = kRdmaSmoke.iterations;
  bc.window = kRdmaSmoke.window;
  bc.num_qps = kRdmaSmoke.qps;
  bc.port = kRdmaPort;
  const double theirs = apps::perftest::run_bw(bed, bc);
  return ours.failed == 0 && theirs > 0 &&
         ours.model.at("goodput_gbps") == theirs;
}

}  // namespace masq_bench
