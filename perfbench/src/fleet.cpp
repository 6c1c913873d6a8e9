// fleet-scale and fleet-capped: the rtrm::ShardedCluster plant driven one
// tick at a time, with the monitor, fault and govern consumers attached.
//
// An op is one plant tick: the job batch due at that tick (if any) plus one
// ShardedCluster::run_for(dt, dt). Consumer observer time is taken by
// bracketing each consumer between step observers the benchmark adds itself;
// tick time no bracket accounts for is rtrm's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common.hpp"
#include "exec/pool.hpp"
#include "fault/schedule.hpp"
#include "fault/shard_driver.hpp"
#include "govern/sharded_cap.hpp"
#include "monitor/fabric.hpp"
#include "rng.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace perfbench {

namespace {

using namespace antarex;

struct FleetPlan {
  std::size_t nodes = 0;
  std::size_t shards = 16;
  rtrm::ClusterConfig base;
  // Job stream: one batch every batch_period_s simulated seconds; the batch
  // size follows jobs_per_min * (1 + wave_depth * sin(2 pi t / wave_period_s)).
  double batch_period_s = 60.0;
  double jobs_per_min = 0.0;
  double wave_period_s = 600.0;
  double wave_depth = 0.0;
  double units_lo = 2.0, units_hi = 6.0;
  bool accelerator_profiles = false;  ///< jobs may also run on MIC/GPU
  double monitor_period_s = 30.0;
  // Facility cap as a multiple of the fleet's summed node power floors.
  double cap_floor_multiple = 0.0;  ///< 0 = uncapped
  bool faults = false;
  fault::FaultModel fault_model;
  double fault_horizon_s = 0.0;
  std::size_t check_nodes = 256;  ///< reduced fleet for the worker-count check
  double check_s = 300.0;
};

constexpr double kTickS = 1.0;
/// Simulated seconds run before timing starts: thermal transients settle and
/// idle devices park.
constexpr double kWarmupS = 600.0;
/// Exact counts are taken at kWarmupS + kCountWindowS of simulated time.
constexpr double kCountWindowS = 600.0;

/// Bracketing observer: stamps the wall clock each time the plant reaches it.
struct Bracket {
  Clock::time_point at;
};

/// A cluster with its consumers. Heap-allocated and pinned: the consumers
/// and the observers hold references into it.
struct Rig {
  std::unique_ptr<rtrm::ShardedCluster> cluster;
  std::unique_ptr<monitor::MonitorFabric> fabric;
  std::unique_ptr<fault::ShardFaultDriver> faults;
  std::unique_ptr<govern::ShardedCapCoordinator> cap;
  double cap_w = 0.0;
  std::size_t devices = 0;
  // Benchmark-side IT energy integration (independent of the plant's own).
  PowerIntegrator integrated;
  double integrated_from_s = 0.0;
  // Observer brackets, in firing order: 0 before the monitor, 1 after it,
  // 2 after the fault driver, 3 after the cap coordinator.
  Bracket brackets[4];
  bool stamp = false;
  u64 next_job_id = 1;
  u64 submitted = 0;
  double next_batch_s = 0.0;
  u64 batch = 0;  ///< index of the next job batch

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

void add_bracket(Rig& rig, int index) {
  rig.cluster->add_step_observer([&rig, index](double, double, double) {
    if (rig.stamp) rig.brackets[index].at = Clock::now();
  });
}

std::unique_ptr<Rig> build_rig(const FleetPlan& plan, std::size_t nodes,
                               u64 seed, exec::ThreadPool* pool) {
  auto rig = std::make_unique<Rig>();
  rtrm::ShardedClusterConfig cfg;
  cfg.base = plan.base;
  cfg.shards = plan.shards;
  rig->cluster = std::make_unique<rtrm::ShardedCluster>(cfg);
  rtrm::ShardedCluster& c = *rig->cluster;
  rtrm::ClusterBlueprint::exascale(seed, nodes).build(c);
  c.set_pool(pool);
  // Freeze the topology before any consumer attaches (ShardedCapCoordinator
  // cannot attach to a cluster whose shards are not built yet).
  c.run_for(0.0, kTickS);
  for (std::size_t i = 0; i < c.node_count(); ++i)
    rig->devices += c.node_device_count(i);

  Rig* r = rig.get();
  c.add_step_observer([r](double now_s, double it_power_w, double dt_s) {
    r->integrated(now_s, it_power_w, dt_s);
  });
  add_bracket(*rig, 0);
  monitor::FabricConfig fc;
  fc.sample_period_s = plan.monitor_period_s;
  fc.time_self = false;  // the program's own timing stays off
  // Size the broker so a whole sweep fits between drains (the sizing rule of
  // BrokerConfig::queue_capacity): every sample is delivered, none dropped.
  fc.broker.queue_capacity =
      std::max<std::size_t>(fc.broker.queue_capacity, (nodes + fc.shards - 1) / fc.shards);
  rig->fabric = std::make_unique<monitor::MonitorFabric>(fc);
  rig->fabric->attach(c);
  add_bracket(*rig, 1);
  if (plan.faults) {
    rig->faults = std::make_unique<fault::ShardFaultDriver>(
        c, fault::generate_schedule(plan.fault_model, nodes, 2,
                                    plan.fault_horizon_s, seed ^ 0xfa17ULL));
  }
  add_bracket(*rig, 2);
  if (plan.cap_floor_multiple > 0.0) {
    double floor_w = 0.0;
    for (std::size_t i = 0; i < c.node_count(); ++i) floor_w += c.node_floor_w(i);
    govern::ShardedCapConfig gc;
    gc.cluster_cap_w = plan.cap_floor_multiple * floor_w;
    rig->cap_w = gc.cluster_cap_w;
    rig->cap = std::make_unique<govern::ShardedCapCoordinator>(c, gc);
    rig->cap->attach();
  }
  add_bracket(*rig, 3);
  rig->integrated_from_s = c.now_s();
  return rig;
}

/// Submit the job batch due at the current simulated time, if any.
/// Returns true when a batch went in.
bool submit_due_batch(Rig& rig, const FleetPlan& plan, u64 seed,
                      std::size_t nodes) {
  rtrm::ShardedCluster& c = *rig.cluster;
  if (c.now_s() + 1e-9 < rig.next_batch_s) return false;
  InputRng rng = InputRng::stream(seed ^ 0x10b5ULL, rig.batch);
  const double t = c.now_s();
  const double scale = static_cast<double>(nodes) / static_cast<double>(plan.nodes);
  double rate = plan.jobs_per_min * scale * plan.batch_period_s / 60.0;
  if (plan.wave_depth > 0.0)
    rate *= 1.0 + plan.wave_depth *
                      std::sin(2.0 * 3.14159265358979323846 * t / plan.wave_period_s);
  const auto count = static_cast<std::size_t>(rate * rng.uniform(0.75, 1.25) + 0.5);
  for (std::size_t j = 0; j < count; ++j) {
    rtrm::Job job;
    job.id = rig.next_job_id++;
    job.name = "j";
    job.units = rng.uniform(plan.units_lo, plan.units_hi);
    power::WorkloadModel cpu;
    cpu.cpu_gcycles = rng.uniform(30.0, 80.0);
    cpu.cores_used = 12;
    cpu.activity = 0.9;
    cpu.mem_seconds = rng.uniform(0.0, 0.3);
    job.profiles[power::DeviceType::Cpu] = cpu;
    if (plan.accelerator_profiles) {
      power::WorkloadModel gpu = cpu;
      gpu.cpu_gcycles = cpu.cpu_gcycles / 3.4;
      gpu.cores_used = 40;
      gpu.activity = 0.85;
      job.profiles[power::DeviceType::Gpu] = gpu;
      power::WorkloadModel mic = cpu;
      mic.cpu_gcycles = cpu.cpu_gcycles / 2.0;
      mic.cores_used = 60;
      mic.activity = 0.85;
      job.profiles[power::DeviceType::Mic] = mic;
    }
    c.submit(std::move(job));
    ++rig.submitted;
  }
  ++rig.batch;
  rig.next_batch_s = static_cast<double>(rig.batch) * plan.batch_period_s;
  return true;
}

void tick(Rig& rig, const FleetPlan& plan, u64 seed, std::size_t nodes) {
  submit_due_batch(rig, plan, seed, nodes);
  rig.cluster->run_for(kTickS, kTickS);
}

/// Canonical full-precision dump of the plant and its consumers.
std::string state_dump(Rig& rig) {
  rtrm::ShardedCluster& c = *rig.cluster;
  std::string s;
  char buf[160];
  const rtrm::ClusterTelemetry& t = c.telemetry();
  std::snprintf(buf, sizeof buf, "t=%.17g it=%.17g fac=%.17g peak=%.17g max=%.17g\n",
                t.time_s, t.it_energy_j, t.facility_energy_j, t.peak_it_power_w,
                t.max_temperature_c);
  s += buf;
  std::snprintf(buf, sizeof buf, "jobs done=%zu failed=%zu run=%zu queued=%zu steps=%llu full=%llu\n",
                c.dispatcher().completed(), c.dispatcher().failed(),
                c.dispatcher().running(), c.dispatcher().queued(),
                static_cast<unsigned long long>(c.steps()),
                static_cast<unsigned long long>(c.full_device_steps()));
  s += buf;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    std::snprintf(buf, sizeof buf, "n%zu e=%.17g p=%.17g f=%d\n", i,
                  c.node_energy_j(i), c.node_power_w(i), c.node_failed(i) ? 1 : 0);
    s += buf;
    for (std::size_t d = 0; d < c.node_device_count(i); ++d) {
      std::snprintf(buf, sizeof buf, " d%zu T=%.17g op=%zu e=%.17g b=%.17g\n", d,
                    c.device_temperature_c(i, d), c.device_op_index(i, d),
                    c.device_energy_j(i, d), c.device_busy_seconds(i, d));
      s += buf;
    }
  }
  std::snprintf(buf, sizeof buf, "monitor samples=%llu published=%llu episodes=%zu\n",
                static_cast<unsigned long long>(rig.fabric->samples()),
                static_cast<unsigned long long>(rig.fabric->broker().published()),
                rig.fabric->detector().episodes().size());
  s += buf;
  if (rig.faults) {
    for (const std::string& line : rig.faults->log()) s += line + "\n";
  }
  if (rig.cap) {
    const auto& st = rig.cap->stats();
    std::snprintf(buf, sizeof buf, "cap epochs=%llu viol=%llu redis=%llu j=%.17g\n",
                  static_cast<unsigned long long>(st.epochs),
                  static_cast<unsigned long long>(st.violations),
                  static_cast<unsigned long long>(st.redistributions), st.consumed_j);
    s += buf;
  }
  return s;
}

/// Property checks on a finished run.
void check_plant(Rig& rig, Result& r) {
  rtrm::ShardedCluster& c = *rig.cluster;
  double node_sum = 0.0;
  for (std::size_t i = 0; i < c.node_count(); ++i) node_sum += c.node_energy_j(i);
  const double it = c.telemetry().it_energy_j;
  r.check(rel_diff(node_sum, it) <= 1e-9, "node energies do not sum to it_energy_j");
  r.check(rel_diff(rig.integrated.joules, it) <= 1e-9,
          "IT power integrated by the benchmark differs from it_energy_j");
  const auto& d = c.dispatcher();
  r.check(rig.submitted == d.completed() + d.failed() + d.running() + d.queued(),
          "submitted jobs != completed + failed + running + queued");
  const double naive =
      static_cast<double>(rig.devices) * static_cast<double>(c.steps());
  r.check(static_cast<double>(c.full_device_steps()) <= naive,
          "more full device-steps than naive device-steps");
  if (rig.cap) {
    const double duration = c.now_s() - rig.integrated_from_s;
    r.check(rig.integrated.joules <= rig.cap_w * duration * (1.0 + 1e-12),
            "integrated IT energy exceeds cap x duration");
  }
  if (rig.faults) {
    const double now = c.now_s();
    std::size_t due = 0;
    for (const auto& e : rig.faults->schedule().events)
      if (e.at_s <= now + 1e-12) ++due;
    r.check(rig.faults->applied() == due, "a fault event due by now was not applied");
  }
}

Result run_fleet(const FleetPlan& plan, const Options& opt) {
  Result r;
  auto pool = std::make_unique<exec::ThreadPool>(opt.workers);

  // --- set-up, repeated; the last rig is the one measured -------------------
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < 9; ++rep) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = build_rig(plan, plan.nodes, opt.seed, pool.get());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  rtrm::ShardedCluster& c = *rig->cluster;

  // --- warm-up -----------------------------------------------------------------
  while (c.now_s() + 1e-9 < kWarmupS) tick(*rig, plan, opt.seed, plan.nodes);

  // --- timed closed loop ----------------------------------------------------
  Tracer::enable(opt.trace);
  rig->stamp = opt.trace;
  pool->reset_stats();
  const double window_end = kWarmupS + kCountWindowS;
  std::vector<OpSample> ops;
  std::vector<double> rtrm_us, submit_rtrm_us, govern_us;
  double monitor_s = 0.0, fault_s = 0.0, govern_s = 0.0;
  bool counted = false;
  const auto t_start = Clock::now();
  u64 op = 0;
  while (true) {
    const double elapsed = seconds_between(t_start, Clock::now());
    if (elapsed >= opt.seconds && counted) break;
    ++op;
    const auto t0 = Clock::now();
    bool batch = false;
    {
      Scope root("tick", "op", op);
      {
        Scope s("rtrm.submit", "rtrm", op);
        batch = submit_due_batch(*rig, plan, opt.seed, plan.nodes);
      }
      Scope s("rtrm.run_for", "rtrm", op);
      c.run_for(kTickS, kTickS);
      if (opt.trace) {
        const Bracket* b = rig->brackets;
        Tracer::record("monitor.observer", "monitor", b[0].at, b[1].at, op);
        if (rig->faults) Tracer::record("fault.observer", "fault", b[1].at, b[2].at, op);
        if (rig->cap) Tracer::record("govern.observer", "govern", b[2].at, b[3].at, op);
      }
    }
    const auto t1 = Clock::now();
    ops.push_back({seconds_between(t_start, t1), us_between(t0, t1)});
    if (opt.trace) {
      const Bracket* b = rig->brackets;
      const double consumers = us_between(b[0].at, b[3].at);
      const double rt = us_between(t0, t1) - consumers;
      rtrm_us.push_back(rt);
      if (batch) submit_rtrm_us.push_back(rt);
      monitor_s += seconds_between(b[0].at, b[1].at);
      fault_s += seconds_between(b[1].at, b[2].at);
      govern_s += seconds_between(b[2].at, b[3].at);
      govern_us.push_back(us_between(b[2].at, b[3].at));
    }
    if (!counted && c.now_s() + 1e-9 >= window_end) {
      counted = true;
      const u64 steps = c.steps();
      const double naive = static_cast<double>(rig->devices) * static_cast<double>(steps);
      const double full = static_cast<double>(c.full_device_steps());
      r.exact_counts["rtrm.full_device_steps"] = full;
      r.exact_counts["rtrm.jobs_completed"] = static_cast<double>(c.dispatcher().completed());
      r.exact_counts["monitor.samples"] = static_cast<double>(rig->fabric->samples());
      r.exact_counts["monitor.published"] =
          static_cast<double>(rig->fabric->broker().published());
      r.exact_counts["monitor.dropped"] =
          static_cast<double>(rig->fabric->broker().total_dropped());
      r.exact_counts["monitor.episodes"] =
          static_cast<double>(rig->fabric->detector().episodes().size());
      r.set("rtrm.parking_ratio", naive > 0.0 ? full / naive : 0.0, "1");
      // The plant keeps every finished job, so memory grows with simulated
      // time; taken here it does not depend on how fast the host ran.
      r.set("peak_rss_mib", peak_rss_mib(), "MiB");
      if (rig->faults)
        r.exact_counts["fault.events_applied"] = static_cast<double>(rig->faults->applied());
      if (rig->cap) {
        const auto& st = rig->cap->stats();
        r.exact_counts["govern.epochs"] = static_cast<double>(st.epochs);
        r.exact_counts["govern.redistributions"] = static_cast<double>(st.redistributions);
        r.exact_counts["govern.violation_epochs"] = static_cast<double>(st.violations);
      }
    }
  }
  const double wall = seconds_between(t_start, Clock::now());
  const exec::PoolStats ps = pool->stats();
  Tracer::enable(false);
  rig->stamp = false;

  r.attempted = op;
  r.failed = 0;
  add_op_metrics(r, ops, wall);
  r.set("setup_s", median(setup_s), "s");

  const double n_ops = static_cast<double>(op);
  r.set("exec.tasks", static_cast<double>(ps.tasks) / n_ops, "1/op");
  r.set("exec.steals", static_cast<double>(ps.steals) / n_ops, "1/op");
  r.set("exec.inline_runs", static_cast<double>(ps.inline_runs) / n_ops, "1/op");
  r.set("exec.retries", static_cast<double>(ps.retries) / n_ops, "1/op");
  r.set("exec.queue_wait_mean_us", ps.mean_queue_wait_s() * 1e6, "us");
  r.set("exec.queue_wait_max_us", ps.queue_wait_max_s * 1e6, "us");
  r.set("exec.imbalance", ps.imbalance(), "1");
  r.set("rtrm.step_p50_us", percentile(rtrm_us, 50.0), "us");
  r.set("rtrm.step_p99_us", percentile(rtrm_us, 99.0), "us");
  r.set("rtrm.submit_step_p50_us", percentile(submit_rtrm_us, 50.0), "us");
  r.set("rtrm.state_bytes_per_node",
        static_cast<double>(c.approx_state_bytes()) / static_cast<double>(c.node_count()),
        "B");
  r.set("monitor.observer_s", monitor_s, "s");
  if (rig->faults) r.set("fault.observer_s", fault_s, "s");
  if (rig->cap) {
    r.set("govern.observer_s", govern_s, "s");
    r.set("govern.observer_p50_us", percentile(govern_us, 50.0), "us");
  }

  // --- correctness ------------------------------------------------------------
  check_plant(*rig, r);
  if (opt.trace) {
    const auto spans = Tracer::collect();
    const SelfTimes st = self_times(spans);
    add_self_time_metrics(r, st, op);
    r.set("trace.ops_per_s", windowed(ops, wall, kWindows).ops_per_s, "op/s");
    write_trace(std::string(kOutDir) + "/trace_" + opt.workload + ".json", spans, st);
  }
  rig.reset();
  pool.reset();  // the check pools below stay within nproc threads

  // Reduced fleet: byte-identical final state at 1 worker and at N workers.
  std::string dumps[2];
  for (int k = 0; k < 2; ++k) {
    exec::ThreadPool p(k == 0 ? 1 : opt.workers);
    auto small = build_rig(plan, plan.check_nodes, opt.seed, &p);
    while (small->cluster->now_s() + 1e-9 < plan.check_s)
      tick(*small, plan, opt.seed, plan.check_nodes);
    check_plant(*small, r);
    dumps[k] = state_dump(*small);
  }
  r.check(dumps[0] == dumps[1],
          "reduced fleet state differs between 1 worker and the workload's worker count");
  return r;
}

}  // namespace

Result run_fleet_scale(const Options& opt) {
  FleetPlan plan;
  plan.nodes = 100000;
  plan.shards = 24;
  plan.base.control_period_s = 5.0;
  plan.jobs_per_min = 40.0;
  plan.monitor_period_s = 60.0;
  plan.check_nodes = 2048;
  plan.check_s = 900.0;
  return run_fleet(plan, opt);
}

Result run_fleet_capped(const Options& opt) {
  FleetPlan plan;
  plan.nodes = 2048;
  plan.shards = 16;
  plan.base.governor = rtrm::GovernorPolicy::EnergyAware;
  plan.base.placement = rtrm::PlacementPolicy::FastestFirst;
  plan.batch_period_s = 10.0;
  plan.jobs_per_min = 1000.0;
  plan.units_lo = 50.0;
  plan.units_hi = 200.0;
  plan.wave_period_s = 300.0;
  plan.wave_depth = 0.5;
  plan.accelerator_profiles = true;
  plan.monitor_period_s = 10.0;
  plan.cap_floor_multiple = 1.6;
  plan.faults = true;
  plan.fault_model.crash_mtbf_s = 200000.0;
  plan.fault_model.repair_mean_s = 120.0;
  plan.fault_model.glitch_rate_hz = 1e-5;
  plan.fault_model.throttle_rate_hz = 1e-5;
  plan.fault_model.slowdown_rate_hz = 5e-6;
  plan.fault_horizon_s = 6.0 * 3600.0;
  plan.check_nodes = 256;
  plan.check_s = 600.0;
  return run_fleet(plan, opt);
}

}  // namespace perfbench
