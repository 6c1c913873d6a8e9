// nav-day: nav::NavServer::serve_concurrent serving a seeded diurnal day of
// requests on a grid city, with a fixed in-flight window and a knob policy
// that mixes exact, epsilon-inflated and k-alternative searches.
//
// An op is one request, timed from admission (the policy callback) to
// delivery (the observer callback). A round serves the whole day; a run
// serves whole days until --seconds have passed.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "exec/pool.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "reference.hpp"
#include "rng.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace antarex;

constexpr int kCityW = 160;
constexpr int kCityH = 160;
constexpr double kBaseRateHz = 0.012;
constexpr double kPeakRateHz = 0.06;
constexpr std::size_t kWindow = 16;
constexpr int kLandmarks = 16;
constexpr std::size_t kReferenceSample = 24;
constexpr std::size_t kReplaySample = 256;

struct City {
  nav::RoadGraph graph;
  nav::SpeedProfiles profiles;
  std::unique_ptr<nav::Landmarks> landmarks;  ///< ALT preprocessing
  std::vector<nav::Request> day;
  std::vector<nav::ServerKnobs> knobs;  ///< the policy's choice per request
  double graph_build_s = 0.0;
};

std::unique_ptr<City> build_city(u64 seed) {
  auto city = std::make_unique<City>();
  const auto t0 = Clock::now();
  Rng graph_rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  city->graph = nav::RoadGraph::grid_city(graph_rng, kCityW, kCityH);
  city->graph_build_s = seconds_between(t0, Clock::now());
  Rng alt_rng(seed * 0x9e3779b97f4a7c15ULL + 13);
  city->landmarks = std::make_unique<nav::Landmarks>(city->graph, kLandmarks, alt_rng);
  Rng req_rng(seed * 0x9e3779b97f4a7c15ULL + 12);
  city->day = nav::diurnal_requests(req_rng, city->graph, 86400.0, kBaseRateHz,
                                    kPeakRateHz);
  // Knob mix per request index: half exact A*, 30% epsilon-inflated, 20%
  // three alternatives (exact), all on the ALT heuristic. Drawn from the
  // benchmark's own generator.
  city->knobs.resize(city->day.size());
  for (std::size_t i = 0; i < city->day.size(); ++i) {
    InputRng rng = InputRng::stream(seed ^ 0x4a5bULL, i);
    const double u = rng.uniform();
    nav::ServerKnobs k;
    k.opts.landmarks = city->landmarks.get();
    if (u < 0.5) {
      k.opts.epsilon = 1.0;
    } else if (u < 0.8) {
      static constexpr double kEps[] = {1.2, 1.5, 2.0};
      k.opts.epsilon = kEps[rng.below(3)];
    } else {
      k.k_routes = 3;
    }
    city->knobs[i] = k;
  }
  return city;
}

}  // namespace

Result run_nav_day(const Options& opt) {
  Result r;
  exec::ThreadPool pool(opt.workers);

  std::vector<double> setup_s, graph_s;
  std::unique_ptr<City> city;
  std::unique_ptr<nav::NavServer> server;
  for (int rep = 0; rep < 9; ++rep) {
    server.reset();
    city.reset();
    const auto t0 = Clock::now();
    city = build_city(opt.seed);
    server = std::make_unique<nav::NavServer>(city->graph, city->profiles, 2e-6,
                                              opt.workers);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    graph_s.push_back(city->graph_build_s);
  }
  const std::size_t n = city->day.size();

  // --- timed closed loop over whole days ------------------------------------
  std::vector<Clock::time_point> admitted(n);
  std::vector<OpSample> ops;
  ops.reserve(n * 16);
  Clock::time_point t_start;
  std::vector<nav::ServedRequest> last_day;
  std::size_t admit_i = 0, deliver_i = 0;
  u64 op_base = 0;
  const nav::NavServer::Policy policy = [&](std::size_t, double) {
    Scope s("nav.policy", "bench", op_base + admit_i);
    admitted[admit_i] = Clock::now();
    return city->knobs[admit_i++];
  };
  const nav::NavServer::Observer observer = [&](const nav::ServedRequest&) {
    Scope s("nav.observer", "bench", op_base + deliver_i);
    const auto now = Clock::now();
    ops.push_back({seconds_between(t_start, now), us_between(admitted[deliver_i++], now)});
  };

  Tracer::enable(opt.trace);
  pool.reset_stats();
  exec::PoolStats stats;
  u64 rounds = 0;
  t_start = Clock::now();
  while (rounds == 0 || seconds_between(t_start, Clock::now()) < opt.seconds) {
    admit_i = deliver_i = 0;
    Scope root("day", "op", op_base);
    nav::ConcurrentServeResult res;
    {
      Scope s("nav.serve_concurrent", "nav", op_base);
      res = server->serve_concurrent(pool, city->day, policy, kWindow, observer);
    }
    // serve_concurrent resets the pool's stats on entry: accumulate per day.
    const exec::PoolStats ps = pool.stats();
    stats.tasks += ps.tasks;
    stats.steals += ps.steals;
    stats.inline_runs += ps.inline_runs;
    stats.retries += ps.retries;
    stats.waited_tasks += ps.waited_tasks;
    stats.queue_wait_total_s += ps.queue_wait_total_s;
    stats.queue_wait_max_s = std::max(stats.queue_wait_max_s, ps.queue_wait_max_s);
    if (stats.worker_busy_s.empty()) stats.worker_busy_s.assign(ps.worker_busy_s.size(), 0.0);
    for (std::size_t w = 0; w < ps.worker_busy_s.size(); ++w)
      stats.worker_busy_s[w] += ps.worker_busy_s[w];
    r.check(admit_i == n && deliver_i == n, "not every request was admitted and delivered");
    if (rounds == 0) last_day = std::move(res.served);
    op_base += n;
    ++rounds;
  }
  const double wall = seconds_between(t_start, Clock::now());
  Tracer::enable(false);

  r.attempted = op_base;
  r.failed = 0;
  add_op_metrics(r, ops, wall);
  r.set("setup_s", median(setup_s), "s");

  const double n_ops = static_cast<double>(op_base);
  r.set("exec.tasks", static_cast<double>(stats.tasks) / n_ops, "1/op");
  r.set("exec.steals", static_cast<double>(stats.steals) / n_ops, "1/op");
  r.set("exec.inline_runs", static_cast<double>(stats.inline_runs) / n_ops, "1/op");
  r.set("exec.retries", static_cast<double>(stats.retries) / n_ops, "1/op");
  r.set("exec.queue_wait_mean_us", stats.mean_queue_wait_s() * 1e6, "us");
  r.set("exec.queue_wait_max_us", stats.queue_wait_max_s * 1e6, "us");
  r.set("exec.imbalance", stats.imbalance(), "1");
  r.set("nav.graph_build_s", median(graph_s), "s");

  // --- correctness -----------------------------------------------------------
  u64 expanded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const nav::ServedRequest& s = last_day[i];
    const nav::ServerKnobs& k = city->knobs[i];
    expanded += s.expanded;
    r.check(!s.shed, "a request was shed");
    const double lo = k.opts.epsilon == 1.0 ? 1.0 : 1.0 / k.opts.epsilon - 1e-12;
    if (s.quality >= lo && s.quality <= 1.0 + 1e-12) continue;
    // Quality 0 marks a pair with no route: the reference must agree.
    const nav::Request& q = city->day[i];
    r.check(s.quality == 0.0 && reference_travel_time_s(city->graph, city->profiles, q.from,
                                                        q.to, q.arrival_s) < 0.0,
            k.opts.epsilon == 1.0 ? "an exact request was served below quality 1"
                                  : "an inflated request was served outside [1/epsilon, 1]");
  }
  r.exact_counts["nav.settled_per_request"] =
      static_cast<double>(expanded) / static_cast<double>(n);
  InputRng pick(opt.seed ^ 0xd1a5ULL);
  for (std::size_t j = 0; j < kReferenceSample; ++j) {
    const nav::Request& q = city->day[pick.below(n)];
    const nav::Route exact =
        nav::shortest_path_td(city->graph, city->profiles, q.from, q.to, q.arrival_s,
                              {true, 1.0, city->landmarks.get()});
    const double ref =
        reference_travel_time_s(city->graph, city->profiles, q.from, q.to, q.arrival_s);
    if (ref < 0.0) {
      r.check(!exact.found(), "the program found a route the reference cannot");
    } else {
      r.check(exact.found() && rel_diff(exact.travel_time_s, ref) <= 1e-9,
              "an exact route differs from the reference Dijkstra");
    }
  }

  // Serial replay of a seeded sample with the knobs the policy chose.
  if (opt.trace) {
    std::vector<double> search_us;
    for (std::size_t j = 0; j < kReplaySample; ++j) {
      const std::size_t i = pick.below(n);
      const nav::Request& q = city->day[i];
      const nav::ServerKnobs& k = city->knobs[i];
      const auto t0 = Clock::now();
      if (k.k_routes == 1) {
        (void)nav::shortest_path_td(city->graph, city->profiles, q.from, q.to,
                                    q.arrival_s, k.opts);
      } else {
        (void)nav::k_alternatives(city->graph, city->profiles, q.from, q.to,
                                  q.arrival_s, k.k_routes, 1.3, k.opts);
      }
      search_us.push_back(us_between(t0, Clock::now()));
    }
    r.set("nav.search_p50_us", percentile(search_us, 50.0), "us");
    r.set("nav.search_p99_us", percentile(search_us, 99.0), "us");
    const auto spans = Tracer::collect();
    const SelfTimes st = self_times(spans);
    add_self_time_metrics(r, st, op_base);
    r.set("trace.ops_per_s", windowed(ops, wall, kWindows).ops_per_s, "op/s");
    write_trace(std::string(kOutDir) + "/trace_" + opt.workload + ".json", spans, st);
  }
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  return r;
}

}  // namespace perfbench
