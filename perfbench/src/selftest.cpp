// perfbench --selftest: the benchmark's references and statistics on small
// hand-made inputs whose answers are known, plus a cross-check of each
// reference against the program it will later judge.
#include <cstdio>
#include <string>

#include "cir/parser.hpp"
#include "common.hpp"
#include "nav/nav.hpp"
#include "reference.hpp"
#include "support/rng.hpp"
#include "vm/engine.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol = 1e-12) { return rel_diff(a, b) <= tol; }

void test_statistics() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(hundred, 100.0) == 100.0, "p100 of 1..100 is 100");
  expect(percentile({7.0}, 99.0) == 7.0, "any percentile of one sample is that sample");
  expect(percentile({3.0, 1.0, 2.0}, 50.0) == 2.0, "p50 of {3,1,2} is 2");
  expect(percentile({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0}, 95.0) == 10.0,
         "p95 of 1..10 is 10 (nearest rank 10)");
  expect(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of {4,1,3,2} is 2.5");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "median of {5,1,3} is 3");
  expect(rel_diff(100.0, 99.0) == 0.01, "rel_diff(100, 99) is 0.01");
  expect(rel_diff(0.0, 0.0) == 0.0, "rel_diff(0, 0) is 0");
  // Five 1-s windows: 10 ops of 100 us each, except window 2 (a burst of
  // outside load) with 2 ops of 5000 us. Medians over windows ignore it.
  std::vector<OpSample> ops;
  for (int w = 0; w < 5; ++w) {
    const int n = w == 2 ? 2 : 10;
    for (int i = 0; i < n; ++i)
      ops.push_back({w + (i + 0.5) / n, w == 2 ? 5000.0 : 100.0});
  }
  const WindowedStats ws = windowed(ops, 5.0, 5);
  expect(ws.ops_per_s == 10.0, "windowed throughput is the median window's 10 op/s");
  expect(ws.p50_us == 100.0 && ws.p99_us == 100.0,
         "windowed p50 and p99 ignore the one disturbed window");
}

void test_self_times() {
  // op [0,100) > a:x [10,40) > c:y [20,30);  op > b:y [50,60).
  std::vector<Span> spans(4);
  spans[0] = {"op", "op", 0, 100'000'000, -1, 1};
  spans[1] = {"a", "x", 10'000'000, 40'000'000, 0, 1};
  spans[2] = {"c", "y", 20'000'000, 30'000'000, 1, 1};
  spans[3] = {"b", "y", 50'000'000, 60'000'000, 0, 1};
  const SelfTimes t = self_times({spans});
  expect(near(t.layer_s.at("x"), 0.020), "self time of x is 20 ms");
  expect(near(t.layer_s.at("y"), 0.020), "self time of y is 20 ms");
  expect(near(t.op_s, 0.100), "op time is 100 ms");
  expect(near(t.unaccounted_s, 0.060), "unaccounted time is 60 ms");
}

void test_power_integrator() {
  PowerIntegrator p;
  p(1.0, 100.0, 1.0);
  p(1.5, 200.0, 0.5);
  p(2.5, 50.0, 1.0);
  expect(p.joules == 250.0, "100 W x 1 s + 200 W x 0.5 s + 50 W x 1 s = 250 J");
}

void test_dijkstra() {
  using antarex::nav::RoadGraph;
  const antarex::nav::SpeedProfiles prof;
  // Line 0 -> 1 -> 2: the answer is the two edge times chained at the
  // moment each edge is entered.
  RoadGraph line;
  line.adj.resize(3);
  line.coords = {{0, 0}, {100, 0}, {200, 0}};
  line.adj[0].push_back({1, 1000.0, 10.0, 0});
  line.adj[1].push_back({2, 500.0, 20.0, 2});
  const double depart = 8.5 * 3600.0;
  const double t1 = 1000.0 / (10.0 * prof.multiplier(0, depart));
  const double t2 = 500.0 / (20.0 * prof.multiplier(2, depart + t1));
  expect(near(reference_travel_time_s(line, prof, 0, 2, depart), t1 + t2),
         "line graph: chained edge times at the rush-hour peak");
  expect(reference_travel_time_s(line, prof, 2, 0, depart) == -1.0,
         "line graph: no way back is unreachable");
  // Diamond: 0->1->3 is 2 km, 0->2->3 is 4 km, same road class and speed.
  RoadGraph diamond;
  diamond.adj.resize(4);
  diamond.coords = {{0, 0}, {1, 1}, {1, -1}, {2, 0}};
  diamond.adj[0] = {{1, 1000.0, 10.0, 1}, {2, 2000.0, 10.0, 1}};
  diamond.adj[1] = {{3, 1000.0, 10.0, 1}};
  diamond.adj[2] = {{3, 2000.0, 10.0, 1}};
  const double night = 3.0 * 3600.0;
  const double m0 = prof.multiplier(1, night);
  const double a1 = 1000.0 / (10.0 * m0);
  const double a2 = 1000.0 / (10.0 * prof.multiplier(1, night + a1));
  expect(near(reference_travel_time_s(diamond, prof, 0, 3, night), a1 + a2),
         "diamond graph: the short branch wins");
  // Cross-check against the program's exact search on a small city.
  antarex::Rng rng(7);
  const RoadGraph city = RoadGraph::grid_city(rng, 12, 12);
  int agree = 0;
  for (std::uint32_t k = 0; k < 20; ++k) {
    const std::uint32_t from = (k * 37) % city.num_nodes();
    const std::uint32_t to = (k * 91 + 5) % city.num_nodes();
    if (from == to) {
      ++agree;
      continue;
    }
    const double depart_k = 3600.0 * k;
    const auto route = antarex::nav::shortest_path_td(city, prof, from, to, depart_k,
                                                      {false, 1.0});
    const double ref = reference_travel_time_s(city, prof, from, to, depart_k);
    if ((ref < 0.0 && !route.found()) ||
        (route.found() && near(route.travel_time_s, ref, 1e-9)))
      ++agree;
  }
  expect(agree == 20, "reference Dijkstra agrees with nav::shortest_path_td on 20 pairs");
}

void test_host_kernels() {
  KernelApp a;
  a.kind = 0;
  a.size = 2;
  a.reps = 2;
  a.c1 = 0.5;
  a.c2 = 0.25;
  a.data = {1.0, 2.0, 9.0};
  expect(host_reference(a) == 6.0, "template 0: 2 x ((1*1*0.5+0.25) + (2*2*0.5+0.25)) = 6");
  a.kind = 1;
  a.size = 1;
  a.reps = 1;
  a.k1 = 2;
  a.c1 = 1.0;
  a.c2 = 0.5;
  a.data = {2.0, 0.0};
  expect(host_reference(a) == 1.5, "template 1: p = (0*2+1)*2+1 = 3, times 0.5 = 1.5");
  a.kind = 2;
  a.size = 3;
  a.reps = 2;
  a.k1 = 1;
  a.k2 = 2;
  expect(host_reference(a) == 30.0, "template 2: (2+3+4) + (6+7+8) = 30");
  a.kind = 3;
  a.size = 3;
  a.reps = 1;
  a.c1 = 2.0;
  a.c2 = 0.5;
  a.data = {1.0, 3.0, 2.0, 0.0};
  expect(host_reference(a) == 1.0, "template 3: ((3-1)*2 + (2-3)*2) * 0.5 = 1");
  // Cross-check: the VM runs each generated source to the host value.
  for (int kind = 0; kind < kKernelTemplates; ++kind) {
    const KernelApp app = make_kernel_app(kind, 42, static_cast<std::uint64_t>(kind));
    antarex::vm::Engine engine;
    engine.load_module(*antarex::cir::parse_module(app.source));
    const double got =
        engine
            .call("app", {antarex::vm::Value::from_float_array(
                              std::make_shared<std::vector<double>>(app.data)),
                          antarex::vm::Value::from_int(app.size),
                          antarex::vm::Value::from_int(app.reps)})
            .as_float();
    expect(near(got, host_reference(app), 1e-9),
           "template " + std::to_string(kind) + ": VM result equals the host reference");
  }
}

}  // namespace

int run_selftest() {
  test_statistics();
  test_self_times();
  test_power_integrator();
  test_dijkstra();
  test_host_kernels();
  std::printf("selftest: %s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
