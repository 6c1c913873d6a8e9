// perfbench: the ANTAREX stack's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Prints a host fingerprint and a summary, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The full
// record (fingerprint, seed, every metric, exact work counts, problems) goes
// to .bench_out/result_<workload>_seed<n>_trace<t>.json.
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "telemetry/enable.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"ops_per_s", "op/s"},   {"op_p50_us", "us"},      {"op_p99_us", "us"},
      {"setup_s", "s"},        {"peak_rss_mib", "MiB"}};
  return m;
}

/// Every per-layer metric, in output order. A workload that does not touch
/// a layer reports 0 for it.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"exec.tasks", "1/op"},
      {"exec.steals", "1/op"},
      {"exec.inline_runs", "1/op"},
      {"exec.retries", "1/op"},
      {"exec.queue_wait_mean_us", "us"},
      {"exec.queue_wait_max_us", "us"},
      {"exec.imbalance", "1"},
      {"rtrm.step_p50_us", "us"},
      {"rtrm.step_p99_us", "us"},
      {"rtrm.submit_step_p50_us", "us"},
      {"rtrm.full_device_steps", "count"},
      {"rtrm.parking_ratio", "1"},
      {"rtrm.jobs_completed", "count"},
      {"rtrm.state_bytes_per_node", "B"},
      {"govern.observer_p50_us", "us"},
      {"govern.observer_s", "s"},
      {"govern.epochs", "count"},
      {"govern.redistributions", "count"},
      {"govern.violation_epochs", "count"},
      {"fault.observer_s", "s"},
      {"fault.events_applied", "count"},
      {"monitor.observer_s", "s"},
      {"monitor.samples", "count"},
      {"monitor.published", "count"},
      {"monitor.dropped", "count"},
      {"monitor.episodes", "count"},
      {"nav.search_p50_us", "us"},
      {"nav.search_p99_us", "us"},
      {"nav.settled_per_request", "count"},
      {"nav.graph_build_s", "s"},
      {"cir.parse_us", "us"},
      {"dsl.weave_us", "us"},
      {"dsl.inserts", "count"},
      {"passes.explore_ms", "ms"},
      {"passes.candidates", "count"},
      {"passes.pipeline_us", "us"},
      {"passes.vm_runs_per_candidate", "1"},
      {"vm.load_us", "us"},
      {"vm.call_us", "us"},
      {"vm.instructions", "count"},
      {"vm.minstr_per_s", "Minstr/s"},
      {"vm.versions", "1"},
      {"tuner.next_batch_us", "us"},
      {"tuner.report_batch_us", "us"},
      {"tuner.evaluations", "count"},
      {"tuner.instr_ratio", "1"},
  };
  for (const std::string& layer : traced_layers())
    m.push_back({"self." + layer + "_us_per_op", "us"});
  m.push_back({"self.unaccounted_share", "1"});
  m.push_back({"trace.ops_per_s", "op/s"});
  return m;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet-scale|fleet-capped|nav-day|toolflow> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

/// (steal, total) jiffies summed over all CPUs, from /proc/stat: on a
/// virtual machine, the share of CPU time the host gave to someone else.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[10] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (int i = 0; i < 8; ++i) total += v[i];
  return {v[7], total};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string fingerprint_json(const Options& opt, double steal_share) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"workers\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"cpu_model\": \"%s\", \"steal_share\": %.4f}",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.workers,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                json_escape(__VERSION__).c_str(), json_escape(cpu_model()).c_str(),
                steal_share);
  return buf;
}

std::string metrics_json(const Result& r,
                         const std::vector<std::pair<std::string, std::string>>& names) {
  std::string s = "{";
  char buf[256];
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = r.metrics.find(name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.value;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, unit.c_str());
    s += buf;
    first = false;
  }
  return s + "}";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to run an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Options opt;
  // The calling thread plus the pool: no more threads than online CPUs.
  const unsigned hw = std::thread::hardware_concurrency();
  opt.workers = hw > 1 ? static_cast<int>(hw) - 1 : 1;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_trace) usage("--workload and --trace are required");
  ::mkdir(kOutDir, 0755);

  // The program's own runtime telemetry stays off in every run.
  antarex::telemetry::set_enabled(false);

  Result r;
  const auto steal0 = cpu_steal_jiffies();
  try {
    if (opt.workload == "fleet-scale") r = run_fleet_scale(opt);
    else if (opt.workload == "fleet-capped") r = run_fleet_capped(opt);
    else if (opt.workload == "nav-day") r = run_nav_day(opt);
    else if (opt.workload == "toolflow") r = run_toolflow(opt);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& [name, value] : r.exact_counts) r.set(name, value, "count");

  const auto steal1 = cpu_steal_jiffies();
  const double total_jiffies = steal1.second - steal0.second;
  const std::string fp = fingerprint_json(
      opt, total_jiffies > 0.0 ? (steal1.first - steal0.first) / total_jiffies : 0.0);
  std::printf("fingerprint: %s\n", fp.c_str());
  for (const std::string& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::string counts = "{";
  for (const auto& [name, value] : r.exact_counts) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", counts.size() > 1 ? ", " : "",
                  name.c_str(), value);
    counts += buf;
  }
  counts += "}";
  std::printf("exact_counts: %s\n", counts.c_str());

  std::vector<std::pair<std::string, std::string>> all = end_to_end_metrics();
  const auto layers = per_layer_metrics();
  all.insert(all.end(), layers.begin(), layers.end());
  const std::string record_path = std::string(kOutDir) + "/result_" + opt.workload + "_seed" +
                                  std::to_string(opt.seed) + "_trace" +
                                  (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::string problems = "[";
    for (const std::string& p : r.problems)
      problems += (problems.size() > 1 ? ", \"" : "\"") + json_escape(p) + "\"";
    problems += "]";
    std::fprintf(f,
                 "{\"fingerprint\": %s, \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"problems\": %s, \"exact_counts\": %s, "
                 "\"metrics\": %s}\n",
                 fp.c_str(), r.correct ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), problems.c_str(), counts.c_str(),
                 metrics_json(r, all).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r, opt.trace ? layers : end_to_end_metrics()).c_str());
  return 0;
}
