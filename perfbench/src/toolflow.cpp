// toolflow: a seeded stream of small mini-C applications, each taken through
// the paper's Fig. 1 loop: cir parse -> dsl weave (profile probes, unrolling
// of constant-trip loops) -> passes::IterativeCompiler exploration ->
// tuner::Autotuner with the evolutionary search strategy, evaluating
// configurations on the vm (pass pipeline + dynamic specialization) -> a
// steady run of the tuned program, verified against the untransformed program
// and a host C++ reference.
//
// An op is one application, timed on the worker that runs it from source to
// verified tuned program. Applications run concurrently on the pool through
// a closed loop that keeps 2 x workers of them in flight.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>

#include "cir/parser.hpp"
#include "common.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "exec/pool.hpp"
#include "passes/iterative.hpp"
#include "passes/pass_manager.hpp"
#include "reference.hpp"
#include "rng.hpp"
#include "search/strategy.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace perfbench {

namespace {

using namespace antarex;

/// Apps whose exact work counts are summed (every run completes them).
constexpr u64 kCountedApps = 64;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kBatches = 3;
constexpr int kSteadyCalls = 3;
constexpr u64 kWarmupSeed = 0x5e70;
/// Peak RSS is read when this many apps are done: the toolchain's memory
/// grows with the apps it has processed, so a fixed point keeps the figure
/// independent of how fast the host ran.
constexpr std::size_t kRssApps = 2048;

constexpr const char* kAspects = R"(
  aspectdef ProfileArguments
    input funcName end
    select fCall end
    apply
      insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
    end
    condition $fCall.name == funcName end
  end
  aspectdef UnrollConstantLoops
    input threshold end
    select func{'kernel'}.loop{type=='for'} end
    apply
      do LoopUnroll('full');
    end
    condition $loop.isInnermost && $loop.numIter <= threshold end
  end
  aspectdef UnrollInnermostLoops
    input $func, threshold end
    select $func.loop{type=='for'} end
    apply
      do LoopUnroll('full');
    end
    condition $loop.isInnermost && $loop.numIter <= threshold end
  end
  aspectdef SpecializeKernel
    input lowT, highT end
    call spCall: PrepareSpecialize('kernel','n');
    select fCall{'kernel'}.arg{'n'} end
    apply dynamic
      call spOut : Specialize($fCall, $arg.name, $arg.runtimeValue);
      call UnrollInnermostLoops(spOut.$func, $arg.runtimeValue);
      call AddVersion(spCall, spOut.$func, $arg.runtimeValue);
    end
    condition $arg.runtimeValue >= lowT && $arg.runtimeValue <= highT end
  end
)";

const std::vector<std::string> kExploreSpecs = {"fold", "dce", "strength",
                                                "unroll-partial"};

/// Everything one application reports back.
struct AppOutcome {
  std::string problem;  ///< empty when every check passed
  double latency_us = 0.0;
  double end_s = 0.0;  ///< completion, seconds since the timed loop started
  double parse_us = 0.0, weave_us = 0.0, explore_ms = 0.0;
  double pipeline_us = 0.0, load_us = 0.0, call_us = 0.0;
  double next_batch_us = 0.0, report_batch_us = 0.0;
  u64 pipelines = 0, loads = 0, calls = 0, call_instructions = 0;
  u64 inserts = 0, candidates = 0, make_args_calls = 0, evaluations = 0;
  u64 tuned_instructions = 0, untuned_instructions = 0, versions = 0;
};

struct VmRun {
  double value = 0.0;
  u64 instructions = 0;
};

std::vector<vm::Value> app_args(const KernelApp& app) {
  return {vm::Value::from_float_array(std::make_shared<std::vector<double>>(app.data)),
          vm::Value::from_int(app.size), vm::Value::from_int(app.reps)};
}

/// Load `m` into a fresh engine, optionally arm dynamic specialization for
/// n <= spec_max, and call app() `calls` times; returns the last call.
VmRun run_program(const cir::Module& m, const KernelApp& app, int spec_max,
                  int calls, u64 op, AppOutcome& out) {
  std::unique_ptr<cir::Module> module;
  {
    Scope s("cir.clone", "cir", op);
    module = m.clone();
  }
  vm::Engine engine;
  dsl::ProfileStore store;
  {
    const auto t0 = Clock::now();
    Scope s("vm.load", "vm", op);
    store.install(engine);
    engine.load_module(*module);
    out.load_us += us_between(t0, Clock::now());
    ++out.loads;
  }
  std::unique_ptr<dsl::Weaver> weaver;
  if (spec_max > 0) {
    Scope s("dsl.arm_specialize", "dsl", op);
    weaver = std::make_unique<dsl::Weaver>(*module, &engine);
    weaver->load_source(kAspects);
    weaver->run("SpecializeKernel", {dsl::Val::num(1), dsl::Val::num(spec_max)});
  }
  VmRun last;
  for (int c = 0; c < calls; ++c) {
    engine.reset_instruction_count();
    const auto t0 = Clock::now();
    vm::Value v;
    {
      Scope s("vm.call", "vm", op);
      v = engine.call("app", app_args(app));
    }
    out.call_us += us_between(t0, Clock::now());
    ++out.calls;
    out.call_instructions += engine.executed_instructions();
    last.value = v.as_float();
    last.instructions = engine.executed_instructions();
  }
  out.versions = engine.version_count("kernel");
  return last;
}

/// Take application `index` of the seeded stream from source to verified
/// tuned program. `kind` >= 0 forces the kernel template (set-up warm-up).
AppOutcome run_app(u64 seed, u64 index, Clock::time_point t_start, int kind = -1) {
  AppOutcome out;
  const auto t_app = Clock::now();
  Scope root("app", "op", index);
  InputRng pick = InputRng::stream(seed ^ 0xa995ULL, index);
  const int template_kind = static_cast<int>(pick.below(kKernelTemplates));
  const KernelApp app = make_kernel_app(kind >= 0 ? kind : template_kind, seed, index);

  // 1. cir: parse the functional description.
  std::unique_ptr<cir::Module> module;
  {
    const auto t0 = Clock::now();
    Scope s("cir.parse", "cir", index);
    module = cir::parse_module(app.source);
    out.parse_us = us_between(t0, Clock::now());
  }
  std::unique_ptr<cir::Module> original;
  {
    Scope s("cir.clone", "cir", index);
    original = module->clone();
  }

  // 2. dsl: weave profile probes and unroll constant-trip kernel loops.
  {
    const auto t0 = Clock::now();
    Scope s("dsl.weave", "dsl", index);
    dsl::Weaver weaver(*module, nullptr);
    weaver.load_source(kAspects);
    weaver.run("ProfileArguments", {dsl::Val::str("kernel")});
    weaver.run("UnrollConstantLoops", {dsl::Val::num(8)});
    out.inserts = weaver.stats().inserts;
    out.weave_us = us_between(t0, Clock::now());
  }

  // 3. passes: iterative compilation over pipelines of length <= 2.
  passes::IterativeResult explored;
  {
    passes::Workload w;
    w.entry = "app";
    u64* calls = &out.make_args_calls;
    w.make_args = [&app, calls] {
      ++*calls;
      return app_args(app);
    };
    const auto t0 = Clock::now();
    Scope s("passes.explore", "passes", index);
    passes::IterativeCompiler explorer(kExploreSpecs);
    explored = explorer.explore_exhaustive(*module, w, 2);
    out.explore_ms = us_between(t0, Clock::now()) / 1000.0;
    out.candidates = explored.evaluated.size();
  }
  // The four best pipelines (by instructions, baseline "" first among ties)
  // become one knob of the tuner.
  std::vector<std::string> pipelines = {""};
  {
    std::vector<passes::Candidate> ranked = explored.evaluated;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.instructions < b.instructions; });
    for (const auto& c : ranked) {
      if (pipelines.size() == 4) break;
      if (c.output_matches_baseline) pipelines.push_back(c.pipeline);
    }
    while (pipelines.size() < 4) pipelines.push_back("");
  }

  // 4. tuner + search: evolutionary search over pipeline x specialization.
  tuner::DesignSpace space;
  space.add_knob({"pipeline", {0, 1, 2, 3}});
  space.add_knob({"spec_max", {0, 8, 16, 32, 64}});
  space.add_knob({"strength", {0, 1}});
  space.add_knob({"fold", {0, 1}});
  search::SearchConfig sc;
  sc.bootstrap = 8;
  sc.model_top_k = 4;
  sc.genetic.population = 8;
  sc.seed = seed ^ index;
  sc.genetic.seed = seed ^ (index * 0x9e3779b97f4a7c15ULL);
  tuner::AutotunerConfig tc;
  tc.objective = "instructions";
  // Generation 0 is warm-started with everything on: best explored pipeline,
  // specialization for every size the templates generate, fold, strength.
  auto strategy = std::make_unique<search::SearchStrategy>(sc);
  strategy->warm_start({{1, 4, 1, 1}});
  tuner::Autotuner autotuner(std::move(space), std::move(strategy), tc, seed ^ index);

  auto build = [&](const tuner::Configuration& cfg) {
    const tuner::DesignSpace& sp = autotuner.space();
    std::string pipeline = pipelines[static_cast<std::size_t>(sp.value(cfg, "pipeline"))];
    auto add = [&](const char* spec) {
      if (!pipeline.empty()) pipeline += ",";
      pipeline += spec;
    };
    if (sp.value(cfg, "fold") > 0) add("fold");
    if (sp.value(cfg, "strength") > 0) add("strength");
    std::unique_ptr<cir::Module> m;
    {
      Scope s("cir.clone", "cir", index);
      m = module->clone();
    }
    const auto t0 = Clock::now();
    Scope s("passes.pipeline", "passes", index);
    passes::PassManager pm(*m);
    pm.add_pipeline(pipeline);
    pm.run_all();
    out.pipeline_us += us_between(t0, Clock::now());
    ++out.pipelines;
    return m;
  };

  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<tuner::Configuration> batch;
    {
      const auto t0 = Clock::now();
      Scope s("tuner.next_batch", "tuner", index);
      batch = autotuner.next_batch(kBatch);
      out.next_batch_us += us_between(t0, Clock::now());
    }
    std::vector<std::map<std::string, double>> metrics;
    for (const auto& cfg : batch) {
      const auto m = build(cfg);
      const int spec_max = static_cast<int>(autotuner.space().value(cfg, "spec_max"));
      const VmRun run = run_program(*m, app, spec_max, 1, index, out);
      metrics.push_back({{"instructions", static_cast<double>(run.instructions)}});
      ++out.evaluations;
    }
    const auto t0 = Clock::now();
    Scope s("tuner.report_batch", "tuner", index);
    autotuner.report_batch(metrics);
    out.report_batch_us += us_between(t0, Clock::now());
  }

  // 5. steady run of the tuned program, then verification.
  const auto best = autotuner.best();
  if (!best) {
    out.problem = "the tuner found no configuration";
    return out;
  }
  const auto tuned_module = build(*best);
  const int spec_max = static_cast<int>(autotuner.space().value(*best, "spec_max"));
  const VmRun tuned = run_program(*tuned_module, app, spec_max, kSteadyCalls, index, out);
  const u64 versions = out.versions;
  const VmRun untuned = run_program(*original, app, 0, 1, index, out);
  out.versions = versions;
  double host = 0.0;
  {
    Scope s("bench.reference", "bench", index);
    host = host_reference(app);
  }
  out.tuned_instructions = tuned.instructions;
  out.untuned_instructions = untuned.instructions;
  if (rel_diff(tuned.value, untuned.value) > 1e-9)
    out.problem = "tuned program result differs from the untransformed program";
  else if (rel_diff(tuned.value, host) > 1e-9)
    out.problem = "tuned program result differs from the host C++ reference";
  else if (tuned.instructions > untuned.instructions)
    out.problem = "tuned program executes more VM instructions than the untransformed one";
  const auto t_end = Clock::now();
  out.latency_us = us_between(t_app, t_end);
  out.end_s = seconds_between(t_start, t_end);
  return out;
}

}  // namespace

Result run_toolflow(const Options& opt) {
  Result r;
  // Set-up: the pool, then one warm-up application per kernel template
  // through the whole chain, so lazy initialisation is not timed. The
  // warm-up inputs come from a fixed seed: set-up work does not vary by run.
  std::vector<double> setup_s;
  std::unique_ptr<exec::ThreadPool> pool;
  for (int rep = 0; rep < 9; ++rep) {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<exec::ThreadPool>(opt.workers);
    for (int k = 0; k < kKernelTemplates; ++k) {
      const AppOutcome warm = run_app(kWarmupSeed, static_cast<u64>(k), t0, k);
      r.check(warm.problem.empty(), "warm-up app: " + warm.problem);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Tracer::enable(opt.trace);
  pool->reset_stats();
  const std::size_t window = 2 * static_cast<std::size_t>(opt.workers);
  std::deque<std::future<AppOutcome>> in_flight;
  std::vector<AppOutcome> done;
  u64 next = 0;
  const auto t_start = Clock::now();
  auto more = [&] {
    return next < kCountedApps || seconds_between(t_start, Clock::now()) < opt.seconds;
  };
  while (true) {
    while (in_flight.size() < window && more()) {
      const u64 index = next++;
      in_flight.push_back(pool->async(
          [seed = opt.seed, index, t_start] { return run_app(seed, index, t_start); }));
    }
    if (in_flight.empty()) break;
    done.push_back(in_flight.front().get());
    in_flight.pop_front();
    if (done.size() == kRssApps) r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  }
  const double wall = seconds_between(t_start, Clock::now());
  const exec::PoolStats ps = pool->stats();
  Tracer::enable(false);

  std::vector<OpSample> ops;
  AppOutcome sum;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const AppOutcome& a = done[i];
    if (!a.problem.empty()) {
      r.check(false, "app " + std::to_string(i) + ": " + a.problem);
      continue;
    }
    ops.push_back({a.end_s, a.latency_us});
    sum.parse_us += a.parse_us;
    sum.weave_us += a.weave_us;
    sum.explore_ms += a.explore_ms;
    sum.pipeline_us += a.pipeline_us;
    sum.pipelines += a.pipelines;
    sum.load_us += a.load_us;
    sum.loads += a.loads;
    sum.call_us += a.call_us;
    sum.calls += a.calls;
    sum.call_instructions += a.call_instructions;
    sum.next_batch_us += a.next_batch_us;
    sum.report_batch_us += a.report_batch_us;
    if (i < kCountedApps) {
      sum.inserts += a.inserts;
      sum.candidates += a.candidates;
      sum.make_args_calls += a.make_args_calls;
      sum.evaluations += a.evaluations;
      sum.tuned_instructions += a.tuned_instructions;
      sum.versions += a.versions;
      ratio_sum += static_cast<double>(a.tuned_instructions) /
                   static_cast<double>(a.untuned_instructions);
    }
  }
  const double apps = static_cast<double>(done.size());
  r.attempted = done.size();
  r.failed = 0;
  add_op_metrics(r, ops, wall);
  r.set("setup_s", median(setup_s), "s");

  r.set("exec.tasks", static_cast<double>(ps.tasks) / apps, "1/op");
  r.set("exec.steals", static_cast<double>(ps.steals) / apps, "1/op");
  r.set("exec.inline_runs", static_cast<double>(ps.inline_runs) / apps, "1/op");
  r.set("exec.retries", static_cast<double>(ps.retries) / apps, "1/op");
  r.set("exec.queue_wait_mean_us", ps.mean_queue_wait_s() * 1e6, "us");
  r.set("exec.queue_wait_max_us", ps.queue_wait_max_s * 1e6, "us");
  r.set("exec.imbalance", ps.imbalance(), "1");
  r.set("cir.parse_us", sum.parse_us / apps, "us");
  r.set("dsl.weave_us", sum.weave_us / apps, "us");
  r.set("passes.explore_ms", sum.explore_ms / apps, "ms");
  r.set("passes.pipeline_us", sum.pipeline_us / static_cast<double>(sum.pipelines), "us");
  r.set("vm.load_us", sum.load_us / static_cast<double>(sum.loads), "us");
  r.set("vm.call_us", sum.call_us / static_cast<double>(sum.calls), "us");
  r.set("vm.minstr_per_s", static_cast<double>(sum.call_instructions) / sum.call_us, "Minstr/s");
  r.set("tuner.next_batch_us", sum.next_batch_us / (apps * kBatches), "us");
  r.set("tuner.report_batch_us", sum.report_batch_us / (apps * kBatches), "us");
  const double counted = static_cast<double>(std::min<u64>(kCountedApps, done.size()));
  r.set("tuner.instr_ratio", ratio_sum / counted, "1");
  r.set("vm.versions", static_cast<double>(sum.versions) / counted, "1");
  r.exact_counts["dsl.inserts"] = static_cast<double>(sum.inserts);
  r.exact_counts["passes.candidates"] = static_cast<double>(sum.candidates);
  r.exact_counts["passes.vm_runs_per_candidate"] =
      static_cast<double>(sum.make_args_calls) / static_cast<double>(sum.candidates);
  r.exact_counts["tuner.evaluations"] = static_cast<double>(sum.evaluations);
  r.exact_counts["vm.instructions"] = static_cast<double>(sum.tuned_instructions);

  if (opt.trace) {
    const auto spans = Tracer::collect();
    const SelfTimes st = self_times(spans);
    add_self_time_metrics(r, st, done.size());
    r.set("trace.ops_per_s", windowed(ops, wall, kWindows).ops_per_s, "op/s");
    write_trace(std::string(kOutDir) + "/trace_" + opt.workload + ".json", spans, st);
  }
  pool.reset();
  if (done.size() < kRssApps) r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  return r;
}

}  // namespace perfbench
