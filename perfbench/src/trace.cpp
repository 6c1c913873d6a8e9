#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common.hpp"

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t Tracer::open(const char* name, const char* layer,
                          std::uint64_t op) {
  if (!enabled()) return -1;
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.layer = layer;
  s.op = op;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.start_ns = to_ns(Clock::now());
  b.spans.push_back(s);
  const auto idx = static_cast<std::int64_t>(b.spans.size()) - 1;
  b.open.push_back(idx);
  return idx;
}

void Tracer::close(std::int64_t handle) {
  if (handle < 0) return;
  ThreadBuffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(handle)].end_ns = to_ns(Clock::now());
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

void Tracer::record(const char* name, const char* layer, Clock::time_point start,
                    Clock::time_point end, std::uint64_t op) {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.layer = layer;
  s.op = op;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.start_ns = to_ns(start);
  s.end_ns = to_ns(end);
  b.spans.push_back(s);
}

std::vector<std::vector<Span>> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::vector<Span>> out;
  for (const auto& b : g_buffers) out.push_back(b->spans);
  return out;
}

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "exec", "rtrm", "govern", "fault", "monitor", "nav",
      "cir",  "dsl",  "passes", "vm",    "tuner",   "bench"};
  return layers;
}

SelfTimes self_times(const std::vector<std::vector<Span>>& per_thread) {
  SelfTimes t;
  for (const auto& spans : per_thread) {
    // Children of one parent run one after another on the same thread, so
    // the part of the parent they cover is the sum of their durations.
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0)
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const double self = std::max(0.0, dur - child_s[i]);
      if (std::string(s.layer) == "op") {
        t.op_s += dur;
        t.unaccounted_s += self;
      } else {
        t.layer_s[s.layer] += self;
      }
    }
  }
  return t;
}

void add_self_time_metrics(Result& r, const SelfTimes& t, std::uint64_t ops) {
  const double per_op = ops > 0 ? 1e6 / static_cast<double>(ops) : 0.0;
  for (const std::string& layer : traced_layers()) {
    const auto it = t.layer_s.find(layer);
    const double s = it == t.layer_s.end() ? 0.0 : it->second;
    r.set("self." + layer + "_us_per_op", s * per_op, "us");
  }
  r.set("self.unaccounted_share", t.op_s > 0.0 ? t.unaccounted_s / t.op_s : 0.0,
        "1");
}

void write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& per_thread,
                 const SelfTimes& table) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "{\"self_time_s\": {");
  bool first = true;
  for (const auto& [layer, s] : table.layer_s) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(), s);
    first = false;
  }
  std::fprintf(f, "}, \"op_s\": %.9f, \"unaccounted_s\": %.9f, \"spans\": [\n",
               table.op_s, table.unaccounted_s);
  first = true;
  for (std::size_t th = 0; th < per_thread.size(); ++th) {
    for (const Span& s : per_thread[th]) {
      std::fprintf(f,
                   "%s{\"thread\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                   "\"op\": %llu}",
                   first ? "" : ",\n", th, s.name, s.layer,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
