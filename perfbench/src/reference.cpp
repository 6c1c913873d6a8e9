#include "reference.hpp"

#include <cstdio>
#include <limits>
#include <queue>

#include "rng.hpp"

namespace perfbench {

double reference_travel_time_s(const antarex::nav::RoadGraph& g,
                               const antarex::nav::SpeedProfiles& profiles,
                               std::uint32_t from, std::uint32_t to,
                               double depart_s) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> arrival(g.num_nodes(), inf);
  std::vector<char> done(g.num_nodes(), 0);
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
  arrival[from] = depart_s;
  open.push({depart_s, from});
  while (!open.empty()) {
    const auto [t, u] = open.top();
    open.pop();
    if (done[u]) continue;
    done[u] = 1;
    if (u == to) return t - depart_s;
    for (const auto& e : g.adj[u]) {
      // Congested speed at the moment of entering the edge (FIFO network).
      const double speed = e.free_speed_mps * profiles.multiplier(e.road_class, t);
      const double at = t + e.length_m / speed;
      if (at < arrival[e.to]) {
        arrival[e.to] = at;
        open.push({at, e.to});
      }
    }
  }
  return -1.0;
}

namespace {

/// Substitute the {C1} {C2} {K1} {K2} placeholders of a template.
std::string instantiate(std::string text, const KernelApp& a) {
  char c1[32], c2[32];
  std::snprintf(c1, sizeof c1, "%.6f", a.c1);
  std::snprintf(c2, sizeof c2, "%.6f", a.c2);
  const std::pair<const char*, std::string> subs[] = {
      {"{C1}", c1}, {"{C2}", c2}, {"{K1}", std::to_string(a.k1)},
      {"{K2}", std::to_string(a.k2)}};
  for (const auto& [key, value] : subs) {
    for (auto pos = text.find(key); pos != std::string::npos; pos = text.find(key))
      text.replace(pos, std::string(key).size(), value);
  }
  return text;
}

// Each template: kernel + app(a, n, reps). Constants are dyadic rationals so
// their six-decimal text parses back to the exact double the host code uses.
constexpr const char* kTemplates[kKernelTemplates] = {
    // 0: scaled sum of squares
    R"(
double kernel(double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) { acc = acc + a[i] * a[i] * {C1} + {C2}; }
  return acc;
}
double app(double* a, int n, int reps) {
  double total = 0.0;
  for (int r = 0; r < reps; r++) { total = total + kernel(a, n); }
  return total;
}
)",
    // 1: polynomial of fixed degree per element (constant inner trip count)
    R"(
double kernel(double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    double x = a[i];
    double p = 0.0;
    for (int j = 0; j < {K1}; j++) { p = p * x + {C1}; }
    acc = acc + p * {C2};
  }
  return acc;
}
double app(double* a, int n, int reps) {
  double total = 0.0;
  for (int r = 0; r < reps; r++) { total = total + kernel(a, n); }
  return total;
}
)",
    // 2: integer arithmetic kernel
    R"(
int kernel(int n, int x) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + x * x - x + i * {K1}; }
  return s;
}
int app(double* a, int n, int reps) {
  int total = 0;
  for (int r = 0; r < reps; r++) { total = total + kernel(n, r + {K2}); }
  return total;
}
)",
    // 3: weighted first differences
    R"(
double kernel(double* a, int n) {
  double s = 0.0;
  for (int i = 1; i < n; i++) { s = s + (a[i] - a[i - 1]) * {C1}; }
  return s * {C2};
}
double app(double* a, int n, int reps) {
  double total = 0.0;
  for (int r = 0; r < reps; r++) { total = total + kernel(a, n); }
  return total;
}
)",
};

}  // namespace

KernelApp make_kernel_app(int kind, std::uint64_t seed, std::uint64_t index) {
  InputRng rng = InputRng::stream(seed ^ 0x7001f10ULL, index);
  KernelApp a;
  a.kind = kind;
  a.size = 8 + static_cast<int>(rng.below(41));   // 8..48
  a.reps = 2 + static_cast<int>(rng.below(3));    // 2..4
  a.c1 = static_cast<double>(8 + rng.below(56)) / 64.0;
  a.c2 = static_cast<double>(1 + rng.below(63)) / 64.0;
  a.k1 = 2 + static_cast<int>(rng.below(5));      // 2..6
  a.k2 = 1 + static_cast<int>(rng.below(9));      // 1..9
  a.data.resize(static_cast<std::size_t>(a.size) + 1);
  for (double& v : a.data) v = static_cast<double>(1 + rng.below(512)) / 256.0;
  a.source = instantiate(kTemplates[kind], a);
  return a;
}

double host_reference(const KernelApp& a) {
  const int n = a.size;
  const std::vector<double>& x = a.data;
  switch (a.kind) {
    case 0: {
      double total = 0.0;
      for (int r = 0; r < a.reps; r++) {
        double acc = 0.0;
        for (int i = 0; i < n; i++) acc = acc + x[i] * x[i] * a.c1 + a.c2;
        total = total + acc;
      }
      return total;
    }
    case 1: {
      double total = 0.0;
      for (int r = 0; r < a.reps; r++) {
        double acc = 0.0;
        for (int i = 0; i < n; i++) {
          double p = 0.0;
          for (int j = 0; j < a.k1; j++) p = p * x[i] + a.c1;
          acc = acc + p * a.c2;
        }
        total = total + acc;
      }
      return total;
    }
    case 2: {
      long long total = 0;
      for (int r = 0; r < a.reps; r++) {
        const long long v = r + a.k2;
        long long s = 0;
        for (int i = 0; i < n; i++) s = s + v * v - v + static_cast<long long>(i) * a.k1;
        total = total + s;
      }
      return static_cast<double>(total);
    }
    default: {
      double total = 0.0;
      for (int r = 0; r < a.reps; r++) {
        double s = 0.0;
        for (int i = 1; i < n; i++) s = s + (x[i] - x[i - 1]) * a.c1;
        total = total + s * a.c2;
      }
      return total;
    }
  }
}

}  // namespace perfbench
