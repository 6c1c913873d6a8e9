#include <algorithm>
#include <cmath>

#include "common.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: ceil(p/100 * n), 1-based, clamped to [1, n].
  double rank = std::ceil(p / 100.0 * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  return samples[static_cast<std::size_t>(rank) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

WindowedStats windowed(const std::vector<OpSample>& ops, double total_s, int windows) {
  WindowedStats out;
  if (ops.empty() || total_s <= 0.0 || windows < 1) return out;
  const double span = total_s / windows;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(windows));
  for (const OpSample& op : ops) {
    auto k = static_cast<int>(op.end_s / span);
    k = std::clamp(k, 0, windows - 1);
    lat[static_cast<std::size_t>(k)].push_back(op.latency_us);
  }
  std::vector<double> rate, p50, p99;
  for (const auto& w : lat) {
    rate.push_back(static_cast<double>(w.size()) / span);
    if (w.empty()) continue;
    p50.push_back(percentile(w, 50.0));
    p99.push_back(percentile(w, 99.0));
  }
  out.ops_per_s = median(rate);
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  return out;
}

void add_op_metrics(Result& r, const std::vector<OpSample>& ops, double total_s) {
  const WindowedStats w = windowed(ops, total_s, kWindows);
  r.set("ops_per_s", w.ops_per_s, "op/s");
  r.set("op_p50_us", w.p50_us, "us");
  r.set("op_p99_us", w.p99_us, "us");
}

}  // namespace perfbench
