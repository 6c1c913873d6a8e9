// Correctness references written in the benchmark itself, apart from the
// program: a plain time-dependent Dijkstra over nav::RoadGraph, and host C++
// evaluations of the mini-C kernel templates the toolflow workload generates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nav/nav.hpp"

namespace perfbench {

/// Earliest arrival (seconds after depart_s) from `from` to `to` under the
/// FIFO congestion profiles; -1 when unreachable. Label-setting Dijkstra on
/// arrival time, no heuristic.
double reference_travel_time_s(const antarex::nav::RoadGraph& g,
                               const antarex::nav::SpeedProfiles& profiles,
                               std::uint32_t from, std::uint32_t to,
                               double depart_s);

/// One generated mini-C application: a kernel template instantiated with
/// seeded constants, plus the entry point `app` that calls it `reps` times.
struct KernelApp {
  int kind = 0;           ///< template index
  int size = 0;           ///< the kernel's trip count argument
  int reps = 0;           ///< calls of the kernel from app()
  double c1 = 0.0, c2 = 0.0;
  int k1 = 0, k2 = 0;
  std::vector<double> data;  ///< the array argument (size + 1 elements)
  std::string source;        ///< mini-C text
};

constexpr int kKernelTemplates = 4;

/// Instantiate template `kind` with constants drawn from the stream.
KernelApp make_kernel_app(int kind, std::uint64_t seed, std::uint64_t index);

/// What app(a, size, reps) returns, computed in host C++.
double host_reference(const KernelApp& app);

}  // namespace perfbench
