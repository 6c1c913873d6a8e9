// The benchmark's own input generator (SplitMix64), kept apart from the
// program's support/rng so that inputs depend only on --seed and this file.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  /// Independent stream `index` of a root seed.
  static InputRng stream(std::uint64_t seed, std::uint64_t index) {
    InputRng mix(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    return InputRng(mix.next());
  }

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
