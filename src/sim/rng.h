// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic component takes an explicit Rng (or a seed) so that all
// experiments are reproducible; nothing in the code base reads an OS entropy
// source or the wall clock.
#pragma once

#include <cstdint>

namespace sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = -bound % bound;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  // Uniform in [0, 1).
  double next_double();

  // Exponential with the given mean (> 0).
  double next_exponential(double mean);

  // True with probability p (clamped to [0,1]).
  bool next_bool(double p);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace sim
