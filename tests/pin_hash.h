// FNV-1a folds for stream pins: a test folds what a run observably did
// (event count, fault replay log, trace hash) into one 64-bit value and
// compares it with a recorded constant, so a change that moves any bit of
// a pinned stream fails by name.
#pragma once

#include <cstdint>
#include <string_view>

namespace pin {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

// Folds the 8 bytes of `v`, least significant first.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace pin
