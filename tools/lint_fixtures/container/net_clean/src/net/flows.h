#pragma once

#include <cstdint>

#include "sim/flat_map.h"

namespace net {

struct Flows {
  sim::FlatMap<std::uint64_t, double> rates_;
};

}  // namespace net
