#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.h"

namespace net {

class Wire {
 public:
  std::uint64_t start_flow(std::vector<std::uint32_t> path,
                           std::uint64_t bytes, sim::Callback on_complete);
};

}  // namespace net
