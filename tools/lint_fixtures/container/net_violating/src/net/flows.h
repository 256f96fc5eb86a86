#pragma once

#include <cstdint>
#include <map>

namespace net {

struct Flows {
  std::map<std::uint64_t, double> rates_;
};

}  // namespace net
