#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace net {

class Wire {
 public:
  // masq-lint: allow(event-callback) test-only shim, never on the hot path
  std::uint64_t start_flow(std::vector<std::uint32_t> path,
                           std::uint64_t bytes,
                           std::function<void()> on_complete);
};

}  // namespace net
