#include "net/topology.h"

#include <stdexcept>

namespace net {

std::uint64_t ecmp_hash(const EcmpKey& key) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  };
  mix(key.src_ip, 4);
  mix(key.dst_ip, 4);
  mix(key.src_port, 2);
  mix(key.dst_port, 2);
  mix(key.proto, 1);
  return h;
}

FabricTopology::FabricTopology(FluidNet& net, std::size_t hosts,
                               FabricConfig cfg)
    : cfg_(cfg), hosts_(hosts) {
  if (hosts_ == 0 || cfg_.leaves == 0 || cfg_.spines == 0) {
    throw std::invalid_argument("FabricTopology: empty tier");
  }
  if (cfg_.leaves > hosts_) cfg_.leaves = hosts_;
  hosts_per_leaf_ = (hosts_ + cfg_.leaves - 1) / cfg_.leaves;
  ls_.reserve(cfg_.leaves * cfg_.spines);
  sl_.reserve(cfg_.leaves * cfg_.spines);
  for (std::size_t l = 0; l < cfg_.leaves; ++l) {
    for (std::size_t s = 0; s < cfg_.spines; ++s) {
      ls_.push_back(net.add_link(cfg_.spine_gbps, 0));
      sl_.push_back(net.add_link(cfg_.spine_gbps, 0));
    }
  }
}

std::vector<LinkId> FabricTopology::path(std::size_t src_host,
                                         std::size_t dst_host,
                                         const EcmpKey& key) const {
  if (src_host >= hosts_ || dst_host >= hosts_) {
    throw std::out_of_range("FabricTopology::path: host out of range");
  }
  const std::size_t src_leaf = leaf_of(src_host);
  const std::size_t dst_leaf = leaf_of(dst_host);
  if (src_leaf == dst_leaf) return {};
  const std::size_t spine = spine_for(key);
  return {leaf_to_spine(src_leaf, spine), spine_to_leaf(spine, dst_leaf)};
}

std::vector<LinkId> FabricTopology::spine_links(std::size_t spine) const {
  std::vector<LinkId> out;
  out.reserve(cfg_.leaves * 2);
  for (std::size_t l = 0; l < cfg_.leaves; ++l) {
    out.push_back(leaf_to_spine(l, spine));
    out.push_back(spine_to_leaf(spine, l));
  }
  return out;
}

}  // namespace net
