// Parameterized leaf–spine Clos fabric over the fluid model (DESIGN.md §17).
//
// Hosts attach to leaves in contiguous blocks; every leaf attaches to every
// spine. Each leaf<->spine hop is a unidirectional FluidNet link, so the
// same progressive-filling allocator that shares the NIC links shares every
// fabric link — congestion on one spine link throttles exactly the flows
// crossing it, which is what the multi-hop DCQCN tests pin.
//
// A host's link to its leaf *is* its NIC link: the caller owns one tx and
// one rx link per host and splices path() between them. Inside one leaf
// path() is empty, so a one-leaf fabric is the paper's direct wire
// generalized to H hosts — there is no other wire.
//
// ECMP: a flow's spine is FNV-1a over its 5-tuple, modulo the spine count.
// Spines are enumerated in construction (insertion) order and the hash is a
// pure function of the key bytes, so placement is identical across reruns,
// thread counts, and machines — traces stay replayable.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fluid.h"

namespace net {

struct FabricConfig {
  std::size_t leaves = 1;
  std::size_t spines = 1;
  double spine_gbps = 100.0;  // leaf<->spine link capacity
};

// The 5-tuple ECMP hashes over. RoCEv2 rides UDP, so transports map the
// QPNs into the port fields.
struct EcmpKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 4791;  // RoCEv2
  std::uint8_t proto = 17;        // UDP
};

// FNV-1a over the key's fields in declaration order, least-significant byte
// first, at their declared widths. No struct padding is hashed.
std::uint64_t ecmp_hash(const EcmpKey& key);

class FabricTopology {
 public:
  // Adds the leaf<->spine links to `net` in a fixed order: per leaf
  // (leaf-major) per spine the leaf->spine then the spine->leaf link. That
  // order is the documented ECMP tie-break: spine_for() indexes into it.
  // Leaves beyond `hosts` are dropped; an empty tier throws
  // std::invalid_argument.
  FabricTopology(FluidNet& net, std::size_t hosts, FabricConfig cfg);

  // The effective shape (leaves clamped to the host count).
  const FabricConfig& config() const { return cfg_; }

  // Hosts attach to leaves in contiguous blocks of ceil(hosts/leaves).
  std::size_t leaf_of(std::size_t host) const {
    return host / hosts_per_leaf_;
  }
  std::size_t spine_for(const EcmpKey& key) const {
    return ecmp_hash(key) % cfg_.spines;
  }

  // The fabric links a frame crosses between src_host's tx link and
  // dst_host's rx link: leaf->spine then spine->leaf on the ECMP-chosen
  // spine for inter-leaf pairs, and none inside one leaf.
  std::vector<LinkId> path(std::size_t src_host, std::size_t dst_host,
                           const EcmpKey& key) const;

  LinkId leaf_to_spine(std::size_t leaf, std::size_t spine) const {
    return ls_.at(leaf * cfg_.spines + spine);
  }
  LinkId spine_to_leaf(std::size_t spine, std::size_t leaf) const {
    return sl_.at(leaf * cfg_.spines + spine);
  }

  // Both directions of every leaf<->spine pair on `spine` — the ECN
  // watchpoints for multi-hop congestion assertions, and what an outage
  // zeroes.
  std::vector<LinkId> spine_links(std::size_t spine) const;

 private:
  FabricConfig cfg_;
  std::size_t hosts_ = 0;
  std::size_t hosts_per_leaf_ = 1;
  std::vector<LinkId> ls_;  // leaf -> spine, leaf-major
  std::vector<LinkId> sl_;  // spine -> leaf, leaf-major
};

}  // namespace net
