// Unit + property tests for network addresses, wire headers and the fluid
// max-min bandwidth model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "net/addr.h"
#include "net/fluid.h"
#include "net/headers.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

using namespace sim::literals;

namespace {

// ---------------------------------------------------------------- addresses

TEST(AddrTest, Ipv4ParseFormatRoundTrip) {
  auto a = net::Ipv4Addr::parse("192.168.1.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "192.168.1.7");
  EXPECT_EQ(a->value, 0xC0A80107u);
  EXPECT_FALSE(net::Ipv4Addr::parse("300.1.1.1").has_value());
  EXPECT_FALSE(net::Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(net::Ipv4Addr::parse("1.2.3.4.5").has_value());
}

TEST(AddrTest, CidrContains) {
  auto c = net::Ipv4Cidr::parse("192.168.1.0/24");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->contains(*net::Ipv4Addr::parse("192.168.1.200")));
  EXPECT_FALSE(c->contains(*net::Ipv4Addr::parse("192.168.2.1")));
  EXPECT_TRUE(net::Ipv4Cidr::any().contains(*net::Ipv4Addr::parse("8.8.8.8")));
  auto host = net::Ipv4Cidr::parse("10.0.0.1");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->prefix_len, 32);
  EXPECT_TRUE(host->contains(*net::Ipv4Addr::parse("10.0.0.1")));
  EXPECT_FALSE(host->contains(*net::Ipv4Addr::parse("10.0.0.2")));
}

TEST(AddrTest, GidFromIpv4RoundTrip) {
  auto ip = *net::Ipv4Addr::parse("172.16.5.9");
  net::Gid g = net::Gid::from_ipv4(ip);
  EXPECT_FALSE(g.is_zero());
  EXPECT_EQ(g.bytes[10], 0xff);
  EXPECT_EQ(g.bytes[11], 0xff);
  auto back = g.to_ipv4();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, ip);
  EXPECT_EQ(g.str(), "::ffff:172.16.5.9");
  EXPECT_TRUE(net::Gid{}.is_zero());
}

TEST(AddrTest, MacFormat) {
  auto m = net::MacAddr::from_u64(0x02000000002aULL);
  EXPECT_EQ(m.str(), "02:00:00:00:00:2a");
}

// ------------------------------------------------------------------ headers

TEST(HeadersTest, RoceFrameWireSize) {
  net::RoceFrame f;
  f.payload_bytes = 1024;
  // 14 + 20 + 8 + 12 + 4 = 58 bytes of native overhead.
  EXPECT_EQ(f.wire_bytes(), 1024u + 58u);
  f.vxlan = true;
  EXPECT_EQ(f.wire_bytes(), 1024u + 58u + 50u);
}

TEST(HeadersTest, NativeFrameHeaderRoundTrip) {
  net::RoceFrame f;
  f.eth.src = net::MacAddr::from_u64(0x020000000001);
  f.eth.dst = net::MacAddr::from_u64(0x020000000002);
  f.ip.src = *net::Ipv4Addr::parse("10.0.0.1");
  f.ip.dst = *net::Ipv4Addr::parse("10.0.0.2");
  f.udp.src_port = 0xC000;
  f.bth.opcode = net::BthOpcode::kRcWriteOnly;
  f.bth.dest_qpn = 0x1234;
  f.bth.psn = 77;
  f.bth.ack_req = true;
  auto bytes = f.serialize_headers();
  ASSERT_EQ(bytes.size(),
            net::kEthHeaderBytes + net::kIpv4HeaderBytes +
                net::kUdpHeaderBytes + net::kBthBytes);
  std::size_t pos = 0;
  auto eth = net::EthHeader::parse(bytes, pos);
  auto ip = net::Ipv4Header::parse(bytes, pos);
  auto udp = net::UdpHeader::parse(bytes, pos);
  auto bth = net::Bth::parse(bytes, pos);
  EXPECT_EQ(eth.src, f.eth.src);
  EXPECT_EQ(eth.dst, f.eth.dst);
  EXPECT_EQ(ip.src, f.ip.src);
  EXPECT_EQ(ip.dst, f.ip.dst);
  EXPECT_EQ(udp.dst_port, net::kRoceV2UdpPort);
  EXPECT_EQ(bth.opcode, net::BthOpcode::kRcWriteOnly);
  EXPECT_EQ(bth.dest_qpn, 0x1234u);
  EXPECT_EQ(bth.psn, 77u);
  EXPECT_TRUE(bth.ack_req);
}

TEST(HeadersTest, VxlanEncapRoundTrip) {
  net::RoceFrame f;
  f.vxlan = true;
  f.vxlan_hdr.vni = 0xBEEF;
  f.outer_ip.src = *net::Ipv4Addr::parse("100.0.0.1");
  f.outer_ip.dst = *net::Ipv4Addr::parse("100.0.0.2");
  f.ip.src = *net::Ipv4Addr::parse("192.168.1.1");  // inner: tenant addrs
  f.ip.dst = *net::Ipv4Addr::parse("192.168.1.2");
  auto bytes = f.serialize_headers();
  std::size_t pos = 0;
  (void)net::EthHeader::parse(bytes, pos);
  auto outer_ip = net::Ipv4Header::parse(bytes, pos);
  auto outer_udp = net::UdpHeader::parse(bytes, pos);
  auto vx = net::VxlanHeader::parse(bytes, pos);
  (void)net::EthHeader::parse(bytes, pos);
  auto inner_ip = net::Ipv4Header::parse(bytes, pos);
  EXPECT_EQ(outer_ip.dst.str(), "100.0.0.2");
  EXPECT_EQ(outer_udp.dst_port, net::kVxlanUdpPort);
  EXPECT_EQ(vx.vni, 0xBEEFu);
  EXPECT_EQ(inner_ip.dst.str(), "192.168.1.2");
}

TEST(HeadersTest, TruncatedParseThrows) {
  std::vector<std::uint8_t> tiny(5, 0);
  std::size_t pos = 0;
  EXPECT_THROW(net::EthHeader::parse(tiny, pos), std::out_of_range);
}

// -------------------------------------------------------------- fluid model

class FluidTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  net::FluidNet net{loop};
};

TEST_F(FluidTest, SingleFlowGetsFullCapacityAndCompletes) {
  auto link = net.add_link(40.0, 1_us);
  bool done = false;
  sim::Time done_at = 0;
  net.start_flow({link}, 5'000'000, net::kUncapped, [&] {
    done = true;
    done_at = loop.now();
  });
  loop.run();
  ASSERT_TRUE(done);
  // 5 MB at 5 B/ns = 1'000'000 ns serialization + 1 us propagation.
  EXPECT_NEAR(static_cast<double>(done_at), 1'001'000.0, 2.0);
}

TEST_F(FluidTest, TwoFlowsShareFairly) {
  auto link = net.add_link(40.0, 0_ns);
  int completed = 0;
  auto f1 = net.start_flow({link}, 1'000'000, net::kUncapped,
                           [&] { ++completed; });
  auto f2 = net.start_flow({link}, 1'000'000, net::kUncapped,
                           [&] { ++completed; });
  EXPECT_NEAR(net.current_rate_gbps(f1), 20.0, 1e-9);
  EXPECT_NEAR(net.current_rate_gbps(f2), 20.0, 1e-9);
  loop.run();
  EXPECT_EQ(completed, 2);
  // Both finish at 1 MB / 2.5 B/ns = 400 us.
  EXPECT_NEAR(sim::to_us(loop.now()), 400.0, 0.01);
}

TEST_F(FluidTest, CapIsRespectedAndSpareGoesToOthers) {
  auto link = net.add_link(40.0, 0_ns);
  auto f1 = net.start_flow({link}, 0, 10.0, nullptr);   // capped at 10G
  auto f2 = net.start_flow({link}, 0, net::kUncapped, nullptr);
  EXPECT_NEAR(net.current_rate_gbps(f1), 10.0, 1e-9);
  EXPECT_NEAR(net.current_rate_gbps(f2), 30.0, 1e-9);
}

TEST_F(FluidTest, CapChangeRedistributes) {
  auto link = net.add_link(40.0, 0_ns);
  auto f1 = net.start_flow({link}, 0, net::kUncapped, nullptr);
  auto f2 = net.start_flow({link}, 0, net::kUncapped, nullptr);
  EXPECT_NEAR(net.current_rate_gbps(f1), 20.0, 1e-9);
  net.set_flow_cap(f1, 5.0);
  EXPECT_NEAR(net.current_rate_gbps(f1), 5.0, 1e-9);
  EXPECT_NEAR(net.current_rate_gbps(f2), 35.0, 1e-9);
  net.set_flow_cap(f1, 0.0);  // blocked (security kill in Fig. 17)
  EXPECT_NEAR(net.current_rate_gbps(f1), 0.0, 1e-9);
  EXPECT_NEAR(net.current_rate_gbps(f2), 40.0, 1e-9);
}

TEST_F(FluidTest, CancelRedistributes) {
  auto link = net.add_link(40.0, 0_ns);
  auto f1 = net.start_flow({link}, 0, net::kUncapped, nullptr);
  auto f2 = net.start_flow({link}, 0, net::kUncapped, nullptr);
  net.cancel_flow(f1);
  EXPECT_FALSE(net.has_flow(f1));
  EXPECT_NEAR(net.current_rate_gbps(f2), 40.0, 1e-9);
}

TEST_F(FluidTest, MultiLinkPathUsesBottleneck) {
  auto fat = net.add_link(100.0, 500_ns);
  auto thin = net.add_link(10.0, 500_ns);
  bool done = false;
  net.start_flow({fat, thin}, 1'250'000, net::kUncapped, [&] { done = true; });
  loop.run();
  ASSERT_TRUE(done);
  // 1.25 MB at 1.25 B/ns = 1 ms, + 1 us total propagation.
  EXPECT_NEAR(sim::to_us(loop.now()), 1001.0, 0.01);
}

TEST_F(FluidTest, EarlierFinishFreesBandwidthForLaterFlow) {
  auto link = net.add_link(40.0, 0_ns);
  sim::Time t1 = 0, t2 = 0;
  net.start_flow({link}, 1'000'000, net::kUncapped, [&] { t1 = loop.now(); });
  net.start_flow({link}, 3'000'000, net::kUncapped, [&] { t2 = loop.now(); });
  loop.run();
  // Phase 1: both at 2.5 B/ns until flow1's 1 MB done at t=400us; flow2 has
  // 2 MB left, now at 5 B/ns -> +400us. Total 800us.
  EXPECT_NEAR(sim::to_us(t1), 400.0, 0.01);
  EXPECT_NEAR(sim::to_us(t2), 800.0, 0.01);
}

TEST_F(FluidTest, UnboundedFlowAccumulatesBytes) {
  auto link = net.add_link(8.0, 0_ns);  // 1 B/ns
  auto f = net.start_flow({link}, 0, net::kUncapped, nullptr);
  loop.run_until(10_us);
  EXPECT_NEAR(static_cast<double>(net.bytes_sent(f)), 10'000.0, 1.0);
  net.cancel_flow(f);
  loop.run();
}

TEST_F(FluidTest, ZeroRateFlowNeverCompletes) {
  auto link = net.add_link(40.0, 0_ns);
  bool done = false;
  auto f = net.start_flow({link}, 1000, 0.0, [&] { done = true; });
  loop.run_until(1_s);
  EXPECT_FALSE(done);
  net.set_flow_cap(f, net::kUncapped);
  loop.run();
  EXPECT_TRUE(done);
}

// Regression: link_load_gbps used to answer 0 for a link that does not
// exist, while link_capacity_gbps threw; both now throw.
TEST_F(FluidTest, LinkLoadOfUnknownLinkThrows) {
  auto link = net.add_link(40.0, 0_ns);
  auto f = net.start_flow({link}, 0, net::kUncapped, nullptr);
  EXPECT_EQ(net.link_load_gbps(link), 40.0);
  EXPECT_THROW(net.link_load_gbps(link + 1), std::out_of_range);
  EXPECT_THROW(net.link_capacity_gbps(link + 1), std::out_of_range);
  net.cancel_flow(f);
  EXPECT_EQ(net.link_load_gbps(link), 0.0);  // no stale cached load
}

// Regression: both capacity checks were comparisons that NaN passes, and a
// NaN link share stalls or skews every flow that crosses the link.
TEST_F(FluidTest, NanCapacityIsRefused) {
  const double nan = std::nan("");
  EXPECT_THROW(net.add_link(nan, 0_ns), std::invalid_argument);
  auto link = net.add_link(40.0, 0_ns);
  EXPECT_THROW(net.set_link_capacity(link, nan), std::invalid_argument);
  EXPECT_EQ(net.link_capacity_gbps(link), 40.0);
}

// Regression: a negative cap was honoured as a negative rate (on one 10G
// link, a flow capped at -5G got -5G and the other 15G), and a NaN cap
// silently meant uncapped. Both are refused, and a refused cap leaves the
// flow as it was.
TEST_F(FluidTest, NegativeOrNanCapIsRefused) {
  auto link = net.add_link(10.0, 0_ns);
  for (const double bad : {-5.0, std::nan("")}) {
    EXPECT_THROW(net.start_flow({link}, 0, bad, nullptr),
                 std::invalid_argument);
  }
  EXPECT_EQ(net.active_flows(), 0u);
  auto a = net.start_flow({link}, 0, 2.5, nullptr);
  auto b = net.start_flow({link}, 0, net::kUncapped, nullptr);
  for (const double bad : {-5.0, std::nan("")}) {
    EXPECT_THROW(net.set_flow_cap(a, bad), std::invalid_argument);
  }
  EXPECT_EQ(net.current_rate_gbps(a), 2.5);
  EXPECT_EQ(net.current_rate_gbps(b), 7.5);
  EXPECT_EQ(net.link_load_gbps(link), 10.0);
}

// Regression: a flow with no links and no cap was accepted at +inf Gbps,
// and a finite one then completed at t = 0 forever (run_until never
// returned). The "empty path and no cap" error in the filling was
// unreachable. Refused now, at start and on uncapping; none of these
// runs the loop.
TEST_F(FluidTest, EmptyPathWithNoCapIsRefused) {
  EXPECT_THROW(net.start_flow({}, 1000, net::kUncapped, nullptr),
               std::invalid_argument);
  EXPECT_THROW(net.start_flow({}, 0, net::kUncapped, nullptr),
               std::invalid_argument);
  EXPECT_EQ(net.active_flows(), 0u);
  auto f = net.start_flow({}, 0, 4.0, nullptr);  // a cap bounds it
  EXPECT_EQ(net.current_rate_gbps(f), 4.0);
  EXPECT_THROW(net.set_flow_cap(f, net::kUncapped), std::invalid_argument);
  EXPECT_EQ(net.current_rate_gbps(f), 4.0);
}

// An infinite link capacity would fill an uncapped flow at +inf, like an
// empty path; refused as NaN is. A capacity set to -0.0 reads +0.0, so
// no bottleneck share is -0.0.
TEST_F(FluidTest, InfiniteCapacityIsRefusedAndZeroIsPositive) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.add_link(inf, 0_ns), std::invalid_argument);
  auto link = net.add_link(40.0, 0_ns);
  EXPECT_THROW(net.set_link_capacity(link, inf), std::invalid_argument);
  EXPECT_EQ(net.link_capacity_gbps(link), 40.0);
  auto f = net.start_flow({link}, 0, net::kUncapped, nullptr);
  net.set_link_capacity(link, -0.0);
  EXPECT_FALSE(std::signbit(net.link_capacity_gbps(link)));
  EXPECT_FALSE(std::signbit(net.current_rate_gbps(f)));
}

// Filling shares can dip by an ulp from one round to the next. Here flow
// a's cap fixes it at round 1's share, and b and c split the rest at a
// share an ulp lower. Raising b's cap to round 1's share must refill, as
// the cap now binds in round 1, even though it is above the share that
// fixed b.
TEST_F(FluidTest, CapAtAnEarlierRoundsShareRefills) {
  auto link = net.add_link(10.0, 0_ns);
  const double round1 = net::bytes_per_ns_to_gbps(
      net::gbps_to_bytes_per_ns(10.0) / 3);
  auto a = net.start_flow({link}, 0, round1, nullptr);
  auto b = net.start_flow({link}, 0, net::kUncapped, nullptr);
  auto c = net.start_flow({link}, 0, net::kUncapped, nullptr);
  ASSERT_LT(net.current_rate_gbps(b), round1);
  net.set_flow_cap(b, round1);

  // The same flows started with their final caps: what a refill gives.
  sim::EventLoop fresh_loop;
  net::FluidNet fresh(fresh_loop);
  auto fresh_link = fresh.add_link(10.0, 0_ns);
  ASSERT_EQ(fresh.start_flow({fresh_link}, 0, round1, nullptr), a);
  ASSERT_EQ(fresh.start_flow({fresh_link}, 0, round1, nullptr), b);
  ASSERT_EQ(fresh.start_flow({fresh_link}, 0, net::kUncapped, nullptr), c);
  for (const net::FlowId id : {a, b, c}) {
    EXPECT_EQ(net.current_rate_gbps(id), fresh.current_rate_gbps(id))
        << "flow " << id;
  }
  EXPECT_EQ(net.current_rate_gbps(b), round1);
}

// Property test: on random topologies the allocation is feasible and
// max-min fair (every flow is either at its cap or bottlenecked on a link
// where it gets at least as much as any other flow).
class FluidPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidPropertyTest, MaxMinInvariantsHold) {
  sim::EventLoop loop;
  net::FluidNet fnet(loop);
  sim::Rng rng(GetParam());

  const int n_links = static_cast<int>(2 + rng.next_below(6));
  std::vector<net::LinkId> links;
  std::vector<double> caps;
  for (int i = 0; i < n_links; ++i) {
    const double cap = 1.0 + static_cast<double>(rng.next_below(40));
    links.push_back(fnet.add_link(cap, 0_ns));
    caps.push_back(cap);
  }
  const int n_flows = static_cast<int>(1 + rng.next_below(12));
  struct FlowInfo {
    net::FlowId id;
    std::vector<net::LinkId> path;
    double cap;
  };
  std::vector<FlowInfo> flows;
  for (int i = 0; i < n_flows; ++i) {
    std::vector<net::LinkId> path;
    const int plen = static_cast<int>(1 + rng.next_below(3));
    for (int j = 0; j < plen; ++j) {
      net::LinkId l = links[rng.next_below(links.size())];
      if (std::find(path.begin(), path.end(), l) == path.end()) {
        path.push_back(l);
      }
    }
    const double cap = rng.next_bool(0.3)
                           ? 1.0 + static_cast<double>(rng.next_below(20))
                           : net::kUncapped;
    auto id = fnet.start_flow(path, 0, cap, nullptr);
    flows.push_back({id, path, cap});
  }

  // Feasibility: per-link sum of rates <= capacity.
  std::vector<double> used(links.size(), 0.0);
  for (const auto& f : flows) {
    const double r = fnet.current_rate_gbps(f.id);
    EXPECT_GE(r, 0.0);
    if (f.cap != net::kUncapped) {
      EXPECT_LE(r, f.cap + 1e-6);
    }
    for (auto l : f.path) used[l] += r;
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_LE(used[i], caps[i] + 1e-6) << "link " << i << " oversubscribed";
  }
  // Max-min: each flow is at its cap or crosses a saturated link where no
  // other flow gets a higher rate.
  for (const auto& f : flows) {
    const double r = fnet.current_rate_gbps(f.id);
    if (f.cap != net::kUncapped && std::abs(r - f.cap) < 1e-6) continue;
    bool bottlenecked = false;
    for (auto l : f.path) {
      if (std::abs(used[l] - caps[l]) < 1e-6) {
        double max_other = 0.0;
        for (const auto& g : flows) {
          if (g.id == f.id) continue;
          if (std::find(g.path.begin(), g.path.end(), l) != g.path.end()) {
            max_other = std::max(max_other, fnet.current_rate_gbps(g.id));
          }
        }
        if (r >= max_other - 1e-6) {
          bottlenecked = true;
          break;
        }
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "flow " << f.id << " rate " << r << " is neither capped nor fair";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FluidPropertyTest,
                         ::testing::Range(1, 25));

}  // namespace
