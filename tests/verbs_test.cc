// Unit tests for the verbs layer: kernel-driver cost charging and memory
// pinning, the VF slowdown factor, LayerProfile accounting, and the
// Context wait helpers.
#include <gtest/gtest.h>

#include <memory>

#include "hyp/host.h"
#include "hyp/instance.h"
#include "net/fluid.h"
#include "sim/event_loop.h"
#include "verbs/kernel_driver.h"

using namespace sim::literals;

namespace {

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }

class KernelDriverTest : public ::testing::Test {
 public:
  KernelDriverTest() : fnet_(loop_), host_(loop_, fnet_, "h0", 4ull << 30) {
    rnic::DeviceConfig dc;
    dc.ip = ip("10.0.0.1");
    dev_ = &host_.add_rnic(dc);
  }

  void run(sim::Task<void> t) {
    loop_.spawn(std::move(t));
    loop_.run();
  }

  sim::EventLoop loop_;
  net::FluidNet fnet_;
  hyp::Host host_;
  rnic::RnicDevice* dev_ = nullptr;
};

TEST_F(KernelDriverTest, ChargesCalibratedTimes) {
  verbs::KernelDriver drv(loop_, *dev_, rnic::kPf);
  auto scenario = [](KernelDriverTest* t,
                     verbs::KernelDriver* drv) -> sim::Task<void> {
    const sim::Time t0 = t->loop_.now();
    auto pd = co_await drv->alloc_pd();
    EXPECT_TRUE(pd.ok());
    EXPECT_EQ(t->loop_.now() - t0, drv->costs().alloc_pd);
    const sim::Time t1 = t->loop_.now();
    auto cq = co_await drv->create_cq(200);
    EXPECT_TRUE(cq.ok());
    EXPECT_EQ(t->loop_.now() - t1,
              drv->costs().create_cq_base + drv->costs().create_cq_per_cqe *
                                                static_cast<sim::Time>(200));
  };
  run(scenario(this, &drv));
}

TEST_F(KernelDriverTest, VfFactorScalesControlVerbs) {
  verbs::KernelDriver pf(loop_, *dev_, rnic::kPf);
  verbs::KernelDriver vf(loop_, *dev_, 1);
  auto scenario = [](KernelDriverTest* t, verbs::KernelDriver* pf,
                     verbs::KernelDriver* vf) -> sim::Task<void> {
    sim::Time t0 = t->loop_.now();
    (void)co_await pf->alloc_pd();
    const sim::Time pf_time = t->loop_.now() - t0;
    t0 = t->loop_.now();
    (void)co_await vf->alloc_pd();
    const sim::Time vf_time = t->loop_.now() - t0;
    EXPECT_NEAR(static_cast<double>(vf_time),
                static_cast<double>(pf_time) * pf->costs().vf_factor, 2.0);
  };
  run(scenario(this, &pf, &vf));
}

TEST_F(KernelDriverTest, RegMrPinsWholeChainAndDeregUnpins) {
  hyp::Vm vm(host_, {.mem_bytes = 256ull << 20});
  verbs::KernelDriver drv(loop_, *dev_, rnic::kPf);
  auto scenario = [](hyp::Vm* vm,
                     verbs::KernelDriver* drv) -> sim::Task<void> {
    const mem::Addr gva = vm->alloc_guest_buffer(4 * mem::kPageSize);
    auto pd = co_await drv->alloc_pd();
    auto mr = co_await drv->reg_mr(pd.value, vm->gva(), gva,
                                   4 * mem::kPageSize, rnic::kLocalWrite);
    EXPECT_TRUE(mr.ok());
    if (!mr.ok()) co_return;
    // Pinned at guest level: the page table refuses unmap.
    EXPECT_TRUE(vm->gva().is_pinned(gva));
    EXPECT_THROW(vm->gva().unmap(gva, mem::kPageSize), std::logic_error);
    // Host level pinned too.
    const mem::Addr gpa = vm->gva().translate_or_throw(gva);
    EXPECT_TRUE(vm->gpa().is_pinned(gpa));
    // Deregistration unpins everything.
    EXPECT_EQ(co_await drv->dereg_mr(mr.value.lkey), rnic::Status::kOk);
    EXPECT_FALSE(vm->gva().is_pinned(gva));
    vm->free_guest_buffer(gva, 4 * mem::kPageSize);  // now legal
  };
  run(scenario(&vm, &drv));
}

TEST_F(KernelDriverTest, RegMrRejectsUnmappedRange) {
  verbs::KernelDriver drv(loop_, *dev_, rnic::kPf);
  auto scenario = [](KernelDriverTest* t,
                     verbs::KernelDriver* drv) -> sim::Task<void> {
    auto pd = co_await drv->alloc_pd();
    auto mr = co_await drv->reg_mr(pd.value, t->host_.hva(), 0xdead000, 4096,
                                   rnic::kLocalWrite);
    EXPECT_FALSE(mr.ok());
    EXPECT_EQ(mr.status, rnic::Status::kInvalidArgument);
  };
  run(scenario(this, &drv));
}

TEST_F(KernelDriverTest, ModifyToErrorChargesKernelPlusRnic) {
  verbs::KernelDriver drv(loop_, *dev_, rnic::kPf);
  auto scenario = [](KernelDriverTest* t,
                     verbs::KernelDriver* drv) -> sim::Task<void> {
    auto pd = co_await drv->alloc_pd();
    auto cq = co_await drv->create_cq(16);
    rnic::QpInitAttr init;
    init.pd = pd.value;
    init.send_cq = cq.value;
    init.recv_cq = cq.value;
    auto qp = co_await drv->create_qp(init);
    rnic::QpAttr attr;
    attr.state = rnic::QpState::kInit;
    (void)co_await drv->modify_qp(qp.value, attr, rnic::kAttrState);
    attr.state = rnic::QpState::kError;
    const sim::Time expect =
        drv->costs().modify_error_kernel +
        t->dev_->qp_error_processing_time(qp.value);
    const sim::Time t0 = t->loop_.now();
    (void)co_await drv->modify_qp(qp.value, attr, rnic::kAttrState);
    EXPECT_EQ(t->loop_.now() - t0, expect);
  };
  run(scenario(this, &drv));
}

TEST_F(KernelDriverTest, ProfileAttributesToRdmaDriverLayer) {
  verbs::KernelDriver drv(loop_, *dev_, rnic::kPf);
  verbs::LayerProfile profile;
  drv.set_profile(&profile);
  auto scenario = [](verbs::KernelDriver* drv) -> sim::Task<void> {
    (void)co_await drv->alloc_pd();
    (void)co_await drv->query_gid();
  };
  run(scenario(&drv));
  EXPECT_EQ(profile.by_layer("alloc_pd", verbs::Layer::kRdmaDriver),
            drv.costs().alloc_pd);
  EXPECT_EQ(profile.by_layer("query_gid", verbs::Layer::kRdmaDriver),
            drv.costs().query_gid);
  EXPECT_EQ(profile.by_layer("alloc_pd", verbs::Layer::kVirtio), 0);
  EXPECT_EQ(profile.total("alloc_pd"), drv.costs().alloc_pd);
  EXPECT_EQ(profile.grand_total(),
            drv.costs().alloc_pd + drv.costs().query_gid);
  EXPECT_EQ(profile.verbs().size(), 2u);
}

TEST(LayerProfileTest, AccumulatesAcrossCalls) {
  verbs::LayerProfile p;
  p.add("reg_mr", verbs::Layer::kVerbsLib, 100);
  p.add("reg_mr", verbs::Layer::kVerbsLib, 50);
  p.add("reg_mr", verbs::Layer::kVirtio, 20000);
  EXPECT_EQ(p.by_layer("reg_mr", verbs::Layer::kVerbsLib), 150);
  EXPECT_EQ(p.total("reg_mr"), 20150);
  EXPECT_EQ(p.total("unknown"), 0);
  p.clear();
  EXPECT_EQ(p.grand_total(), 0);
}

}  // namespace
