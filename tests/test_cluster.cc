#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include "power/energy.h"

namespace ckpt {
namespace {

TEST(Resources, FitsInRespectsBothDimensions) {
  Resources avail{4.0, GiB(8)};
  EXPECT_TRUE((Resources{4.0, GiB(8)}.FitsIn(avail)));
  EXPECT_TRUE((Resources{1.0, GiB(1)}.FitsIn(avail)));
  EXPECT_FALSE((Resources{5.0, GiB(1)}.FitsIn(avail)));
  EXPECT_FALSE((Resources{1.0, GiB(9)}.FitsIn(avail)));
}

TEST(Resources, Arithmetic) {
  Resources a{2.0, GiB(4)};
  Resources b{1.0, GiB(2)};
  const Resources sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpus, 3.0);
  EXPECT_EQ(sum.memory, GiB(6));
  const Resources diff = sum - b;
  EXPECT_DOUBLE_EQ(diff.cpus, a.cpus);
  EXPECT_EQ(diff.memory, a.memory);
}

TEST(Resources, ZeroDetection) {
  EXPECT_TRUE(Resources{}.IsZero());
  EXPECT_FALSE((Resources{0.5, 0}.IsZero()));
}

TEST(PowerModel, LinearInUtilization) {
  PowerModel model{100.0, 300.0};
  EXPECT_DOUBLE_EQ(model.Watts(0.0), 100.0);
  EXPECT_DOUBLE_EQ(model.Watts(1.0), 300.0);
  EXPECT_DOUBLE_EQ(model.Watts(0.5), 200.0);
}

TEST(EnergyMeter, IntegratesOverTime) {
  EnergyMeter meter(PowerModel{100.0, 300.0});
  meter.Add(0.5, Hours(1));  // 200 W for 1 h = 0.2 kWh
  EXPECT_NEAR(meter.kwh(), 0.2, 1e-6);
  meter.AddCores(8.0, 16.0, Hours(1));  // another 0.2 kWh
  EXPECT_NEAR(meter.kwh(), 0.4, 1e-6);
}

TEST(EnergyMeter, OvercommitClampsUtilization) {
  EnergyMeter meter(PowerModel{100.0, 300.0});
  meter.AddCores(32.0, 16.0, Hours(1));
  EXPECT_NEAR(meter.kwh(), 0.3, 1e-6);
}

class NodeTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Node node_{&sim_, NodeId(0), Resources{16.0, GiB(32)},
             StorageMedium::Ssd(), PowerModel{100.0, 300.0}};
};

TEST_F(NodeTest, AllocateReleaseCycle) {
  EXPECT_TRUE(node_.Allocate({8.0, GiB(16)}));
  EXPECT_DOUBLE_EQ(node_.Available().cpus, 8.0);
  EXPECT_FALSE(node_.Allocate({10.0, GiB(1)}));
  node_.Release({8.0, GiB(16)});
  EXPECT_DOUBLE_EQ(node_.Available().cpus, 16.0);
}

TEST_F(NodeTest, EnergyAccruesWithUtilization) {
  ASSERT_TRUE(node_.Allocate({16.0, 0}));  // fully busy
  sim_.ScheduleAt(Hours(1), [] {});
  sim_.Run();
  node_.SyncEnergy();
  EXPECT_NEAR(node_.EnergyKwh(), 0.3, 1e-3);  // 300 W for 1 h
  EXPECT_EQ(node_.BusyCoreTime(), 16 * Hours(1));
}

TEST_F(NodeTest, IdleNodeStillBurnsIdlePower) {
  sim_.ScheduleAt(Hours(2), [] {});
  sim_.Run();
  node_.SyncEnergy();
  EXPECT_NEAR(node_.EnergyKwh(), 0.2, 1e-3);  // 100 W for 2 h
}

}  // namespace
}  // namespace ckpt
