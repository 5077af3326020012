#include "storage/storage_device.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace ckpt {
namespace {

TEST(Medium, PresetRatiosMatchPaper) {
  const StorageMedium hdd = StorageMedium::Hdd();
  const StorageMedium ssd = StorageMedium::Ssd();
  const StorageMedium nvm = StorageMedium::Nvm();
  // Fig. 2a: SSD 3-4x faster than HDD, NVM 10-15x faster than SSD.
  const double ssd_vs_hdd = ssd.write_bw / hdd.write_bw;
  const double nvm_vs_ssd = nvm.write_bw / ssd.write_bw;
  EXPECT_GE(ssd_vs_hdd, 3.0);
  EXPECT_LE(ssd_vs_hdd, 4.5);
  EXPECT_GE(nvm_vs_ssd, 10.0);
  EXPECT_LE(nvm_vs_ssd, 15.5);
}

TEST(Medium, Table3FullDumpTimes) {
  // Table 3 first-checkpoint column: 5 GB in ~169 s (HDD), ~44 s (SSD),
  // ~2.9 s (PMFS).
  EXPECT_NEAR(ToSeconds(StorageMedium::Hdd().WriteTime(GiB(5))), 169.0, 10.0);
  EXPECT_NEAR(ToSeconds(StorageMedium::Ssd().WriteTime(GiB(5))), 43.7, 4.0);
  EXPECT_NEAR(ToSeconds(StorageMedium::Nvm().WriteTime(GiB(5))), 2.92, 0.4);
}

TEST(Medium, ReadFasterThanWrite) {
  for (MediaKind kind : {MediaKind::kHdd, MediaKind::kSsd, MediaKind::kNvm}) {
    const StorageMedium m = MediumFor(kind);
    EXPECT_GT(m.read_bw, m.write_bw) << m.name;
  }
}

TEST(Medium, WithBandwidthSymmetric) {
  const StorageMedium m = StorageMedium::WithBandwidth("sweep", GBps(3), GiB(64));
  EXPECT_DOUBLE_EQ(m.write_bw, GBps(3));
  EXPECT_DOUBLE_EQ(m.read_bw, GBps(3));
}

class StorageDeviceTest : public ::testing::Test {
 protected:
  Simulator sim_;
  StorageDevice device_{&sim_, StorageMedium::WithBandwidth("t", MBps(100), GiB(10)),
                        "test"};
};

TEST_F(StorageDeviceTest, WriteCompletesAfterServiceTime) {
  SimTime done_at = -1;
  device_.SubmitWrite(MiB(100), [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_NEAR(ToSeconds(done_at), 1.048, 0.01);
}

TEST_F(StorageDeviceTest, OperationsAreSerializedFifo) {
  std::vector<int> order;
  SimTime second_done = -1;
  device_.SubmitWrite(MiB(100), [&](bool) { order.push_back(1); });
  device_.SubmitWrite(MiB(100), [&](bool) {
    order.push_back(2);
    second_done = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Second op waits for the first: ~2x one service time.
  EXPECT_NEAR(ToSeconds(second_done), 2.097, 0.02);
}

TEST_F(StorageDeviceTest, QueueDelayReflectsBacklog) {
  EXPECT_EQ(device_.QueueDelay(), 0);
  device_.SubmitWrite(MiB(200), nullptr);
  const SimDuration delay = device_.QueueDelay();
  EXPECT_NEAR(ToSeconds(delay), 2.097, 0.02);
  sim_.Run();
  EXPECT_EQ(device_.QueueDelay(), 0);
}

TEST_F(StorageDeviceTest, TracksBytesAndBusyTime) {
  device_.SubmitWrite(MiB(10), nullptr);
  device_.SubmitRead(MiB(20), nullptr);
  sim_.Run();
  EXPECT_EQ(device_.total_bytes_written(), MiB(10));
  EXPECT_EQ(device_.total_bytes_read(), MiB(20));
  EXPECT_EQ(device_.ops_completed(), 2);
  EXPECT_GT(device_.total_busy_time(), 0);
}

TEST_F(StorageDeviceTest, ReserveEnforcesCapacity) {
  EXPECT_TRUE(device_.Reserve(GiB(6)));
  EXPECT_FALSE(device_.Reserve(GiB(6)));  // over the 10 GiB capacity
  device_.Release(GiB(6));
  EXPECT_TRUE(device_.Reserve(GiB(6)));
  EXPECT_EQ(device_.used(), GiB(6));
  EXPECT_EQ(device_.peak_used(), GiB(6));
}

TEST_F(StorageDeviceTest, EstimatesIgnoreQueueButIncludeLatency) {
  const StorageMedium hdd = StorageMedium::Hdd();
  Simulator sim;
  StorageDevice device(&sim, hdd, "hdd");
  const SimDuration est = device.EstimateWrite(kMiB);
  EXPECT_GE(est, hdd.access_latency);
  device.SubmitWrite(GiB(1), nullptr);
  // Estimate unchanged by backlog; QueueDelay reports it separately.
  EXPECT_EQ(device.EstimateWrite(kMiB), est);
  EXPECT_GT(device.QueueDelay(), 0);
}

TEST(StorageDeviceDeathTest, OverReleaseAborts) {
  Simulator sim;
  StorageDevice device(&sim, StorageMedium::Hdd(), "x");
  ASSERT_TRUE(device.Reserve(kMiB));
  EXPECT_DEATH(device.Release(2 * kMiB), "");
}

}  // namespace
}  // namespace ckpt
