#include "checkpoint/checkpoint_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"

namespace ckpt {
namespace {

// Engine on a 2-node DFS store with NVM devices (fast, so tests are exact
// about structure rather than waiting).
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetworkModel>(&sim_, NetworkConfig{});
    DfsConfig config;
    config.replication = 1;  // keep byte accounting simple
    dfs_ = std::make_unique<DfsCluster>(&sim_, net_.get(), config);
    for (int i = 0; i < 2; ++i) {
      net_->AddNode(NodeId(i));
      devices_.push_back(std::make_unique<StorageDevice>(
          &sim_, StorageMedium::Nvm(), "dn" + std::to_string(i)));
      dfs_->AddDataNode(NodeId(i), devices_.back().get());
    }
    store_ = std::make_unique<DfsStore>(dfs_.get());
    engine_ = std::make_unique<CheckpointEngine>(&sim_, store_.get());
  }

  DumpResult DumpSync(ProcessState& proc, NodeId node, bool incremental) {
    DumpResult out;
    DumpOptions opts;
    opts.incremental = incremental;
    engine_->Dump(proc, node, opts, [&](DumpResult r) { out = r; });
    sim_.Run();
    return out;
  }

  RestoreResult RestoreSync(ProcessState& proc, NodeId node) {
    RestoreResult out;
    engine_->Restore(proc, node, [&](RestoreResult r) { out = r; });
    sim_.Run();
    return out;
  }

  Simulator sim_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  std::unique_ptr<DfsCluster> dfs_;
  std::unique_ptr<DfsStore> store_;
  std::unique_ptr<CheckpointEngine> engine_;
};

TEST_F(EngineTest, FirstDumpWritesFullImagePlusMetadata) {
  ProcessState proc(TaskId(1), MiB(256), kMiB);
  const DumpResult result = DumpSync(proc, NodeId(0), true);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.was_incremental);
  EXPECT_EQ(result.bytes_written, MiB(256) + proc.metadata_bytes);
  EXPECT_TRUE(proc.has_image);
  EXPECT_EQ(proc.dump_count, 1);
  EXPECT_TRUE(proc.memory.tracking_enabled());
  EXPECT_EQ(proc.memory.dirty_pages(), 0);
}

TEST_F(EngineTest, SecondDumpIsIncrementalAndSmall) {
  ProcessState proc(TaskId(1), MiB(256), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  Rng rng(3);
  proc.memory.TouchRandomFraction(0.10, rng);
  const DumpResult second = DumpSync(proc, NodeId(0), true);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.was_incremental);
  EXPECT_LT(second.bytes_written, MiB(256) / 8 + proc.metadata_bytes);
  EXPECT_GT(second.bytes_written, proc.metadata_bytes);
}

TEST_F(EngineTest, IncrementalDisabledDumpsFull) {
  ProcessState proc(TaskId(1), MiB(128), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  Rng rng(3);
  proc.memory.TouchRandomFraction(0.05, rng);
  const DumpResult second = DumpSync(proc, NodeId(0), false);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.was_incremental);
  EXPECT_EQ(second.bytes_written, MiB(128) + proc.metadata_bytes);
}

TEST_F(EngineTest, RestoreReadsBasePlusLayers) {
  ProcessState proc(TaskId(1), MiB(100), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  Rng rng(5);
  proc.memory.TouchRandomFraction(0.10, rng);
  const DumpResult inc = DumpSync(proc, NodeId(0), true);
  ASSERT_TRUE(inc.ok);

  const RestoreResult restore = RestoreSync(proc, NodeId(0));
  ASSERT_TRUE(restore.ok);
  EXPECT_EQ(restore.bytes_read,
            MiB(100) + proc.metadata_bytes + inc.bytes_written);
  EXPECT_TRUE(proc.memory.tracking_enabled());
}

TEST_F(EngineTest, RemoteRestoreFlagged) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  // Find a node with no replica (replication=1, writer-local placement).
  const RestoreResult remote = RestoreSync(proc, NodeId(1));
  ASSERT_TRUE(remote.ok);
  EXPECT_TRUE(remote.was_remote);
}

TEST_F(EngineTest, RestoreWithoutImageFails) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  const RestoreResult result = RestoreSync(proc, NodeId(0));
  EXPECT_FALSE(result.ok);
}

TEST_F(EngineTest, DiscardRemovesStoredImage) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  const ImageId image = proc.image_id;
  engine_->Discard(proc);
  EXPECT_FALSE(proc.has_image);
  EXPECT_FALSE(store_->Exists(image));
}

TEST_F(EngineTest, DumpTimeScalesWithMedia) {
  // Same image, NVM devices here vs an HDD-backed engine elsewhere.
  Simulator hdd_sim;
  NetworkModel hdd_net(&hdd_sim, NetworkConfig{});
  DfsConfig config;
  config.replication = 1;
  DfsCluster hdd_dfs(&hdd_sim, &hdd_net, config);
  hdd_net.AddNode(NodeId(0));
  StorageDevice hdd_device(&hdd_sim, StorageMedium::Hdd(), "hdd");
  hdd_dfs.AddDataNode(NodeId(0), &hdd_device);
  DfsStore hdd_store(&hdd_dfs);
  CheckpointEngine hdd_engine(&hdd_sim, &hdd_store);

  ProcessState fast(TaskId(1), GiB(1), kMiB);
  ProcessState slow(TaskId(2), GiB(1), kMiB);

  const DumpResult nvm = DumpSync(fast, NodeId(0), true);
  DumpResult hdd;
  hdd_engine.Dump(slow, NodeId(0), DumpOptions{},
                  [&](DumpResult r) { hdd = r; });
  hdd_sim.Run();

  ASSERT_TRUE(nvm.ok);
  ASSERT_TRUE(hdd.ok);
  // HDD is ~50x slower than NVM on writes.
  EXPECT_GT(hdd.duration, 20 * nvm.duration);
}

TEST_F(EngineTest, StatsAccumulate) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  Rng rng(3);
  proc.memory.TouchRandomFraction(0.2, rng);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), true).ok);
  ASSERT_TRUE(RestoreSync(proc, NodeId(0)).ok);
  EXPECT_EQ(engine_->dumps_completed(), 2);
  EXPECT_EQ(engine_->incremental_dumps(), 1);
  EXPECT_EQ(engine_->restores_completed(), 1);
  EXPECT_GT(engine_->total_dump_bytes(), 0);
  EXPECT_GT(engine_->total_restore_bytes(), 0);
  EXPECT_GT(engine_->total_dump_time(), 0);
}

// Table 3 reproduction at engine level: 5 GB image, 10% dirtied, across the
// three media. The second (incremental) dump must be about an order of
// magnitude faster than the first.
class Table3Test : public ::testing::TestWithParam<MediaKind> {};

TEST_P(Table3Test, IncrementalDumpOrderOfMagnitudeFaster) {
  Simulator sim;
  NetworkModel net(&sim, NetworkConfig{});
  DfsConfig config;
  config.replication = 1;
  DfsCluster dfs(&sim, &net, config);
  net.AddNode(NodeId(0));
  StorageDevice device(&sim, MediumFor(GetParam()), "d");
  dfs.AddDataNode(NodeId(0), &device);
  DfsStore store(&dfs);
  CheckpointEngine engine(&sim, &store);

  ProcessState proc(TaskId(1), GiB(5), kMiB);
  DumpResult first;
  engine.Dump(proc, NodeId(0), DumpOptions{}, [&](DumpResult r) { first = r; });
  sim.Run();
  ASSERT_TRUE(first.ok);

  Rng rng(11);
  proc.memory.TouchRandomFraction(0.10, rng);
  DumpResult second;
  engine.Dump(proc, NodeId(0), DumpOptions{},
              [&](DumpResult r) { second = r; });
  sim.Run();
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.was_incremental);
  const double speedup = static_cast<double>(first.duration) /
                         static_cast<double>(second.duration);
  EXPECT_GT(speedup, 7.0) << MediaName(GetParam());
  EXPECT_LT(speedup, 16.0) << MediaName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMedia, Table3Test,
                         ::testing::Values(MediaKind::kHdd, MediaKind::kSsd,
                                           MediaKind::kNvm));

}  // namespace
}  // namespace ckpt
