#include "dfs/dfs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"

namespace ckpt {
namespace {

class DfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetworkModel>(&sim_, NetworkConfig{});
    DfsConfig config;
    config.replication = 2;
    dfs_ = std::make_unique<DfsCluster>(&sim_, net_.get(), config);
    for (int i = 0; i < 4; ++i) {
      const NodeId id(i);
      net_->AddNode(id);
      devices_.push_back(std::make_unique<StorageDevice>(
          &sim_, StorageMedium::Ssd(), "dn" + std::to_string(i)));
      dfs_->AddDataNode(id, devices_.back().get());
    }
  }

  bool WriteSync(const std::string& path, Bytes size, NodeId writer) {
    bool ok = false, done = false;
    dfs_->Write(path, size, writer, [&](bool w) {
      ok = w;
      done = true;
    });
    sim_.Run();
    EXPECT_TRUE(done);
    return ok;
  }

  bool ReadSync(const std::string& path, NodeId reader) {
    bool ok = false, done = false;
    dfs_->Read(path, reader, [&](bool r) {
      ok = r;
      done = true;
    });
    sim_.Run();
    EXPECT_TRUE(done);
    return ok;
  }

  Simulator sim_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  std::unique_ptr<DfsCluster> dfs_;
};

TEST_F(DfsTest, WriteThenReadSucceeds) {
  EXPECT_TRUE(WriteSync("/a", MiB(200), NodeId(0)));
  EXPECT_TRUE(dfs_->Exists("/a"));
  EXPECT_EQ(dfs_->FileSize("/a"), MiB(200));
  EXPECT_TRUE(ReadSync("/a", NodeId(0)));
}

TEST_F(DfsTest, DuplicatePathRejected) {
  EXPECT_TRUE(WriteSync("/a", kMiB, NodeId(0)));
  EXPECT_FALSE(WriteSync("/a", kMiB, NodeId(0)));
}

TEST_F(DfsTest, MissingFileReadFails) {
  EXPECT_FALSE(ReadSync("/nope", NodeId(0)));
  EXPECT_EQ(dfs_->FileSize("/nope"), -1);
}

TEST_F(DfsTest, DeleteRemovesFile) {
  EXPECT_TRUE(WriteSync("/a", kMiB, NodeId(0)));
  EXPECT_TRUE(dfs_->Delete("/a"));
  EXPECT_FALSE(dfs_->Exists("/a"));
  EXPECT_FALSE(dfs_->Delete("/a"));
}

TEST_F(DfsTest, WriterHostsFirstReplica) {
  EXPECT_TRUE(WriteSync("/a", MiB(300), NodeId(2)));
  EXPECT_TRUE(dfs_->HasLocalReplica("/a", NodeId(2)));
}

TEST_F(DfsTest, ReplicationStoresCopiesOnDistinctNodes) {
  EXPECT_TRUE(WriteSync("/a", MiB(100), NodeId(0)));
  const FileInfo* info = dfs_->Stat("/a");
  ASSERT_NE(info, nullptr);
  for (const BlockInfo& block : info->blocks) {
    ASSERT_EQ(block.replicas.size(), 2u);
    EXPECT_NE(block.replicas[0], block.replicas[1]);
  }
  // Stored bytes = size x replication.
  EXPECT_EQ(dfs_->total_stored(), 2 * MiB(100));
}

TEST_F(DfsTest, LargeFileSplitsIntoBlocks) {
  EXPECT_TRUE(WriteSync("/big", MiB(300), NodeId(0)));
  const FileInfo* info = dfs_->Stat("/big");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->blocks.size(), 3u);  // 128 + 128 + 44 MiB
  Bytes total = 0;
  for (const BlockInfo& block : info->blocks) total += block.size;
  EXPECT_EQ(total, MiB(300));
}

TEST_F(DfsTest, RemoteReadSlowerThanLocal) {
  EXPECT_TRUE(WriteSync("/a", MiB(256), NodeId(0)));
  // Find a node holding no replica.
  NodeId remote;
  for (int i = 0; i < 4; ++i) {
    if (!dfs_->HasLocalReplica("/a", NodeId(i))) {
      remote = NodeId(i);
      break;
    }
  }
  ASSERT_TRUE(remote.valid());

  const SimTime local_start = sim_.Now();
  EXPECT_TRUE(ReadSync("/a", NodeId(0)));
  const SimDuration local_time = sim_.Now() - local_start;

  const SimTime remote_start = sim_.Now();
  EXPECT_TRUE(ReadSync("/a", remote));
  const SimDuration remote_time = sim_.Now() - remote_start;
  EXPECT_GT(remote_time, local_time);
}

TEST_F(DfsTest, PeakStoredTracksHighWaterMark) {
  EXPECT_TRUE(WriteSync("/a", MiB(100), NodeId(0)));
  EXPECT_TRUE(WriteSync("/b", MiB(50), NodeId(1)));
  const Bytes peak = dfs_->peak_stored();
  EXPECT_EQ(peak, 2 * MiB(150));
  dfs_->Delete("/a");
  EXPECT_EQ(dfs_->total_stored(), 2 * MiB(50));
  EXPECT_EQ(dfs_->peak_stored(), peak);
}

TEST_F(DfsTest, WriteChargesDatanodeDevicesWithProtocolInflation) {
  EXPECT_TRUE(WriteSync("/a", MiB(64), NodeId(0)));
  Bytes written = 0;
  for (const auto& device : devices_) written += device->total_bytes_written();
  // Two replicas, each inflated by the HDFS protocol overhead (checksums,
  // packet framing).
  const auto expected = static_cast<Bytes>(
      2 * static_cast<double>(MiB(64)) * dfs_->config().io_inflation);
  EXPECT_NEAR(static_cast<double>(written), static_cast<double>(expected),
              1024.0);
}

TEST_F(DfsTest, FailedWriteRollsBackAndReportsOnce) {
  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  FaultInjector injector(&sim_, plan);
  for (size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->set_fault_injector(&injector, NodeId(static_cast<int>(i)));
  }
  int calls = 0;
  bool ok = true;
  // 200 MiB = 2 blocks x 2 replicas: several device ops fail, but the file
  // callback must fire exactly once and the namespace roll back fully.
  dfs_->Write("/a", MiB(200), NodeId(0), [&](bool w) {
    ok = w;
    ++calls;
  });
  sim_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(dfs_->Exists("/a"));
  EXPECT_EQ(dfs_->current_stored(), 0);
}

TEST_F(DfsTest, FailedDuplicateWriteLeavesOriginalIntact) {
  EXPECT_TRUE(WriteSync("/a", MiB(100), NodeId(0)));
  const Bytes stored = dfs_->current_stored();
  int calls = 0;
  bool ok = true;
  dfs_->Write("/a", kMiB, NodeId(1), [&](bool w) {
    ok = w;
    ++calls;
  });
  sim_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok);
  EXPECT_EQ(dfs_->FileSize("/a"), MiB(100));
  EXPECT_EQ(dfs_->current_stored(), stored);
}

TEST_F(DfsTest, WriteWithEveryDatanodeDownFailsOnce) {
  for (int i = 0; i < 4; ++i) dfs_->FailDataNode(NodeId(i));
  int calls = 0;
  bool ok = true;
  dfs_->Write("/a", kMiB, NodeId(0), [&](bool w) {
    ok = w;
    ++calls;
  });
  sim_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok);
  EXPECT_EQ(dfs_->current_stored(), 0);
}

TEST_F(DfsTest, FailedDataNodeTriggersRereplication) {
  EXPECT_TRUE(WriteSync("/a", MiB(100), NodeId(0)));
  const FileInfo* info = dfs_->Stat("/a");
  ASSERT_NE(info, nullptr);
  const NodeId victim = info->blocks[0].replicas[1];
  // One replica survives, so nothing is lost outright...
  EXPECT_TRUE(dfs_->FailDataNode(victim).empty());
  EXPECT_FALSE(dfs_->DatanodeLive(victim));
  EXPECT_EQ(dfs_->current_stored(), MiB(100));
  // ...and the background copy restores full replication.
  sim_.Run();
  EXPECT_GE(dfs_->blocks_rereplicated(), 1);
  EXPECT_EQ(dfs_->current_stored(), 2 * MiB(100));
  info = dfs_->Stat("/a");
  ASSERT_NE(info, nullptr);
  for (const BlockInfo& block : info->blocks) {
    EXPECT_EQ(block.replicas.size(), 2u);
    for (NodeId replica : block.replicas) EXPECT_NE(replica, victim);
  }
}

TEST_F(DfsTest, FileLostWhenEveryReplicaDies) {
  EXPECT_TRUE(WriteSync("/a", MiB(64), NodeId(0)));
  const FileInfo* info = dfs_->Stat("/a");
  ASSERT_NE(info, nullptr);
  const NodeId first = info->blocks[0].replicas[0];
  const NodeId second = info->blocks[0].replicas[1];
  EXPECT_TRUE(dfs_->FailDataNode(first).empty());
  // Second failure lands before re-replication kicks in: the file is gone.
  const std::vector<std::string> lost = dfs_->FailDataNode(second);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], "/a");
  EXPECT_EQ(dfs_->files_lost(), 1);
  EXPECT_FALSE(dfs_->Exists("/a"));
  EXPECT_EQ(dfs_->current_stored(), 0);
  sim_.Run();  // the dead file must not be re-replicated
  EXPECT_EQ(dfs_->blocks_rereplicated(), 0);
}

TEST_F(DfsTest, RecoveredDataNodeServesNewWrites) {
  dfs_->FailDataNode(NodeId(3));
  EXPECT_FALSE(dfs_->DatanodeLive(NodeId(3)));
  dfs_->RecoverDataNode(NodeId(3));
  EXPECT_TRUE(dfs_->DatanodeLive(NodeId(3)));
  EXPECT_TRUE(WriteSync("/a", kMiB, NodeId(3)));
  EXPECT_TRUE(dfs_->HasLocalReplica("/a", NodeId(3)));
}

TEST(DfsNoNodes, WriteFailsWithoutDatanodes) {
  Simulator sim;
  NetworkModel net(&sim, NetworkConfig{});
  DfsCluster dfs(&sim, &net, DfsConfig{});
  bool ok = true;
  dfs.Write("/a", kMiB, NodeId(0), [&](bool w) { ok = w; });
  sim.Run();
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace ckpt
