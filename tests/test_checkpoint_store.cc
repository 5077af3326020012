#include "checkpoint/checkpoint_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace ckpt {
namespace {

class LocalStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      devices_.push_back(std::make_unique<StorageDevice>(
          &sim_, StorageMedium::Ssd(), "d" + std::to_string(i)));
      store_.AddNode(NodeId(i), devices_.back().get());
    }
  }

  bool SaveSync(ImageId image, Bytes size, NodeId node) {
    bool ok = false;
    store_.Save(image, size, node, [&](bool s) { ok = s; });
    sim_.Run();
    return ok;
  }

  Simulator sim_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  LocalStore store_;
};

TEST_F(LocalStoreTest, SaveThenLoadOnSameNode) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(64), NodeId(0)));
  EXPECT_TRUE(store_.Exists(img));
  EXPECT_EQ(store_.StoredSize(img), MiB(64));
  bool ok = false;
  store_.Load(img, NodeId(0), [&](bool l) { ok = l; });
  sim_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(LocalStoreTest, RemoteLoadFails) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(64), NodeId(0)));
  bool ok = true;
  store_.Load(img, NodeId(1), [&](bool l) { ok = l; });
  sim_.Run();
  EXPECT_FALSE(ok);  // CRIU's local-only limitation
  EXPECT_FALSE(store_.SupportsRemoteRestore());
}

TEST_F(LocalStoreTest, AppendGrowsImage) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(64), NodeId(0)));
  bool ok = false;
  store_.Append(img, MiB(8), NodeId(0), [&](bool a) { ok = a; });
  sim_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(store_.StoredSize(img), MiB(72));
}

TEST_F(LocalStoreTest, AppendFromOtherNodeFails) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(64), NodeId(0)));
  bool ok = true;
  store_.Append(img, MiB(8), NodeId(1), [&](bool a) { ok = a; });
  sim_.Run();
  EXPECT_FALSE(ok);
}

TEST_F(LocalStoreTest, RemoveReleasesCapacity) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, GiB(1), NodeId(0)));
  EXPECT_EQ(devices_[0]->used(), GiB(1));
  EXPECT_TRUE(store_.Remove(img));
  EXPECT_EQ(devices_[0]->used(), 0);
  EXPECT_FALSE(store_.Exists(img));
}

TEST_F(LocalStoreTest, CapacityOverflowFailsSave) {
  const ImageId image_a = store_.Intern("/a");
  const ImageId image_b = store_.Intern("/b");
  const ImageId image_c = store_.Intern("/c");
  // SSD preset is 120 GiB.
  ASSERT_TRUE(SaveSync(image_a, GiB(100), NodeId(0)));
  EXPECT_FALSE(SaveSync(image_b, GiB(30), NodeId(0)));
  EXPECT_TRUE(SaveSync(image_c, GiB(30), NodeId(1)));  // other node has room
}

TEST_F(LocalStoreTest, IsLocalToMatchesOwner) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, kMiB, NodeId(1)));
  EXPECT_TRUE(store_.IsLocalTo(img, NodeId(1)));
  EXPECT_FALSE(store_.IsLocalTo(img, NodeId(0)));
}

TEST_F(LocalStoreTest, EstimateLoadRemoteIsUnreachable) {
  const ImageId img = store_.Intern("/img");
  ASSERT_TRUE(SaveSync(img, kMiB, NodeId(0)));
  EXPECT_LT(store_.EstimateLoadBytes(kMiB, NodeId(0), true), Seconds(1));
  EXPECT_GE(store_.EstimateLoadBytes(kMiB, NodeId(1), false),
            Simulator::kMaxTime);
}

class DfsStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetworkModel>(&sim_, NetworkConfig{});
    DfsConfig config;
    config.replication = 2;
    dfs_ = std::make_unique<DfsCluster>(&sim_, net_.get(), config);
    for (int i = 0; i < 3; ++i) {
      net_->AddNode(NodeId(i));
      devices_.push_back(std::make_unique<StorageDevice>(
          &sim_, StorageMedium::Ssd(), "dn" + std::to_string(i)));
      dfs_->AddDataNode(NodeId(i), devices_.back().get());
    }
    store_ = std::make_unique<DfsStore>(dfs_.get());
  }

  bool SaveSync(ImageId image, Bytes size, NodeId node) {
    bool ok = false;
    store_->Save(image, size, node, [&](bool s) { ok = s; });
    sim_.Run();
    return ok;
  }

  Simulator sim_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  std::unique_ptr<DfsCluster> dfs_;
  std::unique_ptr<DfsStore> store_;
};

TEST_F(DfsStoreTest, SupportsRemoteRestore) {
  const ImageId img = store_->Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(64), NodeId(0)));
  EXPECT_TRUE(store_->SupportsRemoteRestore());
  bool ok = false;
  store_->Load(img, NodeId(2), [&](bool l) { ok = l; });
  sim_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(DfsStoreTest, AppendCreatesLayersFoldedIntoSizeAndLoad) {
  const ImageId img = store_->Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(100), NodeId(0)));
  bool ok = false;
  store_->Append(img, MiB(10), NodeId(0), [&](bool a) { ok = a; });
  sim_.Run();
  ASSERT_TRUE(ok);
  store_->Append(img, MiB(5), NodeId(1), [&](bool a) { ok = a; });
  sim_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(store_->StoredSize(img), MiB(115));

  bool loaded = false;
  store_->Load(img, NodeId(0), [&](bool l) { loaded = l; });
  sim_.Run();
  EXPECT_TRUE(loaded);
}

TEST_F(DfsStoreTest, LayerCountersAreIndependentPerImage) {
  const ImageId image_a = store_->Intern("/a");
  const ImageId image_b = store_->Intern("/b");
  ASSERT_TRUE(SaveSync(image_a, kMiB, NodeId(0)));
  ASSERT_TRUE(SaveSync(image_b, kMiB, NodeId(1)));
  bool ok = false;
  store_->Append(image_b, kMiB, NodeId(1), [&](bool a) { ok = a; });
  sim_.Run();
  ASSERT_TRUE(ok);
  store_->Append(image_a, kMiB, NodeId(0), [&](bool a) { ok = a; });
  sim_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(store_->StoredSize(image_a), 2 * kMiB);
  EXPECT_EQ(store_->StoredSize(image_b), 2 * kMiB);
}

TEST_F(DfsStoreTest, RemoveDeletesBaseAndLayers) {
  const ImageId img = store_->Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(10), NodeId(0)));
  bool ok = false;
  store_->Append(img, MiB(1), NodeId(0), [&](bool a) { ok = a; });
  sim_.Run();
  ASSERT_TRUE(ok);
  EXPECT_TRUE(store_->Remove(img));
  EXPECT_FALSE(store_->Exists(img));
  EXPECT_EQ(dfs_->total_stored(), 0);
}

TEST_F(DfsStoreTest, AppendWithoutBaseFails) {
  const ImageId missing = store_->Intern("/missing");
  bool ok = true;
  store_->Append(missing, kMiB, NodeId(0), [&](bool a) { ok = a; });
  sim_.Run();
  EXPECT_FALSE(ok);
}

TEST_F(DfsStoreTest, IsLocalToFollowsReplicas) {
  const ImageId img = store_->Intern("/img");
  ASSERT_TRUE(SaveSync(img, MiB(16), NodeId(1)));
  EXPECT_TRUE(store_->IsLocalTo(img, NodeId(1)));
}

}  // namespace
}  // namespace ckpt
