// Parameterized sweeps over the checkpoint engine: page sizes, dirty
// fractions and image sizes; invariants of the dump/restore cycle.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "common/rng.h"
#include "dfs/dfs.h"

namespace ckpt {
namespace {

struct EngineFixture {
  Simulator sim;
  std::unique_ptr<NetworkModel> net;
  std::vector<std::unique_ptr<StorageDevice>> devices;
  std::unique_ptr<DfsCluster> dfs;
  std::unique_ptr<DfsStore> store;
  std::unique_ptr<CheckpointEngine> engine;

  EngineFixture() {
    net = std::make_unique<NetworkModel>(&sim, NetworkConfig{});
    DfsConfig config;
    config.replication = 1;
    dfs = std::make_unique<DfsCluster>(&sim, net.get(), config);
    for (int i = 0; i < 2; ++i) {
      net->AddNode(NodeId(i));
      devices.push_back(std::make_unique<StorageDevice>(
          &sim, StorageMedium::Nvm(), "dn" + std::to_string(i)));
      dfs->AddDataNode(NodeId(i), devices.back().get());
    }
    store = std::make_unique<DfsStore>(dfs.get());
    engine = std::make_unique<CheckpointEngine>(&sim, store.get());
  }

  DumpResult Dump(ProcessState& proc, bool incremental = true) {
    DumpResult out;
    DumpOptions opts;
    opts.incremental = incremental;
    engine->Dump(proc, NodeId(0), opts, [&](DumpResult r) { out = r; });
    sim.Run();
    return out;
  }
  RestoreResult Restore(ProcessState& proc, NodeId node = NodeId(0)) {
    RestoreResult out;
    engine->Restore(proc, node, [&](RestoreResult r) { out = r; });
    sim.Run();
    return out;
  }
};

class PageSizeSweep
    : public ::testing::TestWithParam<std::tuple<Bytes /*page*/,
                                                 double /*dirty fraction*/>> {
};

TEST_P(PageSizeSweep, IncrementalDumpTracksDirtyFraction) {
  const auto [page_size, fraction] = GetParam();
  EngineFixture fx;
  ProcessState proc(TaskId(1), MiB(512), page_size);
  ASSERT_TRUE(fx.Dump(proc).ok);

  Rng rng(42);
  proc.memory.TouchRandomFraction(fraction, rng);
  const DumpResult second = fx.Dump(proc);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.was_incremental);

  // Bytes written ~ dirty fraction of the image (collisions make it a
  // little less), never more than fraction + metadata.
  const double payload_fraction =
      static_cast<double>(second.bytes_written - proc.metadata_bytes) /
      static_cast<double>(MiB(512));
  EXPECT_LE(payload_fraction, fraction * 1.05 + 0.01);
  EXPECT_GE(payload_fraction, fraction * 0.5);
}

TEST_P(PageSizeSweep, RestoreReadsEverythingEverDumped) {
  const auto [page_size, fraction] = GetParam();
  EngineFixture fx;
  ProcessState proc(TaskId(1), MiB(256), page_size);
  Rng rng(7);
  Bytes written = 0;
  DumpResult first = fx.Dump(proc);
  ASSERT_TRUE(first.ok);
  written += first.bytes_written;
  for (int round = 0; round < 3; ++round) {
    proc.memory.TouchRandomFraction(fraction, rng);
    const DumpResult dump = fx.Dump(proc);
    ASSERT_TRUE(dump.ok);
    written += dump.bytes_written;
  }
  const RestoreResult restore = fx.Restore(proc);
  ASSERT_TRUE(restore.ok);
  EXPECT_EQ(restore.bytes_read, written);
  EXPECT_EQ(proc.image_bytes, written);
}

INSTANTIATE_TEST_SUITE_P(
    PagesAndFractions, PageSizeSweep,
    ::testing::Combine(::testing::Values(4 * kKiB, 64 * kKiB, kMiB),
                       ::testing::Values(0.01, 0.1, 0.5)));

class ImageSizeSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(ImageSizeSweep, DumpDurationLinearInSize) {
  EngineFixture fx;
  ProcessState small(TaskId(1), GetParam(), kMiB);
  ProcessState big(TaskId(2), GetParam() * 4, kMiB);
  const DumpResult a = fx.Dump(small);
  const DumpResult b = fx.Dump(big);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  const double ratio =
      static_cast<double>(b.duration) / static_cast<double>(a.duration);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST_P(ImageSizeSweep, DumpCycleIsIdempotentWithoutWrites) {
  EngineFixture fx;
  ProcessState proc(TaskId(1), GetParam(), kMiB);
  ASSERT_TRUE(fx.Dump(proc).ok);
  // No writes since the first dump: the incremental dump carries only
  // metadata.
  const DumpResult second = fx.Dump(proc);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.was_incremental);
  EXPECT_EQ(second.bytes_written, proc.metadata_bytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ImageSizeSweep,
                         ::testing::Values(MiB(64), MiB(256), GiB(1)));

TEST(EngineInvariants, DiscardIsIdempotent) {
  EngineFixture fx;
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(fx.Dump(proc).ok);
  fx.engine->Discard(proc);
  fx.engine->Discard(proc);  // second discard is a no-op
  EXPECT_FALSE(proc.has_image);
  EXPECT_EQ(fx.dfs->total_stored(), 0);
}

TEST(EngineInvariants, ReplaceExistingForcesFullDump) {
  EngineFixture fx;
  ProcessState proc(TaskId(1), MiB(128), kMiB);
  ASSERT_TRUE(fx.Dump(proc).ok);
  Rng rng(5);
  proc.memory.TouchRandomFraction(0.05, rng);
  // A full dump over an existing image replaces it.
  DumpOptions opts;
  opts.incremental = false;
  DumpResult result;
  fx.engine->Dump(proc, NodeId(0), opts, [&](DumpResult r) { result = r; });
  fx.sim.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.was_incremental);
  EXPECT_EQ(result.bytes_written, MiB(128) + proc.metadata_bytes);
  // The old image was removed: stored size equals the fresh dump.
  EXPECT_EQ(fx.store->StoredSize(proc.image_id), result.bytes_written);
}

TEST(EngineInvariants, TwoProcessesKeepSeparateImages) {
  EngineFixture fx;
  ProcessState a(TaskId(1), MiB(64), kMiB);
  ProcessState b(TaskId(2), MiB(32), kMiB);
  ASSERT_TRUE(fx.Dump(a).ok);
  ASSERT_TRUE(fx.Dump(b).ok);
  EXPECT_NE(a.image_path, b.image_path);
  fx.engine->Discard(a);
  EXPECT_TRUE(fx.store->Exists(b.image_id));
  const RestoreResult restore = fx.Restore(b);
  EXPECT_TRUE(restore.ok);
}

}  // namespace
}  // namespace ckpt
