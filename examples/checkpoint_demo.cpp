// Exercise the CRIU-like engine directly: dump a process to the HDFS-like
// store, dirty part of its memory, dump incrementally, and restore on a
// different node.
//
//   $ ./build/examples/checkpoint_demo
#include <cstdio>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "sim/simulator.h"

using namespace ckpt;

int main() {
  Simulator sim;
  NetworkModel net(&sim, NetworkConfig{});
  DfsConfig dfs_config;
  dfs_config.replication = 2;
  DfsCluster dfs(&sim, &net, dfs_config);

  // Three datanodes on SSD.
  std::vector<std::unique_ptr<StorageDevice>> devices;
  for (int i = 0; i < 3; ++i) {
    net.AddNode(NodeId(i));
    devices.push_back(std::make_unique<StorageDevice>(
        &sim, StorageMedium::Ssd(), "dn" + std::to_string(i)));
    dfs.AddDataNode(NodeId(i), devices.back().get());
  }
  DfsStore store(&dfs);
  CheckpointEngine engine(&sim, &store);

  std::printf("checkpoint_demo | 4 GiB process, SSD datanodes, HDFS store\n\n");

  // A process with 4 GiB of memory running on node 0.
  ProcessState proc(TaskId(42), GiB(4), kMiB);

  // 1. First (full) dump.
  engine.Dump(proc, NodeId(0), DumpOptions{}, [&](DumpResult result) {
    std::printf("full dump:        %s in %s (incremental=%d)\n",
                FormatBytes(result.bytes_written).c_str(),
                FormatDuration(result.duration).c_str(),
                result.was_incremental);
  });
  sim.Run();

  // 2. The task runs on and rewrites ~10% of its pages.
  Rng rng(7);
  proc.memory.TouchRandomFraction(0.10, rng);
  std::printf("dirtied:          %s of %s (%lld pages)\n",
              FormatBytes(proc.memory.DirtyBytes()).c_str(),
              FormatBytes(proc.memory.size()).c_str(),
              static_cast<long long>(proc.memory.dirty_pages()));

  // 3. Incremental dump: only the soft-dirty pages go out.
  engine.Dump(proc, NodeId(0), DumpOptions{}, [&](DumpResult result) {
    std::printf("incremental dump: %s in %s (incremental=%d)\n",
                FormatBytes(result.bytes_written).c_str(),
                FormatDuration(result.duration).c_str(),
                result.was_incremental);
  });
  sim.Run();

  std::printf("stored image:     %s (base + layers, replicated x%d)\n",
              FormatBytes(store.StoredSize(proc.image_id)).c_str(),
              dfs_config.replication);

  // 4. Remote restore on node 2 — possible because the image is in the DFS.
  engine.Restore(proc, NodeId(2), [&](RestoreResult result) {
    std::printf("restore on node2: %s read in %s (remote=%d)\n",
                FormatBytes(result.bytes_read).c_str(),
                FormatDuration(result.duration).c_str(), result.was_remote);
  });
  sim.Run();

  // 5. Cleanup. Discard resets the process's image id, so keep a copy.
  const ImageId image = proc.image_id;
  engine.Discard(proc);
  std::printf("discarded:        image exists afterwards = %d\n",
              store.Exists(image));

  std::printf(
      "\nengine stats: %lld dumps (%lld incremental), %lld restores, "
      "%s written, %s read\n",
      static_cast<long long>(engine.dumps_completed()),
      static_cast<long long>(engine.incremental_dumps()),
      static_cast<long long>(engine.restores_completed()),
      FormatBytes(engine.total_dump_bytes()).c_str(),
      FormatBytes(engine.total_restore_bytes()).c_str());
  return 0;
}
