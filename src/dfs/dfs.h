// Simulated HDFS.
//
// Files are split into fixed-size blocks; the NameNode tracks block
// placement, and reads/writes exercise the datanodes' storage devices and
// the network model block by block, so queueing on either resource is
// reflected in completion times. This substrate stands in for HDFS+libhdfs
// in the paper's distributed suspend-resume (S3.2.2): a checkpoint written
// here can be restored from any node, with remote restores paying the
// network transfer Algorithm 2 accounts for.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "dfs/network.h"
#include "sim/simulator.h"
#include "storage/storage_device.h"

namespace ckpt {

class Observability;

struct DfsConfig {
  Bytes block_size = 128 * kMiB;
  int replication = 2;
  // Fixed protocol cost per block operation (RPC to the namenode, pipeline
  // setup).
  SimDuration block_op_overhead = Millis(5);
  // Extra device I/O per payload byte (checksum .meta files, packet framing,
  // write-path copies). Together with block_op_overhead this is the
  // overhead Fig. 2b shows HDFS adding over the local filesystem.
  double io_inflation = 1.08;
  std::uint64_t placement_seed = 42;
  // Background re-replication of under-replicated blocks after a datanode
  // loss: delay before the namenode reacts, and how many times a single
  // block copy is retried when its I/O fails.
  SimDuration rereplication_delay = Seconds(5);
  int max_rereplication_attempts = 3;
};

struct BlockInfo {
  BlockId id;
  Bytes size = 0;
  std::vector<NodeId> replicas;  // replicas[0] is the primary
};

struct FileInfo {
  std::string path;
  Bytes size = 0;
  std::vector<BlockInfo> blocks;
};

class DfsCluster {
 public:
  DfsCluster(Simulator* sim, NetworkModel* net, DfsConfig config);

  DfsCluster(const DfsCluster&) = delete;
  DfsCluster& operator=(const DfsCluster&) = delete;

  // Optional metrics/trace sink; null (the default) disables instrumentation.
  void set_observability(Observability* obs) { obs_ = obs; }

  // Register `device` as the datanode storage on `node`. The node must
  // already exist in the network model.
  void AddDataNode(NodeId node, StorageDevice* device);
  int num_datanodes() const { return static_cast<int>(datanodes_.size()); }

  // --- Datanode failure ----------------------------------------------------

  // Take `node`'s datanode offline: its replicas are dropped, files whose
  // every replica lived there are lost, and surviving under-replicated
  // blocks are re-replicated in the background after
  // `rereplication_delay`. Returns the lost paths (sorted).
  std::vector<std::string> FailDataNode(NodeId node);

  // Bring a failed datanode back, empty (its old replicas are gone). It
  // becomes eligible for placement and re-replication targets again.
  void RecoverDataNode(NodeId node);

  bool DatanodeLive(NodeId node) const {
    return datanodes_.count(node) > 0 && offline_.count(node) == 0;
  }
  std::int64_t blocks_rereplicated() const { return blocks_rereplicated_; }
  std::int64_t files_lost() const { return files_lost_; }

  // --- Asynchronous file operations -------------------------------------

  // Create `path` with `size` bytes, written from `writer`. Fails (done
  // receives false) if the path exists or replicas cannot be placed.
  void Write(const std::string& path, Bytes size, NodeId writer,
             std::function<void(bool ok)> done);

  // Read the whole file from `reader`'s vantage point.
  void Read(const std::string& path, NodeId reader,
            std::function<void(bool ok)> done);

  bool Delete(const std::string& path);

  // --- Metadata ----------------------------------------------------------

  bool Exists(const std::string& path) const;
  Bytes FileSize(const std::string& path) const;
  const FileInfo* Stat(const std::string& path) const;
  bool HasLocalReplica(const std::string& path, NodeId node) const;
  Bytes total_stored() const;
  Bytes current_stored() const { return current_stored_; }
  Bytes peak_stored() const { return peak_stored_; }

  // --- Cost estimates (Algorithm 1/2 inputs) ------------------------------

  // Service-time estimate for writing `size` bytes from `writer`, excluding
  // the primary device's current backlog (callers that reserve an explicit
  // queue slot add the wait themselves).
  SimDuration EstimateWriteService(Bytes size, NodeId writer) const;

  // Estimate for reading `size` fresh bytes with/without a local replica;
  // used before the file exists.
  SimDuration EstimateReadFrom(Bytes size, NodeId reader, bool local) const;

  // Like EstimateReadFrom but excluding the source device's backlog.
  SimDuration EstimateReadServiceFrom(Bytes size, NodeId reader,
                                      bool local) const;

  const DfsConfig& config() const { return config_; }

 private:
  struct PendingOp;

  std::vector<NodeId> PlaceReplicas(NodeId writer);
  StorageDevice* DeviceFor(NodeId node) const;
  Bytes Inflated(Bytes size) const;
  int LiveDatanodeCount() const;
  void WriteNextBlock(std::shared_ptr<PendingOp> op);
  void ReadNextBlock(std::shared_ptr<PendingOp> op);
  void ReplicateBlock(const std::string& path, BlockId block, int attempt);
  void RetryOrDropReplication(const std::string& path, BlockId block,
                              int attempt);

  std::function<void(bool)> WrapWithSpan(const char* name, Bytes bytes,
                                         NodeId requester,
                                         std::function<void(bool)> done);

  Simulator* sim_;
  NetworkModel* net_;
  Observability* obs_ = nullptr;
  DfsConfig config_;
  Rng placement_rng_;
  std::vector<NodeId> datanode_ids_;
  std::unordered_map<NodeId, StorageDevice*> datanodes_;
  std::unordered_set<NodeId> offline_;
  std::unordered_map<std::string, FileInfo> files_;
  std::int64_t next_block_id_ = 0;
  Bytes current_stored_ = 0;  // bytes across replicas, tracked for peak
  Bytes peak_stored_ = 0;
  std::int64_t blocks_rereplicated_ = 0;
  std::int64_t files_lost_ = 0;
};

}  // namespace ckpt
