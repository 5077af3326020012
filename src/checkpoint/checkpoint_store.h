// Backends for persisting checkpoint images.
//
// LocalStore writes to each node's own device (CRIU's stock behaviour:
// images land on the local filesystem, so a task can only resume on the
// node that dumped it). DfsStore is the paper's extension that routes
// images through HDFS so any node can restore them (S3.2.2).
//
// Image paths are interned once, when the image is created, into dense
// ImageId integers; all per-image bookkeeping is keyed by those ids, so the
// hot dump/restore path never hashes a path string. The reverse table
// (PathOf) keeps log and trace formatting unchanged.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "dfs/dfs.h"
#include "sim/simulator.h"
#include "storage/storage_device.h"

namespace ckpt {

class Observability;

class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  // Optional metrics sink; null (the default) disables store accounting.
  void set_observability(Observability* obs) { obs_ = obs; }

  // --- Image-path interning -------------------------------------------------
  // Get-or-create the dense id for `path`. Ids are handed out in interning
  // order and never reused, so they index plain vectors in the backends.
  ImageId Intern(const std::string& path);
  // Reverse lookup for logging/tracing; `image` must have been interned.
  const std::string& PathOf(ImageId image) const;

  // Persist `size` bytes dumped on `node` under `image`.
  virtual void Save(ImageId image, Bytes size, NodeId node,
                    std::function<void(bool ok)> done) = 0;

  // Append `size` more bytes to an existing image (incremental dump layers).
  virtual void Append(ImageId image, Bytes size, NodeId node,
                      std::function<void(bool ok)> done) = 0;

  // Stream the image to `node`.
  virtual void Load(ImageId image, NodeId node,
                    std::function<void(bool ok)> done) = 0;

  virtual bool Remove(ImageId image) = 0;
  virtual bool Exists(ImageId image) const = 0;
  virtual Bytes StoredSize(ImageId image) const = 0;

  // Whether a task checkpointed on one node can restore on another.
  virtual bool SupportsRemoteRestore() const = 0;

  // Whether `node` can read the image without crossing the network.
  virtual bool IsLocalTo(ImageId image, NodeId node) const = 0;

  // Cost estimates feeding Algorithms 1 and 2. A save's is service time only
  // (no queue backlog); it pairs with the RM's checkpoint-queue reservation,
  // which accounts the wait separately.
  virtual SimDuration EstimateSaveService(Bytes size, NodeId node) const = 0;
  virtual SimDuration EstimateLoadBytes(Bytes size, NodeId node,
                                        bool local) const = 0;
  // Service time only (no queue backlog).
  virtual SimDuration EstimateLoadBytesService(Bytes size, NodeId node,
                                               bool local) const = 0;

 protected:
  void RecordStoreOp(const char* op, const char* backend, Bytes bytes);

  Observability* obs_ = nullptr;

 private:
  std::unordered_map<std::string, ImageId> intern_;
  std::vector<std::string> paths_;  // reverse table, indexed by ImageId
};

// Per-node local filesystem store.
class LocalStore final : public CheckpointStore {
 public:
  void AddNode(NodeId node, StorageDevice* device);

  void Save(ImageId image, Bytes size, NodeId node,
            std::function<void(bool)> done) override;
  void Append(ImageId image, Bytes size, NodeId node,
              std::function<void(bool)> done) override;
  void Load(ImageId image, NodeId node,
            std::function<void(bool)> done) override;
  bool Remove(ImageId image) override;
  bool Exists(ImageId image) const override;
  Bytes StoredSize(ImageId image) const override;
  bool SupportsRemoteRestore() const override { return false; }
  bool IsLocalTo(ImageId image, NodeId node) const override;
  SimDuration EstimateSaveService(Bytes size, NodeId node) const override;
  SimDuration EstimateLoadBytes(Bytes size, NodeId node,
                                bool local) const override;
  SimDuration EstimateLoadBytesService(Bytes size, NodeId node,
                                       bool local) const override;

 private:
  struct Entry {
    NodeId node;
    Bytes size = 0;
    bool present = false;
  };
  StorageDevice* DeviceFor(NodeId node) const;
  // Dense per-image table; a slot outlives Remove (ids are never reused) so
  // re-saving the same path reoccupies it.
  Entry* EntryFor(ImageId image);
  const Entry* EntryFor(ImageId image) const;

  std::unordered_map<NodeId, StorageDevice*> devices_;
  std::vector<Entry> entries_;  // indexed by interned ImageId
};

// HDFS-backed store: images are readable from any node.
class DfsStore final : public CheckpointStore {
 public:
  explicit DfsStore(DfsCluster* dfs);

  void Save(ImageId image, Bytes size, NodeId node,
            std::function<void(bool)> done) override;
  void Append(ImageId image, Bytes size, NodeId node,
              std::function<void(bool)> done) override;
  void Load(ImageId image, NodeId node,
            std::function<void(bool)> done) override;
  bool Remove(ImageId image) override;
  bool Exists(ImageId image) const override;
  Bytes StoredSize(ImageId image) const override;
  bool SupportsRemoteRestore() const override { return true; }
  bool IsLocalTo(ImageId image, NodeId node) const override;
  SimDuration EstimateSaveService(Bytes size, NodeId node) const override;
  SimDuration EstimateLoadBytes(Bytes size, NodeId node,
                                bool local) const override;
  SimDuration EstimateLoadBytesService(Bytes size, NodeId node,
                                       bool local) const override;

 private:
  struct LoadOp;
  // Per-image incremental-layer bookkeeping. `layers` is the next layer
  // index to hand out (it survives file loss, like the counter map it
  // replaced); `layer_paths` caches the side-file names so the dump/restore
  // hot path never re-concatenates them.
  struct ImageInfo {
    int layers = 0;
    std::vector<std::string> layer_paths;
  };
  ImageInfo& InfoFor(ImageId image) const;
  const std::string& LayerPath(ImageId image, int layer) const;

  DfsCluster* dfs_;
  // Cache only (grown on demand from const accessors); the DFS namespace
  // stays the source of truth for which layers exist.
  mutable std::vector<ImageInfo> images_;  // indexed by interned ImageId
};

}  // namespace ckpt
