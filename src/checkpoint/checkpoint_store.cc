#include "checkpoint/checkpoint_store.h"

#include <utility>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

void CheckpointStore::RecordStoreOp(const char* op, const char* backend,
                                    Bytes bytes) {
  if (obs_ == nullptr) return;
  MetricLabels labels{{"backend", backend}, {"op", op}};
  obs_->metrics().GetCounter("store.ops", labels)->Inc();
  obs_->metrics().GetCounter("store.bytes", std::move(labels))->Inc(bytes);
}

ImageId CheckpointStore::Intern(const std::string& path) {
  auto [it, inserted] = intern_.emplace(
      path, ImageId(static_cast<std::int64_t>(paths_.size())));
  if (inserted) paths_.push_back(path);
  return it->second;
}

const std::string& CheckpointStore::PathOf(ImageId image) const {
  CKPT_CHECK(image.valid());
  CKPT_CHECK_LT(static_cast<size_t>(image.value()), paths_.size());
  return paths_[static_cast<size_t>(image.value())];
}

// --- LocalStore -----------------------------------------------------------

void LocalStore::AddNode(NodeId node, StorageDevice* device) {
  CKPT_CHECK(device != nullptr);
  CKPT_CHECK(devices_.emplace(node, device).second);
}

StorageDevice* LocalStore::DeviceFor(NodeId node) const {
  auto it = devices_.find(node);
  return it == devices_.end() ? nullptr : it->second;
}

LocalStore::Entry* LocalStore::EntryFor(ImageId image) {
  const size_t i = static_cast<size_t>(image.value());
  if (i >= entries_.size()) entries_.resize(i + 1);
  return &entries_[i];
}

const LocalStore::Entry* LocalStore::EntryFor(ImageId image) const {
  const size_t i = static_cast<size_t>(image.value());
  return i < entries_.size() ? &entries_[i] : nullptr;
}

void LocalStore::Save(ImageId image, Bytes size, NodeId node,
                      std::function<void(bool)> done) {
  StorageDevice* device = DeviceFor(node);
  Entry* entry = EntryFor(image);
  if (device == nullptr || entry->present || !device->Reserve(size)) {
    done(false);
    return;
  }
  *entry = Entry{node, size, /*present=*/true};
  RecordStoreOp("save", "local", size);
  device->SubmitWrite(size, [this, image, done = std::move(done)](bool ok) {
    // A failed device write leaves no usable image: unregister the file
    // (which also releases the reservation) before reporting failure.
    if (!ok) Remove(image);
    done(ok);
  });
}

void LocalStore::Append(ImageId image, Bytes size, NodeId node,
                        std::function<void(bool)> done) {
  Entry* entry = EntryFor(image);
  StorageDevice* device = DeviceFor(node);
  if (!entry->present || device == nullptr || entry->node != node ||
      !device->Reserve(size)) {
    done(false);
    return;
  }
  entry->size += size;
  RecordStoreOp("append", "local", size);
  device->SubmitWrite(
      size, [this, image, size, node, done = std::move(done)](bool ok) {
        if (!ok) {
          // Roll the extension back; the base image layers remain valid.
          Entry* rollback = EntryFor(image);
          if (rollback->present) {
            rollback->size -= size;
            if (StorageDevice* device = DeviceFor(node)) device->Release(size);
          }
        }
        done(ok);
      });
}

void LocalStore::Load(ImageId image, NodeId node,
                      std::function<void(bool)> done) {
  const Entry* entry = EntryFor(image);
  if (entry == nullptr || !entry->present || entry->node != node) {
    // Local images are not reachable from other nodes (the CRIU name-
    // conflict limitation the paper works around with HDFS).
    done(false);
    return;
  }
  StorageDevice* device = DeviceFor(node);
  CKPT_CHECK(device != nullptr);
  RecordStoreOp("load", "local", entry->size);
  device->SubmitRead(entry->size,
                     [done = std::move(done)](bool ok) { done(ok); });
}

bool LocalStore::Remove(ImageId image) {
  Entry* entry = EntryFor(image);
  if (!entry->present) return false;
  if (StorageDevice* device = DeviceFor(entry->node)) {
    device->Release(entry->size);
  }
  *entry = Entry{};
  return true;
}

bool LocalStore::Exists(ImageId image) const {
  const Entry* entry = EntryFor(image);
  return entry != nullptr && entry->present;
}

Bytes LocalStore::StoredSize(ImageId image) const {
  const Entry* entry = EntryFor(image);
  return entry != nullptr && entry->present ? entry->size : -1;
}

bool LocalStore::IsLocalTo(ImageId image, NodeId node) const {
  const Entry* entry = EntryFor(image);
  return entry != nullptr && entry->present && entry->node == node;
}

SimDuration LocalStore::EstimateSaveService(Bytes size, NodeId node) const {
  StorageDevice* device = DeviceFor(node);
  return device == nullptr ? 0 : device->EstimateWrite(size);
}

SimDuration LocalStore::EstimateLoadBytes(Bytes size, NodeId node,
                                          bool local) const {
  if (!local) return Simulator::kMaxTime;  // unreachable remotely
  StorageDevice* device = DeviceFor(node);
  if (device == nullptr) return 0;
  return device->QueueDelay() + device->EstimateRead(size);
}

SimDuration LocalStore::EstimateLoadBytesService(Bytes size, NodeId node,
                                                 bool local) const {
  if (!local) return Simulator::kMaxTime;
  StorageDevice* device = DeviceFor(node);
  return device == nullptr ? 0 : device->EstimateRead(size);
}

// --- DfsStore ---------------------------------------------------------------

DfsStore::DfsStore(DfsCluster* dfs) : dfs_(dfs) { CKPT_CHECK(dfs != nullptr); }

DfsStore::ImageInfo& DfsStore::InfoFor(ImageId image) const {
  const size_t i = static_cast<size_t>(image.value());
  if (i >= images_.size()) images_.resize(i + 1);
  return images_[i];
}

const std::string& DfsStore::LayerPath(ImageId image, int layer) const {
  ImageInfo& info = InfoFor(image);
  while (static_cast<size_t>(layer) >= info.layer_paths.size()) {
    info.layer_paths.push_back(
        PathOf(image) + ".layer" +
        std::to_string(info.layer_paths.size()));
  }
  return info.layer_paths[static_cast<size_t>(layer)];
}

void DfsStore::Save(ImageId image, Bytes size, NodeId node,
                    std::function<void(bool)> done) {
  RecordStoreOp("save", "dfs", size);
  dfs_->Write(PathOf(image), size, node, std::move(done));
}

void DfsStore::Append(ImageId image, Bytes size, NodeId node,
                      std::function<void(bool)> done) {
  if (!dfs_->Exists(PathOf(image))) {
    done(false);
    return;
  }
  // HDFS files are immutable; incremental layers are side files that Load
  // and StoredSize fold back into the logical image.
  const int layer = InfoFor(image).layers++;
  RecordStoreOp("append", "dfs", size);
  dfs_->Write(LayerPath(image, layer), size, node, std::move(done));
}

struct DfsStore::LoadOp : std::enable_shared_from_this<DfsStore::LoadOp> {
  const DfsStore* store = nullptr;
  ImageId image;
  NodeId node;
  std::function<void(bool)> done;

  // Read increment layer `layer` and recurse to the next until a layer is
  // missing (all increments consumed).
  void Continue(int layer, bool ok) {
    if (!ok) {
      done(false);
      return;
    }
    const std::string& layer_path = store->LayerPath(image, layer);
    if (!store->dfs_->Exists(layer_path)) {
      done(true);
      return;
    }
    auto self = shared_from_this();
    store->dfs_->Read(layer_path, node, [self, layer](bool layer_ok) {
      self->Continue(layer + 1, layer_ok);
    });
  }
};

void DfsStore::Load(ImageId image, NodeId node,
                    std::function<void(bool)> done) {
  RecordStoreOp("load", "dfs", StoredSize(image));
  auto op = std::make_shared<LoadOp>();
  op->store = this;
  op->image = image;
  op->node = node;
  op->done = std::move(done);
  dfs_->Read(PathOf(image), node, [op](bool ok) { op->Continue(0, ok); });
}

bool DfsStore::Remove(ImageId image) {
  if (!dfs_->Delete(PathOf(image))) return false;
  for (int layer = 0;; ++layer) {
    if (!dfs_->Delete(LayerPath(image, layer))) break;
  }
  // Layer numbering restarts if the same path is ever re-saved, matching
  // the counter-map erase this replaced. The cached names stay valid.
  InfoFor(image).layers = 0;
  return true;
}

bool DfsStore::Exists(ImageId image) const {
  return dfs_->Exists(PathOf(image));
}

Bytes DfsStore::StoredSize(ImageId image) const {
  if (!dfs_->Exists(PathOf(image))) return -1;
  Bytes total = dfs_->FileSize(PathOf(image));
  for (int layer = 0;; ++layer) {
    const Bytes size = dfs_->FileSize(LayerPath(image, layer));
    if (size < 0) break;
    total += size;
  }
  return total;
}

bool DfsStore::IsLocalTo(ImageId image, NodeId node) const {
  return dfs_->HasLocalReplica(PathOf(image), node);
}

SimDuration DfsStore::EstimateSaveService(Bytes size, NodeId node) const {
  return dfs_->EstimateWriteService(size, node);
}

SimDuration DfsStore::EstimateLoadBytes(Bytes size, NodeId node,
                                        bool local) const {
  return dfs_->EstimateReadFrom(size, node, local);
}

SimDuration DfsStore::EstimateLoadBytesService(Bytes size, NodeId node,
                                               bool local) const {
  return dfs_->EstimateReadServiceFrom(size, node, local);
}

}  // namespace ckpt
