#include "dfs/dfs.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

struct DfsCluster::PendingOp {
  FileInfo file;              // copy: Delete() may race with an in-flight read
  NodeId requester;
  size_t next_block = 0;
  int outstanding = 0;
  bool failed = false;
  bool is_write = false;
  std::function<void(bool)> done;
};

DfsCluster::DfsCluster(Simulator* sim, NetworkModel* net, DfsConfig config)
    : sim_(sim), net_(net), config_(config),
      placement_rng_(config.placement_seed) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(net != nullptr);
  CKPT_CHECK_GT(config_.block_size, 0);
  CKPT_CHECK_GE(config_.replication, 1);
}

void DfsCluster::AddDataNode(NodeId node, StorageDevice* device) {
  CKPT_CHECK(device != nullptr);
  CKPT_CHECK(net_->HasNode(node)) << "datanode not in network model";
  CKPT_CHECK(datanodes_.emplace(node, device).second)
      << "duplicate datanode " << node.value();
  datanode_ids_.push_back(node);
}

Bytes DfsCluster::Inflated(Bytes size) const {
  return static_cast<Bytes>(static_cast<double>(size) * config_.io_inflation);
}

// Open a span covering the whole file operation and fold completion
// accounting into the caller's callback.
std::function<void(bool)> DfsCluster::WrapWithSpan(
    const char* name, Bytes bytes, NodeId requester,
    std::function<void(bool)> done) {
  if (obs_ == nullptr) return done;
  const SimTime started = sim_->Now();
  const Tracer::SpanId span = obs_->tracer().BeginSpan(
      name, "dfs", "dfs", started,
      {TraceArg::Num("bytes", static_cast<double>(bytes)),
       TraceArg::Num("node", static_cast<double>(requester.value()))});
  return [this, name, bytes, span, done = std::move(done)](bool ok) {
    obs_->tracer().EndSpan(span, sim_->Now(),
                           {TraceArg::Num("ok", ok ? 1 : 0)});
    obs_->metrics()
        .GetCounter("dfs.ops", {{"op", name}, {"result", ok ? "ok" : "fail"}})
        ->Inc();
    if (ok) obs_->metrics().GetCounter("dfs.bytes", {{"op", name}})->Inc(bytes);
    done(ok);
  };
}

StorageDevice* DfsCluster::DeviceFor(NodeId node) const {
  auto it = datanodes_.find(node);
  return it == datanodes_.end() ? nullptr : it->second;
}

int DfsCluster::LiveDatanodeCount() const {
  return static_cast<int>(datanode_ids_.size()) -
         static_cast<int>(offline_.size());
}

std::vector<NodeId> DfsCluster::PlaceReplicas(NodeId writer) {
  std::vector<NodeId> replicas;
  const int want = std::min<int>(config_.replication, LiveDatanodeCount());
  if (want == 0) return replicas;
  // HDFS policy: first replica on the writer when it hosts a datanode,
  // remaining replicas on distinct random nodes.
  if (DatanodeLive(writer)) replicas.push_back(writer);
  while (static_cast<int>(replicas.size()) < want) {
    NodeId pick = datanode_ids_[static_cast<size_t>(placement_rng_.UniformInt(
        0, static_cast<std::int64_t>(datanode_ids_.size()) - 1))];
    if (DatanodeLive(pick) &&
        std::find(replicas.begin(), replicas.end(), pick) == replicas.end()) {
      replicas.push_back(pick);
    }
  }
  return replicas;
}

void DfsCluster::Write(const std::string& path, Bytes size, NodeId writer,
                       std::function<void(bool)> done) {
  CKPT_CHECK_GE(size, 0);
  done = WrapWithSpan("dfs.write", size, writer, std::move(done));
  if (files_.count(path) > 0 || LiveDatanodeCount() == 0) {
    sim_->ScheduleAfter(0, [done = std::move(done)] { done(false); });
    return;
  }
  FileInfo file;
  file.path = path;
  file.size = size;
  Bytes remaining = size;
  do {
    BlockInfo block;
    block.id = BlockId(next_block_id_++);
    block.size = std::min(remaining, config_.block_size);
    block.replicas = PlaceReplicas(writer);
    file.blocks.push_back(std::move(block));
    remaining -= file.blocks.back().size;
  } while (remaining > 0);

  // Register the file up front so capacity/metadata reflect in-flight
  // writes; a failed pipeline removes it again.
  for (const BlockInfo& block : file.blocks) {
    current_stored_ += block.size * static_cast<Bytes>(block.replicas.size());
  }
  peak_stored_ = std::max(peak_stored_, current_stored_);
  files_[path] = file;

  auto op = std::make_shared<PendingOp>();
  op->file = std::move(file);
  op->requester = writer;
  op->is_write = true;
  op->done = std::move(done);
  WriteNextBlock(std::move(op));
}

void DfsCluster::WriteNextBlock(std::shared_ptr<PendingOp> op) {
  if (op->next_block >= op->file.blocks.size() || op->failed) {
    if (op->failed) Delete(op->file.path);
    op->done(!op->failed);
    return;
  }
  const BlockInfo& block = op->file.blocks[op->next_block];
  op->next_block++;
  op->outstanding = static_cast<int>(block.replicas.size());
  CKPT_CHECK_GT(op->outstanding, 0);

  auto replica_done = [this, op](bool ok) {
    if (!ok) op->failed = true;
    if (--op->outstanding == 0) {
      sim_->ScheduleAfter(config_.block_op_overhead,
                          [this, op] { WriteNextBlock(op); });
    }
  };

  // Pipeline: writer streams to the primary, the primary forwards to the
  // next replica, and so on. Each hop is a network transfer followed by a
  // device write on the receiving datanode.
  NodeId prev = op->requester;
  for (NodeId replica : block.replicas) {
    StorageDevice* device = DeviceFor(replica);
    CKPT_CHECK(device != nullptr);
    const Bytes bytes = block.size;
    const Bytes device_bytes = Inflated(block.size);
    net_->Transfer(prev, replica, bytes,
                   [device, device_bytes, replica_done]() {
                     device->SubmitWrite(device_bytes, replica_done);
                   });
    prev = replica;
  }
}

void DfsCluster::Read(const std::string& path, NodeId reader,
                      std::function<void(bool)> done) {
  auto it = files_.find(path);
  done = WrapWithSpan("dfs.read", it == files_.end() ? 0 : it->second.size,
                      reader, std::move(done));
  if (it == files_.end()) {
    sim_->ScheduleAfter(0, [done = std::move(done)] { done(false); });
    return;
  }
  auto op = std::make_shared<PendingOp>();
  op->file = it->second;
  op->requester = reader;
  op->done = std::move(done);
  ReadNextBlock(std::move(op));
}

void DfsCluster::ReadNextBlock(std::shared_ptr<PendingOp> op) {
  if (op->next_block >= op->file.blocks.size()) {
    op->done(true);
    return;
  }
  const BlockInfo& block = op->file.blocks[op->next_block];
  op->next_block++;

  // Prefer a live replica co-located with the reader; otherwise the live
  // replica whose device has the shortest backlog (clients balance across
  // copies). A block with no live replica fails the read.
  std::vector<NodeId> candidates;
  for (NodeId replica : block.replicas) {
    if (DatanodeLive(replica)) candidates.push_back(replica);
  }
  if (candidates.empty()) {
    op->done(false);
    return;
  }
  NodeId source = candidates.front();
  bool local = false;
  for (NodeId replica : candidates) {
    if (replica == op->requester) {
      source = replica;
      local = true;
      break;
    }
  }
  if (!local) {
    for (NodeId replica : candidates) {
      if (DeviceFor(replica)->QueueDelay() <
          DeviceFor(source)->QueueDelay()) {
        source = replica;
      }
    }
  }
  StorageDevice* device = DeviceFor(source);
  CKPT_CHECK(device != nullptr);
  const Bytes bytes = block.size;
  const NodeId reader = op->requester;
  device->SubmitRead(Inflated(bytes), [this, op, source, reader, bytes](bool ok) {
    if (!ok) {
      op->done(false);
      return;
    }
    net_->Transfer(source, reader, bytes, [this, op]() {
      sim_->ScheduleAfter(config_.block_op_overhead,
                          [this, op] { ReadNextBlock(op); });
    });
  });
}

std::vector<std::string> DfsCluster::FailDataNode(NodeId node) {
  std::vector<std::string> lost;
  if (!DatanodeLive(node)) return lost;
  offline_.insert(node);

  // Strip the dead node's replicas; collect files left with a zero-replica
  // block (lost) and files left under-replicated (to re-replicate). Paths
  // are processed in sorted order so RNG draws and event scheduling stay
  // independent of hash-map iteration order.
  std::vector<std::string> under_replicated;
  for (auto& [path, file] : files_) {
    bool file_lost = false;
    bool needs_copies = false;
    for (BlockInfo& block : file.blocks) {
      auto it = std::find(block.replicas.begin(), block.replicas.end(), node);
      if (it == block.replicas.end()) continue;
      block.replicas.erase(it);
      current_stored_ -= block.size;
      if (block.replicas.empty()) {
        file_lost = true;
      } else {
        needs_copies = true;
      }
    }
    if (file_lost) {
      lost.push_back(path);
    } else if (needs_copies) {
      under_replicated.push_back(path);
    }
  }
  std::sort(lost.begin(), lost.end());
  std::sort(under_replicated.begin(), under_replicated.end());

  for (const std::string& path : lost) {
    ++files_lost_;
    Delete(path);
    if (obs_ != nullptr) {
      obs_->metrics().GetCounter("dfs.files_lost")->Inc();
    }
  }

  const int target = std::min<int>(config_.replication, LiveDatanodeCount());
  for (const std::string& path : under_replicated) {
    const FileInfo& file = files_.at(path);
    for (const BlockInfo& block : file.blocks) {
      if (static_cast<int>(block.replicas.size()) >= target) continue;
      const BlockId id = block.id;
      sim_->ScheduleAfter(config_.rereplication_delay, [this, path, id] {
        ReplicateBlock(path, id, 1);
      });
    }
  }
  return lost;
}

void DfsCluster::RecoverDataNode(NodeId node) {
  CKPT_CHECK(datanodes_.count(node) > 0) << "unknown datanode";
  offline_.erase(node);
}

void DfsCluster::RetryOrDropReplication(const std::string& path, BlockId block,
                                        int attempt) {
  if (attempt >= config_.max_rereplication_attempts) return;
  sim_->ScheduleAfter(config_.rereplication_delay,
                      [this, path, block, attempt] {
                        ReplicateBlock(path, block, attempt + 1);
                      });
}

// Copy one under-replicated block to a fresh datanode: device read on a
// surviving replica, network transfer, device write on the target. The
// file may be deleted or the topology may change while the copy is in
// flight, so every step revalidates against the namenode state.
void DfsCluster::ReplicateBlock(const std::string& path, BlockId block,
                                int attempt) {
  auto it = files_.find(path);
  if (it == files_.end()) return;
  const BlockInfo* info = nullptr;
  for (const BlockInfo& b : it->second.blocks) {
    if (b.id == block) info = &b;
  }
  if (info == nullptr) return;
  if (static_cast<int>(info->replicas.size()) >=
      std::min<int>(config_.replication, LiveDatanodeCount())) {
    return;  // healed in the meantime (or no node can hold another copy)
  }
  NodeId source;
  for (NodeId replica : info->replicas) {
    if (DatanodeLive(replica)) {
      source = replica;
      break;
    }
  }
  if (!source.valid()) return;  // nothing left to copy from
  // Random target among live datanodes not already holding the block,
  // drawn from the placement stream (deterministic in event order).
  std::vector<NodeId> targets;
  for (NodeId candidate : datanode_ids_) {
    if (!DatanodeLive(candidate)) continue;
    if (std::find(info->replicas.begin(), info->replicas.end(), candidate) !=
        info->replicas.end()) {
      continue;
    }
    targets.push_back(candidate);
  }
  if (targets.empty()) return;
  const NodeId target = targets[static_cast<size_t>(placement_rng_.UniformInt(
      0, static_cast<std::int64_t>(targets.size()) - 1))];
  const Bytes bytes = info->size;
  const SimTime copy_started = sim_->Now();
  StorageDevice* src_device = DeviceFor(source);
  CKPT_CHECK(src_device != nullptr);
  src_device->SubmitRead(
      Inflated(bytes),
      [this, path, block, attempt, source, target, bytes,
       copy_started](bool read_ok) {
        if (!read_ok) {
          RetryOrDropReplication(path, block, attempt);
          return;
        }
        net_->Transfer(source, target, bytes, [this, path, block, attempt,
                                               target, bytes, copy_started] {
          StorageDevice* dst = DeviceFor(target);
          CKPT_CHECK(dst != nullptr);
          dst->SubmitWrite(
              Inflated(bytes),
              [this, path, block, attempt, target, bytes,
               copy_started](bool write_ok) {
                if (!write_ok || !DatanodeLive(target)) {
                  RetryOrDropReplication(path, block, attempt);
                  return;
                }
                auto file_it = files_.find(path);
                if (file_it == files_.end()) return;
                for (BlockInfo& b : file_it->second.blocks) {
                  if (b.id != block) continue;
                  if (std::find(b.replicas.begin(), b.replicas.end(),
                                target) != b.replicas.end()) {
                    return;  // raced with another copy
                  }
                  b.replicas.push_back(target);
                  current_stored_ += bytes;
                  peak_stored_ = std::max(peak_stored_, current_stored_);
                  ++blocks_rereplicated_;
                  if (obs_ != nullptr) {
                    // Attribute the whole read→transfer→write elapsed time
                    // (queueing included) to the re-replication cause, as
                    // device-seconds against the new replica's node.
                    obs_->waste().Add(WasteCause::kReReplication,
                                      ToSeconds(sim_->Now() - copy_started),
                                      -1, target.value());
                    obs_->metrics().GetCounter("dfs.rereplicated")->Inc();
                    obs_->tracer().Instant(
                        "fault.rereplicated", "fault", "dfs", sim_->Now(),
                        {TraceArg::Str("path", path),
                         TraceArg::Num("node",
                                       static_cast<double>(target.value()))});
                  }
                  return;
                }
              });
        });
      });
}

bool DfsCluster::Delete(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  for (const BlockInfo& block : it->second.blocks) {
    current_stored_ -= block.size * static_cast<Bytes>(block.replicas.size());
  }
  files_.erase(it);
  return true;
}

bool DfsCluster::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Bytes DfsCluster::FileSize(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? -1 : it->second.size;
}

const FileInfo* DfsCluster::Stat(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

bool DfsCluster::HasLocalReplica(const std::string& path, NodeId node) const {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  for (const BlockInfo& block : it->second.blocks) {
    if (std::find(block.replicas.begin(), block.replicas.end(), node) ==
        block.replicas.end()) {
      return false;
    }
  }
  return !it->second.blocks.empty();
}

Bytes DfsCluster::total_stored() const {
  Bytes total = 0;
  for (const auto& [path, file] : files_) {
    for (const BlockInfo& block : file.blocks) {
      total += block.size * static_cast<Bytes>(block.replicas.size());
    }
  }
  return total;
}

SimDuration DfsCluster::EstimateWriteService(Bytes size, NodeId writer) const {
  if (datanode_ids_.empty()) return 0;
  StorageDevice* local = DeviceFor(writer);
  // Primary device: the writer's own when co-located, else a representative
  // (first) datanode. The pipeline hides replica fan-out behind the primary
  // write, so the estimate charges one device write plus, when remote, one
  // network traversal.
  StorageDevice* primary = local != nullptr ? local : datanodes_.begin()->second;
  SimDuration t = primary->EstimateWrite(Inflated(size));
  if (local == nullptr) t += net_->EstimateTransfer(size);
  const std::int64_t blocks = (size + config_.block_size - 1) / config_.block_size;
  t += config_.block_op_overhead * std::max<std::int64_t>(blocks, 1);
  return t;
}

SimDuration DfsCluster::EstimateReadServiceFrom(Bytes size, NodeId reader,
                                                bool local) const {
  if (datanode_ids_.empty()) return 0;
  StorageDevice* device =
      local ? DeviceFor(reader) : datanodes_.begin()->second;
  if (device == nullptr) device = datanodes_.begin()->second;
  SimDuration t = device->EstimateRead(Inflated(size));
  if (!local) t += net_->EstimateTransfer(size);
  const std::int64_t blocks = (size + config_.block_size - 1) / config_.block_size;
  t += config_.block_op_overhead * std::max<std::int64_t>(blocks, 1);
  return t;
}

SimDuration DfsCluster::EstimateReadFrom(Bytes size, NodeId reader,
                                         bool local) const {
  if (datanode_ids_.empty()) return 0;
  StorageDevice* device =
      local ? DeviceFor(reader) : datanodes_.begin()->second;
  if (device == nullptr) device = datanodes_.begin()->second;
  SimDuration t = device->QueueDelay() + device->EstimateRead(Inflated(size));
  if (!local) t += net_->EstimateTransfer(size);
  const std::int64_t blocks = (size + config_.block_size - 1) / config_.block_size;
  t += config_.block_op_overhead * std::max<std::int64_t>(blocks, 1);
  return t;
}

}  // namespace ckpt
