#include "cluster/cluster.h"

namespace ckpt {

std::vector<NodeId> Cluster::AddNodes(int count, Resources per_node,
                                      const StorageMedium& medium,
                                      PowerModel power) {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    NodeId id(static_cast<std::int64_t>(nodes_.size()));
    nodes_.push_back(
        std::make_unique<Node>(sim_, id, per_node, medium, power));
    ids.push_back(id);
  }
  return ids;
}

Node& Cluster::node(NodeId id) {
  CKPT_CHECK(id.valid());
  CKPT_CHECK_LT(id.value(), static_cast<std::int64_t>(nodes_.size()));
  return *nodes_[static_cast<size_t>(id.value())];
}

std::vector<Node*> Cluster::nodes() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

double Cluster::TotalEnergyKwh() {
  double total = 0.0;
  for (auto& n : nodes_) {
    n->SyncEnergy();
    total += n->EnergyKwh();
  }
  return total;
}

SimDuration Cluster::TotalBusyCoreTime() {
  SimDuration total = 0;
  for (auto& n : nodes_) {
    n->SyncEnergy();
    total += n->BusyCoreTime();
  }
  return total;
}

}  // namespace ckpt
