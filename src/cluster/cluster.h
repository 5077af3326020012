// Container for the node set plus cluster-wide lookups.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.h"

namespace ckpt {

class Cluster {
 public:
  explicit Cluster(Simulator* sim) : sim_(sim) { CKPT_CHECK(sim != nullptr); }

  // Create `count` identical nodes and return their ids.
  std::vector<NodeId> AddNodes(int count, Resources per_node,
                               const StorageMedium& medium,
                               PowerModel power = {});

  Node& node(NodeId id);
  int size() const { return static_cast<int>(nodes_.size()); }
  std::vector<Node*> nodes();

  // Total energy across nodes after syncing meters to the current time.
  double TotalEnergyKwh();
  SimDuration TotalBusyCoreTime();

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace ckpt
