// Cluster network fabric model.
//
// Each node has a full-duplex NIC; a transfer occupies the sender's egress
// link FIFO (serialized like the storage queues) and is delivered after a
// fabric latency. This is the bandwidth term `bw_net` in the paper's
// Algorithm 2 remote-restore estimate.
//
// Optional shared-bandwidth interference extensions (all off by default,
// keeping Transfer() bit-identical to the base model):
//  - charge_receiver: a transfer also occupies the destination's ingress
//    link, so concurrent remote restores/re-replications contend at the
//    receiver, not just the sender.
//  - rack_size/rack_uplink_bw: nodes are grouped into racks of rack_size;
//    cross-rack transfers drain through the source and destination racks'
//    uplink BandwidthDomains, fair-shared with every concurrent cross-rack
//    flow (N simultaneous dumps each see ~1/N of the uplink).
//  - aggregate_bw: a cluster-wide backbone/ingest pool every cross-rack
//    (or, without racks, every remote) transfer additionally drains.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/bandwidth_domain.h"

namespace ckpt {

struct NetworkConfig {
  Bandwidth link_bw = GBps(1.25);     // 10 GbE
  SimDuration fabric_latency = 100;   // microseconds, one way
  // Interference extensions; the defaults leave behaviour byte-identical
  // to the base sender-only model.
  bool charge_receiver = false;
  int rack_size = 0;                  // >0 enables per-rack uplink domains
  Bandwidth rack_uplink_bw = 0;
  Bandwidth aggregate_bw = 0;         // >0 enables the cluster-wide pool
};

class NetworkModel {
 public:
  NetworkModel(Simulator* sim, NetworkConfig config);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  void AddNode(NodeId node) { links_.try_emplace(node); }
  bool HasNode(NodeId node) const { return links_.count(node) > 0; }

  // Transfer `size` bytes from `src` to `dst`; `done` fires on delivery.
  // Same-node transfers complete immediately (loopback). With shared
  // domains configured, delivery happens only after the bytes drain every
  // applicable fair-share stage; the returned time is then the
  // no-contention lower bound, not the actual delivery instant.
  SimTime Transfer(NodeId src, NodeId dst, Bytes size,
                   std::function<void()> done);

  // Service time for one transfer, ignoring queueing and contention.
  SimDuration EstimateTransfer(Bytes size) const {
    return config_.fabric_latency + TransferTime(size, config_.link_bw);
  }

  // Current egress backlog of `node`.
  SimDuration QueueDelay(NodeId node) const;

  Bytes total_bytes_transferred() const { return bytes_transferred_; }
  const NetworkConfig& config() const { return config_; }

  int RackOf(NodeId node) const {
    return config_.rack_size > 0
               ? static_cast<int>(node.value()) / config_.rack_size
               : 0;
  }
  bool HasSharedDomains() const {
    return config_.rack_uplink_bw > 0 || aggregate_ != nullptr;
  }
  // Visit every shared domain (racks in id order, then the aggregate) for
  // stats export.
  void ForEachDomain(
      const std::function<void(const BandwidthDomain&)>& fn) const;

 private:
  struct Link {
    SimTime busy_until = 0;     // egress
    SimTime in_busy_until = 0;  // ingress, used only with charge_receiver
  };

  BandwidthDomain* RackDomain(int rack);
  // Shared stages a src->dst transfer crosses, in drain order.
  std::vector<BandwidthDomain*> StagesFor(NodeId src, NodeId dst);
  void StartDomainChain(NodeId src, NodeId dst, Bytes size,
                        std::function<void()> done);

  Simulator* sim_;
  NetworkConfig config_;
  std::unordered_map<NodeId, Link> links_;
  std::map<int, std::unique_ptr<BandwidthDomain>> racks_;
  std::unique_ptr<BandwidthDomain> aggregate_;
  Bytes bytes_transferred_ = 0;
};

}  // namespace ckpt
