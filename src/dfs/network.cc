#include "dfs/network.h"

#include <algorithm>
#include <utility>

namespace ckpt {

NetworkModel::NetworkModel(Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  CKPT_CHECK(sim != nullptr);
  if (config_.aggregate_bw > 0) {
    aggregate_ = std::make_unique<BandwidthDomain>(sim_, "net.aggregate",
                                                   config_.aggregate_bw);
  }
}

BandwidthDomain* NetworkModel::RackDomain(int rack) {
  auto it = racks_.find(rack);
  if (it == racks_.end()) {
    it = racks_
             .emplace(rack, std::make_unique<BandwidthDomain>(
                                sim_, "net.rack" + std::to_string(rack),
                                config_.rack_uplink_bw))
             .first;
  }
  return it->second.get();
}

std::vector<BandwidthDomain*> NetworkModel::StagesFor(NodeId src, NodeId dst) {
  std::vector<BandwidthDomain*> stages;
  if (config_.rack_size > 0 && config_.rack_uplink_bw > 0) {
    const int src_rack = RackOf(src);
    const int dst_rack = RackOf(dst);
    if (src_rack == dst_rack) return stages;  // stays on the ToR switch
    stages.push_back(RackDomain(src_rack));
    if (aggregate_ != nullptr) stages.push_back(aggregate_.get());
    stages.push_back(RackDomain(dst_rack));
    return stages;
  }
  if (aggregate_ != nullptr) stages.push_back(aggregate_.get());
  return stages;
}

void NetworkModel::StartDomainChain(NodeId src, NodeId dst, Bytes size,
                                    std::function<void()> done) {
  std::vector<BandwidthDomain*> stages = StagesFor(src, dst);
  const SimDuration latency = config_.fabric_latency;
  if (stages.empty()) {
    sim_->ScheduleAt(sim_->Now() + latency, std::move(done));
    return;
  }
  // Drain each stage in order, then deliver after the fabric latency.
  struct Chain {
    std::vector<BandwidthDomain*> stages;
    std::function<void()> done;
  };
  auto chain = std::make_shared<Chain>();
  chain->stages = std::move(stages);
  chain->done = std::move(done);
  auto step = std::make_shared<std::function<void(size_t)>>();
  *step = [this, size, latency, chain, step](size_t i) {
    if (i >= chain->stages.size()) {
      sim_->ScheduleAt(sim_->Now() + latency, std::move(chain->done));
      return;
    }
    chain->stages[i]->StartFlow(size, [step, i] { (*step)(i + 1); });
  };
  (*step)(0);
}

SimTime NetworkModel::Transfer(NodeId src, NodeId dst, Bytes size,
                               std::function<void()> done) {
  CKPT_CHECK_GE(size, 0);
  if (src == dst) {
    bytes_transferred_ += size;
    const SimTime at = sim_->Now();
    sim_->ScheduleAt(at, std::move(done));
    return at;
  }
  auto it = links_.find(src);
  CKPT_CHECK(it != links_.end()) << "unknown network node " << src.value();
  Link& link = it->second;
  SimTime start = std::max(link.busy_until, sim_->Now());
  if (config_.charge_receiver) {
    auto dit = links_.find(dst);
    CKPT_CHECK(dit != links_.end())
        << "unknown network node " << dst.value();
    start = std::max(start, dit->second.in_busy_until);
    dit->second.in_busy_until = start + TransferTime(size, config_.link_bw);
  }
  link.busy_until = start + TransferTime(size, config_.link_bw);
  bytes_transferred_ += size;
  const SimTime egress_done = start + TransferTime(size, config_.link_bw);
  if (!HasSharedDomains()) {
    const SimTime delivered = egress_done + config_.fabric_latency;
    sim_->ScheduleAt(delivered, std::move(done));
    return delivered;
  }
  // After the NIC serializes the frame it crosses the shared fabric
  // stages, fair-shared with every concurrent flow; the return value is
  // the no-contention lower bound.
  sim_->ScheduleAt(egress_done,
                   [this, src, dst, size, done = std::move(done)]() mutable {
                     StartDomainChain(src, dst, size, std::move(done));
                   });
  return egress_done + config_.fabric_latency;
}

void NetworkModel::ForEachDomain(
    const std::function<void(const BandwidthDomain&)>& fn) const {
  for (const auto& [rack, domain] : racks_) fn(*domain);
  if (aggregate_ != nullptr) fn(*aggregate_);
}

SimDuration NetworkModel::QueueDelay(NodeId node) const {
  auto it = links_.find(node);
  if (it == links_.end()) return 0;
  return it->second.busy_until > sim_->Now()
             ? it->second.busy_until - sim_->Now()
             : 0;
}

}  // namespace ckpt
