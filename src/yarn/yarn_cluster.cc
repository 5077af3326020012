#include "yarn/yarn_cluster.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

YarnCluster::YarnCluster(YarnConfig config) : config_(config) {
  sim_ = std::make_unique<Simulator>();
  if (config_.obs != nullptr) {
    SetLogClock([sim = sim_.get()] { return sim->Now(); });
    config_.obs->waste().set_policy(PolicyName(config_.policy));
  }
  cluster_ = std::make_unique<Cluster>(sim_.get());
  const Resources per_node{
      kContainerSize.cpus * config_.containers_per_node,
      kContainerSize.memory * config_.containers_per_node};
  cluster_->AddNodes(config_.num_nodes, per_node, config_.medium);

  network_ = std::make_unique<NetworkModel>(sim_.get(), config_.network);
  dfs_ = std::make_unique<DfsCluster>(sim_.get(), network_.get(), DfsConfig{});
  dfs_->set_observability(config_.obs);
  for (Node* node : cluster_->nodes()) {
    network_->AddNode(node->id());
    // The datanode shares the node's checkpoint device, as in the paper
    // (HDFS data directories mounted on the HDD/SSD/PMFS under test).
    dfs_->AddDataNode(node->id(), &node->storage());
    node_managers_.push_back(std::make_unique<NodeManager>(node));
    node_managers_.back()->set_observability(config_.obs);
  }
  store_ = std::make_unique<DfsStore>(dfs_.get());
  store_->set_observability(config_.obs);
  engine_ =
      std::make_unique<CheckpointEngine>(sim_.get(), store_.get(), config_.obs);

  RetryPolicy retry;
  retry.max_attempts = std::max(config_.checkpoint_retry_attempts, 1);
  engine_->set_retry_policy(retry);

  if (!config_.fault.empty()) {
    fault_ = std::make_unique<FaultInjector>(sim_.get(), config_.fault,
                                             config_.obs);
    for (Node* node : cluster_->nodes()) {
      node->storage().set_fault_injector(fault_.get(), node->id());
    }
    engine_->set_fault_injector(fault_.get());
  }

  std::vector<NodeManager*> nms;
  nms.reserve(node_managers_.size());
  for (auto& nm : node_managers_) nms.push_back(nm.get());
  rm_ = std::make_unique<ResourceManager>(sim_.get(), std::move(nms), config_);

  for (const NodeCrashEvent& crash : config_.fault.node_crashes) {
    InjectNodeFailure(crash.node, crash.at, crash.down_for);
  }
}

void YarnCluster::InjectNodeFailure(NodeId node, SimTime at,
                                    SimDuration down_for) {
  sim_->ScheduleAt(at, [this, node] {
    rm_->OnNodeFailure(node);
    dfs_->FailDataNode(node);
  });
  if (down_for >= 0) {
    sim_->ScheduleAt(at + down_for, [this, node] {
      rm_->OnNodeRecovered(node);
      dfs_->RecoverDataNode(node);
    });
  }
}

YarnCluster::~YarnCluster() {
  if (config_.obs != nullptr) ClearLogClock();
}

void YarnCluster::Submit(const JobSpec& job, std::vector<JobStage> stages,
                         std::uint64_t seed) {
  ams_.push_back(std::make_unique<DistributedShellAm>(
      sim_.get(), rm_.get(), engine_.get(), network_.get(), job,
      std::move(stages), seed, config_, [this](const DistributedShellAm& am) {
        result_.jobs_completed++;
        const double response =
            ToSeconds(am.finish_time() - am.job().submit_time);
        result_.all_job_responses.Add(response);
        if (BandOf(am.job().priority) == PriorityBand::kProduction) {
          result_.high_priority_job_responses.Add(response);
        } else {
          result_.low_priority_job_responses.Add(response);
        }
        result_.makespan = std::max(result_.makespan, sim_->Now());
      }));
  DistributedShellAm* am = ams_.back().get();
  sim_->ScheduleAt(job.submit_time, [am] { am->Start(); });
}

YarnResult YarnCluster::RunWorkload(const Workload& workload) {
  for (const JobSpec& job : workload.jobs) {
    Submit(job, {},
           config_.seed ^ static_cast<std::uint64_t>(job.id.value() * 7919));
  }
  return Run();
}

YarnResult YarnCluster::Run() {
  sim_->Run();
  // Start from the job completions recorded during the run.
  YarnResult result = std::move(result_);

  // Aggregate AM-side statistics.
  SimDuration lost_work = 0;
  SimDuration overhead_time = 0;
  for (const auto& am : ams_) {
    const AmStats& stats = am->stats();
    CKPT_CHECK(am->Done()) << "job " << am->job().id.value()
                           << " did not finish";
    result.tasks_completed += stats.tasks_done;
    result.preempt_events += stats.preempt_events;
    result.kills += stats.kills;
    result.checkpoints += stats.checkpoints;
    result.incremental_checkpoints += stats.incremental_checkpoints;
    result.restores += stats.restores;
    result.remote_restores += stats.remote_restores;
    result.input_fetches += stats.input_fetches;
    result.input_bytes_moved += stats.input_bytes_moved;
    result.containers_lost += stats.containers_lost;
    result.dump_failures += stats.dump_failures;
    result.restore_failures += stats.restore_failures;
    result.fallback_kills += stats.fallback_kills;
    lost_work += stats.lost_work;
    overhead_time += stats.dump_time + stats.restore_time;
    for (double response : stats.task_response_seconds) {
      result.all_task_responses.push_back(response);
    }
  }

  // Containers are single-core, so container-held time equals core-time.
  const double cpus = kContainerSize.cpus;
  result.lost_work_core_hours = ToHours(lost_work) * cpus;
  result.overhead_core_hours = ToHours(overhead_time) * cpus;
  result.wasted_core_hours =
      result.lost_work_core_hours + result.overhead_core_hours;
  result.total_busy_core_hours = ToHours(cluster_->TotalBusyCoreTime());
  result.goodput_core_hours =
      result.total_busy_core_hours - result.wasted_core_hours;
  result.node_failures = rm_->node_failures();
  result.checkpoint_retries =
      engine_->dump_retries() + engine_->restore_retries();
  result.corrupt_images = engine_->corrupt_images_detected();
  result.blocks_rereplicated = dfs_->blocks_rereplicated();
  result.dfs_files_lost = dfs_->files_lost();
  result.faults_injected = fault_ != nullptr ? fault_->faults_injected() : 0;
  result.energy_kwh = cluster_->TotalEnergyKwh();
  result.checkpoint_cpu_overhead =
      result.total_busy_core_hours > 0
          ? result.overhead_core_hours / result.total_busy_core_hours
          : 0;

  SimDuration device_busy = 0;
  Bytes capacity = 0;
  for (Node* node : cluster_->nodes()) {
    device_busy += node->storage().total_busy_time();
    capacity += node->storage().capacity();
  }
  if (result.makespan > 0 && cluster_->size() > 0) {
    result.io_overhead = static_cast<double>(device_busy) /
                         (static_cast<double>(result.makespan) *
                          cluster_->size());
  }
  if (capacity > 0) {
    result.storage_used_fraction =
        static_cast<double>(dfs_->peak_stored()) /
        static_cast<double>(capacity);
  }
  if (config_.obs != nullptr) {
    MetricsRegistry& m = config_.obs->metrics();
    m.GetGauge("sim.events_processed")
        ->Set(static_cast<double>(sim_->EventsProcessed()));
    m.GetGauge("sched.busy_core_hours")->Set(result.total_busy_core_hours);
    m.GetGauge("sched.wasted_core_hours")->Set(result.wasted_core_hours);
    m.GetGauge("sched.lost_work_core_hours")
        ->Set(result.lost_work_core_hours);
    m.GetGauge("sched.overhead_core_hours")->Set(result.overhead_core_hours);
    m.GetGauge("sched.goodput_core_hours")->Set(result.goodput_core_hours);
    // As ClusterScheduler counts them: each start (allocation) plus each
    // victim asked to vacate.
    m.GetGauge("sched.decisions")
        ->Set(static_cast<double>(rm_->containers_allocated() +
                                  rm_->preempt_events_sent()));
    config_.obs->FinalizeRun();
  }
  return result;
}

}  // namespace ckpt
