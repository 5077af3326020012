// Golden results for YarnCluster: small seeded Facebook-mix runs whose
// every YarnResult field must equal a value recorded from the
// ResourceManager whose preemption monitor walked every live container in
// every round and whose capacity queue usage was counted by walking the
// live containers.
//
// The RM now counts its live containers per priority, moving the count
// wherever a container is allocated, released or lost to a node crash. A
// round in which no live container ranks below the top ask returns before
// collecting victims, and capacity queue usage is summed from the counts.
// Each of these claims identical decisions, so the recorded results are
// the oracle for all of them at once. The matrix covers both scheduling
// modes, every preemption policy that preempts, all three victim orders
// and a node crash with recovery in each mode (containers leave the counts
// while the node drains).
//
// Every cell also runs with an Observability attached and must match the
// same line: a traced run records the RM's dispatch audit, and none of
// that may move a decision.
//
// DagGolden pins DAG and MapReduce runs the same way, from the lines
// RunDagWorkload's own aggregation (DagRunResult, MapReduceRunResult) gave
// before those runs reported through YarnCluster's: every field both
// could compute, plain and traced. It is the oracle for a change to how
// DAG jobs are lowered, submitted or aggregated.
//
// On a mismatch the test prints the cell's actual line; recording a new
// golden value means pasting it into kGolden (or kDagGolden) below, and
// says why the results changed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "golden_line.h"
#include "mapreduce/mapreduce.h"
#include "obs/observability.h"
#include "trace/facebook_workload.h"
#include "yarn/yarn_cluster.h"

namespace ckpt {
namespace {

struct GoldenCell {
  const char* name;
  SchedulingMode mode;
  PreemptionPolicy policy;
  StorageMedium (*medium)();
  VictimOrder order = VictimOrder::kCostAware;
  // Node 1 crashes while the first production burst preempts, and
  // rejoins empty two minutes later.
  bool crash = false;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

YarnResult RunCell(const GoldenCell& cell, Observability* obs) {
  FacebookWorkloadConfig fb;
  fb.total_jobs = 40;
  fb.total_tasks = 1000;
  fb.cluster_containers = 32;
  // Bring the production bursts forward so they land while low-priority
  // work still occupies the small cluster.
  fb.production_period = Seconds(120);
  const Workload workload = GenerateFacebookWorkload(fb);

  YarnConfig config;
  config.num_nodes = 4;
  config.containers_per_node = 8;
  config.scheduling_mode = cell.mode;
  config.policy = cell.policy;
  config.medium = cell.medium();
  config.victim_order = cell.order;
  config.obs = obs;
  if (cell.crash) {
    config.fault.node_crashes = {{NodeId(1), Seconds(160), Seconds(120)}};
  }
  YarnCluster yarn(config);
  return yarn.RunWorkload(workload);
}

// A result as "name=value" tokens: integers exactly, doubles to 17
// significant digits (which round-trips), and each sample set as its
// count, sum, min, max, p50 and p95.
class Tokens {
 public:
  void Num(const std::string& name, double v) {
    std::snprintf(buf_, sizeof(buf_), "%s=%.17g", name.c_str(), v);
    out_.emplace_back(buf_);
  }
  void Int(const std::string& name, std::int64_t v) {
    std::snprintf(buf_, sizeof(buf_), "%s=%" PRId64, name.c_str(), v);
    out_.emplace_back(buf_);
  }
  void Stats(const std::string& name, const SummaryStats& s) {
    Int(name + ".n", s.count());
    Num(name + ".sum", s.sum());
    Num(name + ".min", s.Min());
    Num(name + ".max", s.Max());
    Num(name + ".p50", s.Quantile(0.5));
    Num(name + ".p95", s.Quantile(0.95));
  }
  std::vector<std::string> Take() { return std::move(out_); }

 private:
  std::vector<std::string> out_;
  char buf_[128];
};

// Every field of the result.
std::vector<std::string> Fields(const YarnResult& r) {
  Tokens t;
  t.Num("wasted_ch", r.wasted_core_hours);
  t.Num("lost_ch", r.lost_work_core_hours);
  t.Num("overhead_ch", r.overhead_core_hours);
  t.Num("busy_ch", r.total_busy_core_hours);
  t.Num("energy_kwh", r.energy_kwh);
  t.Stats("job_rt_low", r.low_priority_job_responses);
  t.Stats("job_rt_high", r.high_priority_job_responses);
  t.Stats("job_rt", r.all_job_responses);
  SummaryStats task_rt;
  for (const double x : r.all_task_responses) task_rt.Add(x);
  t.Stats("task_rt", task_rt);
  t.Num("ckpt_cpu", r.checkpoint_cpu_overhead);
  t.Num("io_overhead", r.io_overhead);
  t.Num("storage_used", r.storage_used_fraction);
  t.Int("preempt_events", r.preempt_events);
  t.Int("kills", r.kills);
  t.Int("checkpoints", r.checkpoints);
  t.Int("incremental", r.incremental_checkpoints);
  t.Int("restores", r.restores);
  t.Int("remote_restores", r.remote_restores);
  t.Int("jobs", r.jobs_completed);
  t.Int("tasks", r.tasks_completed);
  t.Int("makespan", r.makespan);
  t.Int("node_failures", r.node_failures);
  t.Int("containers_lost", r.containers_lost);
  t.Int("dump_failures", r.dump_failures);
  t.Int("restore_failures", r.restore_failures);
  t.Int("fallback_kills", r.fallback_kills);
  t.Int("retries", r.checkpoint_retries);
  t.Int("corrupt_images", r.corrupt_images);
  t.Int("rereplicated", r.blocks_rereplicated);
  t.Int("dfs_files_lost", r.dfs_files_lost);
  t.Int("faults", r.faults_injected);
  t.Num("goodput_ch", r.goodput_core_hours);
  return t.Take();
}

// Recorded from the RM that walked every live container in every monitor
// round, one line per cell (the name order of Fields()).
const Golden kGolden[] = {
    {"KillRandom",
     "wasted_ch=1.9654838716666667 lost_ch=1.9654838716666667 overhead_ch=0 "
     "busy_ch=33.434404431944444 energy_kwh=1.4131415991631948 "
     "job_rt_low.n=35 job_rt_low.sum=92097.816507000025 "
     "job_rt_low.min=871.24443499999995 job_rt_low.max=4118.0853120000002 "
     "job_rt_low.p50=2764.4063599999999 job_rt_low.p95=3698.4498976 "
     "job_rt_high.n=5 job_rt_high.sum=410.52303699999999 "
     "job_rt_high.min=72.763397999999995 job_rt_high.max=115.961944 "
     "job_rt_high.p50=73.803254999999993 job_rt_high.p95=107.657347 "
     "job_rt.n=40 job_rt.sum=92508.339544000017 job_rt.min=72.763397999999995 "
     "job_rt.max=4118.0853120000002 job_rt.p50=2671.0971355000001 "
     "job_rt.p95=3674.9912746 task_rt.n=996 task_rt.sum=1493112.1556320002 "
     "task_rt.min=8.5329119999999996 task_rt.max=4118.0853120000002 "
     "task_rt.p50=1455.5930309999999 task_rt.p95=3086.7670585000005 "
     "ckpt_cpu=0 io_overhead=0 storage_used=0 preempt_events=114 kills=114 "
     "checkpoints=0 incremental=0 restores=0 remote_restores=0 jobs=40 "
     "tasks=996 makespan=4248433925 node_failures=0 containers_lost=0 "
     "dump_failures=0 restore_failures=0 fallback_kills=0 retries=0 "
     "corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.468920560277777"},
    {"CheckpointHdd",
     "wasted_ch=0.55599245361111116 lost_ch=0 overhead_ch=0.55599245361111116 "
     "busy_ch=31.468894449166665 energy_kwh=1.3963626790173618 "
     "job_rt_low.n=35 job_rt_low.sum=87206.623963999984 "
     "job_rt_low.min=1083.8738060000001 job_rt_low.max=4407.6547909999999 "
     "job_rt_low.p50=2587.9719989999999 job_rt_low.p95=3836.4841863000001 "
     "job_rt_high.n=5 job_rt_high.sum=830.18929000000003 "
     "job_rt_high.min=105.179621 job_rt_high.max=206.266299 "
     "job_rt_high.p50=176.75128799999999 job_rt_high.p95=205.04111300000002 "
     "job_rt.n=40 job_rt.sum=88036.813253999964 job_rt.min=105.179621 "
     "job_rt.max=4407.6547909999999 job_rt.p50=2238.4068939999997 "
     "job_rt.p95=3835.3998610499998 task_rt.n=996 "
     "task_rt.sum=1542906.6284080001 task_rt.min=8.5329119999999996 "
     "task_rt.max=4407.6547909999999 task_rt.p50=1551.7632484999999 "
     "task_rt.p95=2963.3146337500002 ckpt_cpu=0.017668000841568634 "
     "io_overhead=0.1739678041733824 storage_used=0.0281328125 "
     "preempt_events=20 kills=0 checkpoints=17 incremental=0 restores=20 "
     "remote_restores=6 jobs=40 tasks=996 makespan=4424866418 node_failures=0 "
     "containers_lost=0 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=30.912901995555554"},
    {"AdaptiveNvm",
     "wasted_ch=0.067909977499999996 lost_ch=0.0010075258333333333 "
     "overhead_ch=0.066902451666666668 busy_ch=31.469924474999999 "
     "energy_kwh=1.3380095294430552 job_rt_low.n=35 "
     "job_rt_low.sum=86963.283508000022 job_rt_low.min=822.32527800000003 "
     "job_rt_low.max=3919.2414290000002 job_rt_low.p50=2678.4792550000002 "
     "job_rt_low.p95=3400.8066409999992 job_rt_high.n=5 "
     "job_rt_high.sum=450.63056999999992 job_rt_high.min=77.529347999999999 "
     "job_rt_high.max=124.55732 job_rt_high.p50=82.263306999999998 "
     "job_rt_high.p95=117.0506398 job_rt.n=40 job_rt.sum=87413.914078000002 "
     "job_rt.min=77.529347999999999 job_rt.max=3919.2414290000002 "
     "job_rt.p50=2582.7902814999998 job_rt.p95=3352.2332834999993 "
     "task_rt.n=996 task_rt.sum=1395675.1446180006 "
     "task_rt.min=8.5329119999999996 task_rt.max=3919.2414290000002 "
     "task_rt.p50=1367.5046670000002 task_rt.p95=2877.0593177500004 "
     "ckpt_cpu=0.0021259171346221248 io_overhead=0.017728196312568865 "
     "storage_used=1.3689778645833333 preempt_events=101 kills=3 "
     "checkpoints=98 incremental=19 restores=98 remote_restores=22 jobs=40 "
     "tasks=996 makespan=4049590042 node_failures=0 containers_lost=0 "
     "dump_failures=0 restore_failures=0 fallback_kills=0 retries=0 "
     "corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.402014497499998"},
    {"AdaptiveLowestPriority",
     "wasted_ch=0.37063100083333334 lost_ch=0.03241892138888889 "
     "overhead_ch=0.33821207944444442 busy_ch=31.501322259444443 "
     "energy_kwh=1.3174238143708337 job_rt_low.n=35 "
     "job_rt_low.sum=84231.884623999998 job_rt_low.min=860.05713700000001 "
     "job_rt_low.max=3814.6027530000001 job_rt_low.p50=2614.9975079999999 "
     "job_rt_low.p95=3561.9653199999993 job_rt_high.n=5 "
     "job_rt_high.sum=693.60511099999997 job_rt_high.min=106.31940899999999 "
     "job_rt_high.max=183.884761 job_rt_high.p50=119.984157 "
     "job_rt_high.p95=180.92026659999999 job_rt.n=40 "
     "job_rt.sum=84925.489734999996 job_rt.min=106.31940899999999 "
     "job_rt.max=3814.6027530000001 job_rt.p50=2188.0259510000001 "
     "job_rt.p95=3492.3229449999994 task_rt.n=996 "
     "task_rt.sum=1455785.4918910007 task_rt.min=8.5329119999999996 "
     "task_rt.max=3814.6027530000001 task_rt.p50=1452.2057520000001 "
     "task_rt.p95=2920.5424815000001 ckpt_cpu=0.010736440732834468 "
     "io_overhead=0.11872885433499916 storage_used=0.28192952473958333 "
     "preempt_events=52 kills=10 checkpoints=42 incremental=3 restores=42 "
     "remote_restores=9 jobs=40 tasks=996 makespan=3912711837 node_failures=0 "
     "containers_lost=0 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.130691258611108"},
    {"AdaptiveCrash",
     "wasted_ch=0.54504628833333335 lost_ch=0.29713553666666664 "
     "overhead_ch=0.24791075166666668 busy_ch=31.766042208055556 "
     "energy_kwh=1.3280173805256947 job_rt_low.n=35 "
     "job_rt_low.sum=84544.963004999998 job_rt_low.min=833.632927 "
     "job_rt_low.max=3852.161004 job_rt_low.p50=2619.3796259999999 "
     "job_rt_low.p95=3690.539913999999 job_rt_high.n=5 "
     "job_rt_high.sum=677.12945300000001 job_rt_high.min=72.763397999999995 "
     "job_rt_high.max=198.53929600000001 job_rt_high.p50=141.891842 "
     "job_rt_high.p95=188.89058779999999 job_rt.n=40 "
     "job_rt.sum=85222.092457999999 job_rt.min=72.763397999999995 "
     "job_rt.max=3852.161004 job_rt.p50=2173.3111875 "
     "job_rt.p95=3647.5886914999992 task_rt.n=996 "
     "task_rt.sum=1497914.9448910004 task_rt.min=8.5329119999999996 "
     "task_rt.max=3852.161004 task_rt.p50=1496.2139535000001 "
     "task_rt.p95=2979.2131584999997 ckpt_cpu=0.0078042694158417681 "
     "io_overhead=0.095331998788418637 storage_used=0.15385131835937499 "
     "preempt_events=64 kills=33 checkpoints=30 incremental=0 restores=32 "
     "remote_restores=2 jobs=40 tasks=996 makespan=3942523484 node_failures=1 "
     "containers_lost=8 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=68 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.22099591972222"},
    {"CapacityKill",
     "wasted_ch=0.40235802166666668 lost_ch=0.40235802166666668 overhead_ch=0 "
     "busy_ch=31.871260248611112 energy_kwh=1.3048886948381941 "
     "job_rt_low.n=35 job_rt_low.sum=79473.524740000008 "
     "job_rt_low.min=848.07709599999998 job_rt_low.max=3471.538591 "
     "job_rt_low.p50=2403.0962450000002 job_rt_low.p95=3301.8513983000003 "
     "job_rt_high.n=5 job_rt_high.sum=699.74697400000002 "
     "job_rt_high.min=101.31676400000001 job_rt_high.max=180.839945 "
     "job_rt_high.p50=138.832639 job_rt_high.p95=176.14794999999998 "
     "job_rt.n=40 job_rt.sum=80173.271714000017 job_rt.min=101.31676400000001 "
     "job_rt.max=3471.538591 job_rt.p50=2067.460427 "
     "job_rt.p95=3291.2145205500001 task_rt.n=996 "
     "task_rt.sum=1433242.1106129987 task_rt.min=8.5329119999999996 "
     "task_rt.max=3471.538591 task_rt.p50=1410.4881865 "
     "task_rt.p95=2908.4049987500002 ckpt_cpu=0 io_overhead=0 storage_used=0 "
     "preempt_events=48 kills=48 checkpoints=0 incremental=0 restores=0 "
     "remote_restores=0 jobs=40 tasks=996 makespan=3778620038 node_failures=0 "
     "containers_lost=0 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.468902226944444"},
    {"CapacityAdaptive",
     "wasted_ch=0.027648438055555558 lost_ch=0.00061058472222222219 "
     "overhead_ch=0.027037853333333334 busy_ch=31.469511700555554 "
     "energy_kwh=1.3042772300847223 job_rt_low.n=35 "
     "job_rt_low.sum=78836.400460000019 job_rt_low.min=843.35039400000005 "
     "job_rt_low.max=3726.6864260000002 job_rt_low.p50=2354.1893660000001 "
     "job_rt_low.p95=3326.600749199999 job_rt_high.n=5 "
     "job_rt_high.sum=730.78970400000003 job_rt_high.min=107.02325500000001 "
     "job_rt_high.max=186.852518 job_rt_high.p50=146.132822 "
     "job_rt_high.p95=182.16937000000001 job_rt.n=40 "
     "job_rt.sum=79567.190164000014 job_rt.min=107.02325500000001 "
     "job_rt.max=3726.6864260000002 job_rt.p50=2009.410106 "
     "job_rt.p95=3289.1560406999993 task_rt.n=996 "
     "task_rt.sum=1380854.898750999 task_rt.min=8.5329119999999996 "
     "task_rt.max=3726.6864260000002 task_rt.p50=1355.178717 "
     "task_rt.p95=2829.6426267500001 ckpt_cpu=0.00085917613182590362 "
     "io_overhead=0.0083665275429266155 storage_used=0.549468994140625 "
     "preempt_events=44 kills=2 checkpoints=42 incremental=0 restores=42 "
     "remote_restores=6 jobs=40 tasks=996 makespan=3832799251 node_failures=0 "
     "containers_lost=0 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=0 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.441863262499997"},
    {"CapacityAdaptiveCrash",
     "wasted_ch=0.3431129822222222 lost_ch=0.25395419111111112 "
     "overhead_ch=0.089158791111111108 busy_ch=31.72285197361111 "
     "energy_kwh=1.3155403109618058 job_rt_low.n=35 "
     "job_rt_low.sum=81614.712031000017 job_rt_low.min=929.46452099999999 "
     "job_rt_low.max=3540.248513 job_rt_low.p50=2486.5130960000001 "
     "job_rt_low.p95=3363.1289418999995 job_rt_high.n=5 "
     "job_rt_high.sum=849.36281599999995 job_rt_high.min=122.835741 "
     "job_rt_high.max=221.07703799999999 job_rt_high.p50=150.139734 "
     "job_rt_high.p95=219.54532259999996 job_rt.n=40 "
     "job_rt.sum=82464.074847000011 job_rt.min=122.835741 "
     "job_rt.max=3540.248513 job_rt.p50=2160.7783095 "
     "job_rt.p95=3342.2551611499998 task_rt.n=996 "
     "task_rt.sum=1482045.2212029998 task_rt.min=8.5329119999999996 "
     "task_rt.max=3540.248513 task_rt.p50=1485.9306975 "
     "task_rt.p95=2920.2339250000005 ckpt_cpu=0.0028105540821259864 "
     "io_overhead=0.041631050989449199 storage_used=0.058610026041666666 "
     "preempt_events=32 kills=20 checkpoints=12 incremental=0 restores=10 "
     "remote_restores=0 jobs=40 tasks=996 makespan=3868560910 node_failures=1 "
     "containers_lost=8 dump_failures=0 restore_failures=0 fallback_kills=0 "
     "retries=0 corrupt_images=0 rereplicated=68 dfs_files_lost=0 faults=0 "
     "goodput_ch=31.379738991388887"},
};

class YarnGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(YarnGolden, EveryResultFieldMatchesTheRecording) {
  ExpectGoldenLine(kGolden, GetParam().name,
                   Fields(RunCell(GetParam(), nullptr)));
}

TEST_P(YarnGolden, TracedRunMatchesTheRecording) {
  Observability obs;
  ExpectGoldenLine(kGolden, GetParam().name,
                   Fields(RunCell(GetParam(), &obs)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, YarnGolden,
    ::testing::Values(
        GoldenCell{"KillRandom", SchedulingMode::kPriority,
                   PreemptionPolicy::kKill, StorageMedium::Hdd,
                   VictimOrder::kRandom},
        GoldenCell{"CheckpointHdd", SchedulingMode::kPriority,
                   PreemptionPolicy::kCheckpoint, StorageMedium::Hdd},
        GoldenCell{"AdaptiveNvm", SchedulingMode::kPriority,
                   PreemptionPolicy::kAdaptive, StorageMedium::Nvm},
        GoldenCell{"AdaptiveLowestPriority", SchedulingMode::kPriority,
                   PreemptionPolicy::kAdaptive, StorageMedium::Ssd,
                   VictimOrder::kLowestPriority},
        GoldenCell{"AdaptiveCrash", SchedulingMode::kPriority,
                   PreemptionPolicy::kAdaptive, StorageMedium::Ssd,
                   VictimOrder::kCostAware, /*crash=*/true},
        GoldenCell{"CapacityKill", SchedulingMode::kCapacity,
                   PreemptionPolicy::kKill, StorageMedium::Hdd},
        GoldenCell{"CapacityAdaptive", SchedulingMode::kCapacity,
                   PreemptionPolicy::kAdaptive, StorageMedium::Nvm},
        GoldenCell{"CapacityAdaptiveCrash", SchedulingMode::kCapacity,
                   PreemptionPolicy::kAdaptive, StorageMedium::Ssd,
                   VictimOrder::kCostAware, /*crash=*/true}),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

// --- DAG and MapReduce runs --------------------------------------------------

DagStageSpec Stage(int id, std::vector<int> deps, int tasks,
                   SimDuration duration, Bytes output = 0) {
  DagStageSpec stage;
  stage.id = id;
  stage.depends_on = std::move(deps);
  stage.num_tasks = tasks;
  stage.task_duration = duration;
  stage.output_bytes = output;
  stage.demand = Resources{1.0, GiB(1)};
  return stage;
}

// test_dag's contended DAG: a diamond with a four-minute left branch, and
// an 8-task priority-9 burst at 60 s that takes every container.
std::vector<DagJobSpec> ContendedDag() {
  DagJobSpec batch;
  batch.id = JobId(0);
  batch.priority = 1;
  batch.stages = {
      Stage(0, {}, 4, Seconds(30), MiB(64)),
      Stage(1, {0}, 2, Minutes(4), MiB(32)),
      Stage(2, {0}, 2, Seconds(20), MiB(32)),
      Stage(3, {1, 2}, 1, Seconds(30)),
  };
  DagJobSpec burst;
  burst.id = JobId(1);
  burst.submit_time = Seconds(60);
  burst.priority = 9;
  burst.stages = {Stage(0, {}, 8, Seconds(40))};
  return {batch, burst};
}

// bench_ext_mapreduce's jobs: a 48-map, 24-reduce batch job and four
// 36-map production bursts, 500 s apart, through its reduce phase.
std::vector<MapReduceJobSpec> MapReduceMix() {
  std::vector<MapReduceJobSpec> jobs;
  MapReduceJobSpec batch;
  batch.id = JobId(0);
  batch.priority = 1;
  batch.num_maps = 48;
  batch.num_reduces = 24;
  batch.map_duration = Seconds(40);
  batch.reduce_duration = Minutes(8);
  batch.map_output_bytes = MiB(256);
  batch.reduce_demand = Resources{1.0, GiB(2)};
  jobs.push_back(batch);
  for (int burst = 0; burst < 4; ++burst) {
    MapReduceJobSpec prod;
    prod.id = JobId(1 + burst);
    prod.priority = 9;
    prod.submit_time = Seconds(180 + 500 * burst);
    prod.num_maps = 36;
    prod.num_reduces = 0;
    prod.map_duration = Seconds(60);
    prod.map_output_bytes = 0;
    jobs.push_back(prod);
  }
  return jobs;
}

struct DagCell {
  const char* name;
  // The MapReduce mix on 2 nodes x 24 containers, else the contended DAG
  // on 2 x 4.
  bool mapreduce;
  PreemptionPolicy policy;
  StorageMedium (*medium)();
  // Node 0 crashes at 90 s, while the burst runs, and rejoins empty a
  // minute later.
  bool crash = false;
};

void PrintTo(const DagCell& cell, std::ostream* os) { *os << cell.name; }

YarnResult RunDagCell(const DagCell& cell, Observability* obs) {
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = cell.mapreduce ? 24 : 4;
  config.policy = cell.policy;
  config.medium = cell.medium();
  config.obs = obs;
  if (cell.crash) {
    config.fault.node_crashes = {{NodeId(0), Seconds(90), Seconds(60)}};
  }
  if (cell.mapreduce) return RunMapReduceWorkload(MapReduceMix(), config);
  return RunDagWorkload(ContendedDag(), config);
}

// The fields RunDagWorkload's own aggregation reported. Containers are one
// core, so lost_ch is the lost work's hours and overhead_ch the dump and
// restore hours.
std::vector<std::string> DagFields(const YarnResult& r) {
  Tokens t;
  t.Int("jobs", r.jobs_completed);
  t.Int("tasks", r.tasks_completed);
  t.Int("preempt_events", r.preempt_events);
  t.Int("kills", r.kills);
  t.Int("checkpoints", r.checkpoints);
  t.Int("incremental", r.incremental_checkpoints);
  t.Int("restores", r.restores);
  t.Int("input_fetches", r.input_fetches);
  t.Int("input_bytes", r.input_bytes_moved);
  t.Num("lost_ch", r.lost_work_core_hours);
  t.Num("overhead_ch", r.overhead_core_hours);
  t.Int("makespan", r.makespan);
  t.Stats("job_rt", r.all_job_responses);
  return t.Take();
}

// Recorded from RunDagWorkload's own aggregation, one line per cell (the
// name order of DagFields()).
const Golden kDagGolden[] = {
    {"DagKillHdd",
     "jobs=2 tasks=17 preempt_events=2 kills=2 checkpoints=0 incremental=0 "
     "restores=0 input_fetches=7 input_bytes=939524096 "
     "lost_ch=0.016636228888888889 overhead_ch=0 makespan=370110576 job_rt.n=2 "
     "job_rt.sum=410.11257599999999 job_rt.min=40.002000000000002 "
     "job_rt.max=370.11057599999998 job_rt.p50=205.056288 "
     "job_rt.p95=353.60514719999992"},
    {"DagCheckpointHdd",
     "jobs=2 tasks=17 preempt_events=2 kills=0 checkpoints=2 incremental=0 "
     "restores=2 input_fetches=5 input_bytes=671088640 lost_ch=0 "
     "overhead_ch=0.034524927222222224 makespan=398712941 job_rt.n=2 "
     "job_rt.sum=478.71494100000001 job_rt.min=80.001999999999995 "
     "job_rt.max=398.712941 job_rt.p50=239.35747050000001 "
     "job_rt.p95=382.77739395000003"},
    {"DagAdaptiveNvm",
     "jobs=2 tasks=17 preempt_events=2 kills=0 checkpoints=2 incremental=0 "
     "restores=2 input_fetches=5 input_bytes=671088640 lost_ch=0 "
     "overhead_ch=0.00066697999999999996 makespan=340640014 job_rt.n=2 "
     "job_rt.sum=382.17449900000003 job_rt.min=41.534484999999997 "
     "job_rt.max=340.64001400000001 job_rt.p50=191.08724950000001 "
     "job_rt.p95=325.68473754999997"},
    {"MapReduceKillHdd",
     "jobs=5 tasks=216 preempt_events=12 kills=12 checkpoints=0 incremental=0 "
     "restores=0 input_fetches=36 input_bytes=19327351680 "
     "lost_ch=0.46415756000000002 overhead_ch=0 makespan=1740001000 job_rt.n=5 "
     "job_rt.sum=961.29561199999989 job_rt.min=60.000999999999998 "
     "job_rt.max=721.29061200000001 job_rt.p50=60.000999999999998 "
     "job_rt.p95=589.03288959999986"},
    {"MapReduceAdaptiveNvm",
     "jobs=5 tasks=216 preempt_events=12 kills=0 checkpoints=12 incremental=0 "
     "restores=12 input_fetches=24 input_bytes=12884901120 lost_ch=0 "
     "overhead_ch=0.0079686033333333326 makespan=1740001000 job_rt.n=5 "
     "job_rt.sum=841.31008899999995 job_rt.min=60.000999999999998 "
     "job_rt.max=586.23648000000003 job_rt.p50=60.000999999999998 "
     "job_rt.p95=484.00330579999991"},
    {"DagAdaptiveSsdCrash",
     "jobs=2 tasks=17 preempt_events=2 kills=0 checkpoints=2 incremental=0 "
     "restores=2 input_fetches=5 input_bytes=671088640 "
     "lost_ch=0.028163574444444443 overhead_ch=0.0091130111111111106 "
     "makespan=394210824 job_rt.n=2 job_rt.sum=492.82395600000001 "
     "job_rt.min=98.613131999999993 job_rt.max=394.210824 "
     "job_rt.p50=246.411978 job_rt.p95=379.4309394"},
};

class DagGolden : public ::testing::TestWithParam<DagCell> {};

TEST_P(DagGolden, EveryResultFieldMatchesTheRecording) {
  ExpectGoldenLine(kDagGolden, GetParam().name,
                   DagFields(RunDagCell(GetParam(), nullptr)));
}

TEST_P(DagGolden, TracedRunMatchesTheRecording) {
  Observability obs;
  ExpectGoldenLine(kDagGolden, GetParam().name,
                   DagFields(RunDagCell(GetParam(), &obs)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DagGolden,
    ::testing::Values(
        DagCell{"DagKillHdd", false, PreemptionPolicy::kKill,
                StorageMedium::Hdd},
        DagCell{"DagCheckpointHdd", false, PreemptionPolicy::kCheckpoint,
                StorageMedium::Hdd},
        DagCell{"DagAdaptiveNvm", false, PreemptionPolicy::kAdaptive,
                StorageMedium::Nvm},
        DagCell{"MapReduceKillHdd", true, PreemptionPolicy::kKill,
                StorageMedium::Hdd},
        DagCell{"MapReduceAdaptiveNvm", true, PreemptionPolicy::kAdaptive,
                StorageMedium::Nvm},
        DagCell{"DagAdaptiveSsdCrash", false, PreemptionPolicy::kAdaptive,
                StorageMedium::Ssd, /*crash=*/true}),
    [](const ::testing::TestParamInfo<DagCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ckpt
