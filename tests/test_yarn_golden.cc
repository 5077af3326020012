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
// On a mismatch the test prints the cell's actual line; recording a new
// golden value means pasting it into kGolden below, and says why the
// results changed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "golden_line.h"
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

// Every field of the result as "name=value" tokens: integers exactly,
// doubles to 17 significant digits (which round-trips), and each sample
// set as its count, sum, min, max, p50 and p95.
std::vector<std::string> Fields(const YarnResult& r) {
  std::vector<std::string> out;
  char buf[128];
  auto num = [&](const std::string& name, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g", name.c_str(), v);
    out.emplace_back(buf);
  };
  auto integer = [&](const char* name, std::int64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%" PRId64, name, v);
    out.emplace_back(buf);
  };
  auto stats = [&](const std::string& name, const SummaryStats& s) {
    integer((name + ".n").c_str(), s.count());
    num(name + ".sum", s.sum());
    num(name + ".min", s.Min());
    num(name + ".max", s.Max());
    num(name + ".p50", s.Quantile(0.5));
    num(name + ".p95", s.Quantile(0.95));
  };
  num("wasted_ch", r.wasted_core_hours);
  num("lost_ch", r.lost_work_core_hours);
  num("overhead_ch", r.overhead_core_hours);
  num("busy_ch", r.total_busy_core_hours);
  num("energy_kwh", r.energy_kwh);
  stats("job_rt_low", r.low_priority_job_responses);
  stats("job_rt_high", r.high_priority_job_responses);
  stats("job_rt", r.all_job_responses);
  SummaryStats task_rt;
  for (const double x : r.all_task_responses) task_rt.Add(x);
  stats("task_rt", task_rt);
  num("ckpt_cpu", r.checkpoint_cpu_overhead);
  num("io_overhead", r.io_overhead);
  num("storage_used", r.storage_used_fraction);
  integer("preempt_events", r.preempt_events);
  integer("kills", r.kills);
  integer("checkpoints", r.checkpoints);
  integer("incremental", r.incremental_checkpoints);
  integer("restores", r.restores);
  integer("remote_restores", r.remote_restores);
  integer("jobs", r.jobs_completed);
  integer("tasks", r.tasks_completed);
  integer("makespan", r.makespan);
  integer("node_failures", r.node_failures);
  integer("containers_lost", r.containers_lost);
  integer("dump_failures", r.dump_failures);
  integer("restore_failures", r.restore_failures);
  integer("fallback_kills", r.fallback_kills);
  integer("retries", r.checkpoint_retries);
  integer("corrupt_images", r.corrupt_images);
  integer("rereplicated", r.blocks_rereplicated);
  integer("dfs_files_lost", r.dfs_files_lost);
  integer("faults", r.faults_injected);
  num("goodput_ch", r.goodput_core_hours);
  return out;
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

}  // namespace
}  // namespace ckpt
