// SnapshotStream must emit a generator's jobs in (submit_time, generation
// index) order, replaying them from snapshots taken every few jobs.
#include "trace/workload_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "trace/workload.h"

namespace ckpt {
namespace {

// Toy generator to exercise SnapshotStream's replay machinery:
// interval > 1, stable tie-breaking by generation index.
struct ToyGen {
  std::int64_t total = 0;
  std::int64_t i = 0;

  std::int64_t TotalJobs() const { return total; }
  bool Done() const { return i >= total; }
  JobSpec Next() {
    JobSpec job;
    job.id = JobId(i);
    // Many submit-time ties: emission must fall back to generation order.
    job.submit_time = Seconds(static_cast<double>((i * 7) % 5));
    TaskSpec task;
    task.id = TaskId(i);
    task.job = job.id;
    task.duration = Seconds(1.0);
    job.tasks.push_back(task);
    ++i;
    return job;
  }
};

TEST(SnapshotStream, ReplaysAcrossSnapshotIntervalsWithStableTies) {
  SnapshotStream<ToyGen> stream(ToyGen{100}, /*max_snapshots=*/7);
  EXPECT_EQ(stream.TotalJobs(), 100);
  EXPECT_EQ(stream.TotalTasks(), 100);
  JobSpec job;
  SimTime last = -1;
  std::int64_t last_id_at_time = -1;
  while (stream.Next(&job)) {
    ASSERT_GE(job.submit_time, last);
    if (job.submit_time == last) {
      // Ties emit in generation (id) order — the stable-sort contract.
      EXPECT_GT(job.id.value(), last_id_at_time);
    }
    last = job.submit_time;
    last_id_at_time = job.id.value();
  }
}

TEST(SnapshotStream, EmptyGeneratorEmitsNothing) {
  SnapshotStream<ToyGen> stream(ToyGen{0});
  EXPECT_EQ(stream.TotalJobs(), 0);
  EXPECT_EQ(stream.TotalTasks(), 0);
  JobSpec job;
  EXPECT_FALSE(stream.Next(&job));
}

// Every draw comes from the generator's Rng, so a replay reproduces a job
// only if the snapshot restores that state: random task counts, durations
// and demands, and whole-second submit times with many ties.
struct RngGen {
  std::int64_t total = 0;
  std::int64_t i = 0;
  Rng rng{5};

  std::int64_t TotalJobs() const { return total; }
  bool Done() const { return i >= total; }
  JobSpec Next() {
    JobSpec job;
    job.id = JobId(i);
    job.submit_time = Seconds(static_cast<double>(rng.UniformInt(0, 20)));
    const std::int64_t tasks = rng.UniformInt(1, 4);
    for (std::int64_t t = 0; t < tasks; ++t) {
      TaskSpec task;
      task.id = TaskId(i * 4 + t);
      task.job = job.id;
      task.duration = Seconds(rng.Uniform(1.0, 600.0));
      task.demand = Resources{rng.Uniform(0.5, 8.0), GiB(rng.Uniform(1, 16))};
      task.memory_write_rate = rng.Uniform(0.0, 0.02);
      job.tasks.push_back(task);
    }
    ++i;
    return job;
  }
};

std::vector<JobSpec> Drain(WorkloadStream* stream) {
  std::vector<JobSpec> jobs;
  JobSpec job;
  while (stream->Next(&job)) jobs.push_back(job);
  return jobs;
}

void ExpectJobsEq(const std::vector<JobSpec>& a,
                  const std::vector<JobSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(a[j].id.value(), b[j].id.value());
    EXPECT_EQ(a[j].submit_time, b[j].submit_time);
    ASSERT_EQ(a[j].tasks.size(), b[j].tasks.size());
    for (size_t t = 0; t < a[j].tasks.size(); ++t) {
      const TaskSpec& x = a[j].tasks[t];
      const TaskSpec& y = b[j].tasks[t];
      EXPECT_EQ(x.id.value(), y.id.value());
      EXPECT_EQ(x.duration, y.duration);
      EXPECT_EQ(x.demand.cpus, y.demand.cpus);  // bit-exact, not near
      EXPECT_EQ(x.demand.memory, y.demand.memory);
      EXPECT_EQ(x.memory_write_rate, y.memory_write_rate);
    }
  }
}

// The stream's contract: the jobs, in the order, that materializing the
// generator and calling Workload::SortBySubmitTime produces. The snapshot
// budget sets only how far each job replays: one snapshot (every job
// replays from the first), a few, or one per job.
TEST(SnapshotStream, MatchesMaterializedSortedWorkload) {
  const RngGen gen{.total = 200};
  Workload batch;
  for (RngGen copy = gen; !copy.Done();) batch.jobs.push_back(copy.Next());
  batch.SortBySubmitTime();
  for (std::int64_t budget : {1, 9, 199, 8192}) {
    SCOPED_TRACE("max_snapshots " + std::to_string(budget));
    SnapshotStream<RngGen> stream(gen, budget);
    EXPECT_EQ(stream.TotalJobs(), 200);
    EXPECT_EQ(stream.TotalTasks(), batch.TotalTasks());
    ExpectJobsEq(Drain(&stream), batch.jobs);
  }
}

}  // namespace
}  // namespace ckpt
