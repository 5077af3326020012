// Streaming workload generation: jobs on demand instead of a materialized
// Workload.
//
// A WorkloadStream yields JobSpecs in nondecreasing submit-time order, one
// at a time, so ClusterScheduler::SubmitStream can register arrivals with
// lookahead 1 and peak RSS no longer carries every task spec of the run up
// front. The repository benchmark streams its 100k-node scale_burst
// workload this way.
//
// SnapshotStream turns a generator that produces jobs sequentially from
// copyable state (an Rng plus counters) into a stream. It replays the
// generator's own RNG draw sequence and emits jobs in the (submit_time,
// generation index) order that materializing them and calling
// Workload::SortBySubmitTime's stable sort produces, so a streamed run sees
// the same jobs as a materialized one. Pass 1 runs the whole generation
// once, discarding tasks but recording each job's submit time plus a state
// snapshot every `snapshot interval` jobs (mt19937_64 state is ~2.5 KiB, so
// the interval adapts to keep at most ~8k snapshots). Pass 2 emits jobs in
// sorted order, regenerating each one from the nearest snapshot — bounded
// lookahead memory of O(jobs / interval) snapshots + O(1) materialized
// jobs, never O(tasks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "trace/workload.h"

namespace ckpt {

// Pull iterator over jobs in nondecreasing submit-time order.
class WorkloadStream {
 public:
  virtual ~WorkloadStream() = default;

  // Move the next job into *out; false when the stream is exhausted.
  virtual bool Next(JobSpec* out) = 0;

  // Totals, known up front (generators run a counting pass), so callers
  // can size clusters and print report headers without materializing.
  virtual std::int64_t TotalJobs() const = 0;
  virtual std::int64_t TotalTasks() const = 0;
};

// Streaming adapter over a sequential job generator.
//
// Gen requirements:
//   * copyable — a copy captures the complete generation state (Rng,
//     counters); replaying a copy yields the same jobs;
//   * `std::int64_t TotalJobs() const` — job count, known up front;
//   * `bool Done() const` — all jobs emitted;
//   * `JobSpec Next()` — generate the next job in generation order,
//     consuming state deterministically.
template <typename Gen>
class SnapshotStream : public WorkloadStream {
 public:
  // `max_snapshots` caps snapshot memory; the replay cost per emitted job
  // is bounded by the resulting interval (ceil(jobs / max_snapshots)).
  explicit SnapshotStream(Gen gen, std::int64_t max_snapshots = 8192) {
    CKPT_CHECK_GT(max_snapshots, 0);
    const std::int64_t jobs = gen.TotalJobs();
    interval_ = std::max<std::int64_t>(1, (jobs + max_snapshots - 1) /
                                              max_snapshots);
    snapshots_.reserve(static_cast<size_t>(jobs / interval_ + 1));
    // Pass 1: full generation, keeping only per-job submit times, task
    // counts, and periodic generator snapshots.
    std::vector<SimTime> submits;
    submits.reserve(static_cast<size_t>(jobs));
    for (std::int64_t j = 0; j < jobs; ++j) {
      if (j % interval_ == 0) snapshots_.push_back(gen);
      const JobSpec job = gen.Next();
      total_tasks_ += static_cast<std::int64_t>(job.tasks.size());
      submits.push_back(job.submit_time);
    }
    CKPT_CHECK(gen.Done());
    // Emission order: stable sort on submit time == sort by (submit_time,
    // generation index) — exactly Workload::SortBySubmitTime's order.
    order_.resize(static_cast<size_t>(jobs));
    std::iota(order_.begin(), order_.end(), std::int64_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&submits](std::int64_t a, std::int64_t b) {
                       return submits[static_cast<size_t>(a)] <
                              submits[static_cast<size_t>(b)];
                     });
  }

  bool Next(JobSpec* out) override {
    if (pos_ >= static_cast<std::int64_t>(order_.size())) return false;
    const std::int64_t target = order_[static_cast<size_t>(pos_++)];
    // Replay from the nearest snapshot at or before `target`, discarding
    // the (at most interval_ - 1) jobs in between.
    Gen replay = snapshots_[static_cast<size_t>(target / interval_)];
    for (std::int64_t j = (target / interval_) * interval_; j < target; ++j) {
      (void)replay.Next();
    }
    *out = replay.Next();
    CKPT_CHECK_GE(out->submit_time, last_submit_) << "stream went backwards";
    last_submit_ = out->submit_time;
    return true;
  }

  std::int64_t TotalJobs() const override {
    return static_cast<std::int64_t>(order_.size());
  }
  std::int64_t TotalTasks() const override { return total_tasks_; }

 private:
  std::vector<Gen> snapshots_;
  std::vector<std::int64_t> order_;  // generation indices in emission order
  std::int64_t interval_ = 1;
  std::int64_t pos_ = 0;
  std::int64_t total_tasks_ = 0;
  SimTime last_submit_ = 0;
};

}  // namespace ckpt
