#include "checkpoint/checkpoint_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/observability.h"

namespace ckpt {

namespace {
// Dump/restore latencies span ~ms (NVM) to minutes (loaded HDD).
const std::vector<double> kIoSecondsBounds{0.01, 0.1, 0.5, 1,  5,  10,
                                           30,   60,  120, 300, 600};
}  // namespace

CheckpointEngine::CheckpointEngine(Simulator* sim, CheckpointStore* store,
                                   Observability* obs)
    : sim_(sim), store_(store), obs_(obs) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(store != nullptr);
}

CheckpointEngine::NodeObs& CheckpointEngine::ObsFor(NodeId node) {
  const size_t i = static_cast<size_t>(node.value());
  if (node_obs_.size() <= i) node_obs_.resize(i + 1);
  return node_obs_[i];
}

std::string CheckpointEngine::ImagePath(const ProcessState& proc) const {
  return "/checkpoints/task-" + std::to_string(proc.task.value()) + "-img" +
         std::to_string(next_image_);
}

Bytes CheckpointEngine::DumpBytes(const ProcessState& proc,
                                  bool incremental) const {
  const bool can_increment = incremental && proc.has_image &&
                             proc.memory.tracking_enabled();
  if (can_increment) return proc.memory.DirtyBytes() + proc.metadata_bytes;
  return proc.memory.size() + proc.metadata_bytes;
}

SimDuration CheckpointEngine::EstimateDumpService(const ProcessState& proc,
                                                  NodeId node,
                                                  bool incremental) const {
  return store_->EstimateSaveService(DumpBytes(proc, incremental), node);
}

SimDuration CheckpointEngine::EstimateRestore(const ProcessState& proc,
                                              NodeId node, bool local) const {
  const Bytes size = proc.has_image
                         ? proc.image_bytes
                         : proc.memory.size() + proc.metadata_bytes;
  return store_->EstimateLoadBytes(size, node, local);
}

SimDuration CheckpointEngine::EstimateRestoreService(const ProcessState& proc,
                                                     NodeId node,
                                                     bool local) const {
  const Bytes size = proc.has_image
                         ? proc.image_bytes
                         : proc.memory.size() + proc.metadata_bytes;
  return store_->EstimateLoadBytesService(size, node, local);
}

SimDuration CheckpointEngine::BackoffDelay(int attempt) const {
  // Attempt n (1-based) failed; wait backoff * multiplier^(n-1), clamped
  // to max_backoff so a long retry budget cannot grow the delay
  // geometrically past simulation end.
  const double max_delay =
      static_cast<double>(std::max<SimDuration>(retry_.max_backoff, 1));
  double delay = static_cast<double>(retry_.backoff);
  for (int i = 1; i < attempt && delay < max_delay; ++i) {
    delay *= retry_.multiplier;
  }
  return static_cast<SimDuration>(std::min(delay, max_delay));
}

void CheckpointEngine::CountRetry(const char* op, SimDuration backoff,
                                  NodeId node) {
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("ckpt.retry", {{"op", op}})->Inc();
    obs_->tracer().Instant("fault.ckpt_retry", "fault", "ckpt", sim_->Now(),
                           {TraceArg::Str("op", op),
                            TraceArg::Num("backoff_s", ToSeconds(backoff))});
    obs_->waste().Add(WasteCause::kFaultRetry, ToSeconds(backoff), -1,
                      node.valid() ? node.value() : -1);
  }
}

void CheckpointEngine::Dump(ProcessState& proc, NodeId node,
                            const DumpOptions& opts,
                            std::function<void(DumpResult)> done) {
  DumpAttempt(proc, node, opts, 1, std::move(done));
}

void CheckpointEngine::DumpAttempt(ProcessState& proc, NodeId node,
                                   DumpOptions opts, int attempt,
                                   std::function<void(DumpResult)> done) {
  const bool can_increment = opts.incremental && proc.has_image &&
                             proc.memory.tracking_enabled() &&
                             proc.image_id.valid() &&
                             store_->Exists(proc.image_id) &&
                             // Incremental layers must extend an image dumped
                             // on a reachable store; a local-store image on a
                             // different node cannot be extended from here.
                             (store_->SupportsRemoteRestore() ||
                              proc.image_node == node);
  const Bytes bytes = DumpBytes(proc, can_increment);
  const SimTime started = sim_->Now();
  const std::int64_t epoch = proc.io_epoch;

  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (obs_ != nullptr) {
    span = obs_->tracer().BeginSpan(
        "ckpt.dump", "ckpt", obs_->TrackFor(node), started,
        {TraceArg::Num("task", static_cast<double>(proc.task.value())),
         TraceArg::Num("bytes", static_cast<double>(bytes)),
         TraceArg::Num("incremental", can_increment ? 1 : 0)});
  }

  // Full dumps write-new-then-swap: the new image lands under a fresh path
  // while the old image (if any) stays valid; only a successful save
  // removes the old one. A failed or canceled save leaves the previous
  // image restorable. The fresh path is interned exactly once, here at
  // image creation; everything downstream keys by the id.
  const ImageId old_image = can_increment ? ImageId() : proc.image_id;
  std::string save_path = proc.image_path;
  ImageId save_image = proc.image_id;
  if (!can_increment) {
    save_path = ImagePath(proc);
    save_image = store_->Intern(save_path);
    ++next_image_;
  }

  auto finish = [this, &proc, node, opts, attempt, can_increment, bytes,
                 started, span, epoch, old_image, save_image,
                 save_path = std::move(save_path),
                 done = std::move(done)](bool ok) {
    DumpResult result;
    result.ok = ok;
    result.was_incremental = can_increment;
    result.bytes_written = ok ? bytes : 0;
    result.duration = sim_->Now() - started;
    if (obs_ != nullptr) {
      obs_->tracer().EndSpan(span, sim_->Now(),
                             {TraceArg::Num("ok", ok ? 1 : 0)});
      NodeObs& h = ObsFor(node);
      Counter*& count =
          can_increment ? h.dump_count_incremental : h.dump_count_full;
      if (count == nullptr) {
        count = obs_->metrics().GetCounter(
            "ckpt.dump.count",
            {{"node", Observability::NodeLabel(node)},
             {"mode", can_increment ? "incremental" : "full"}});
      }
      count->Inc();
      if (h.dump_seconds == nullptr) {
        h.dump_seconds = obs_->metrics().GetHistogram(
            "ckpt.dump.seconds", {{"node", Observability::NodeLabel(node)}},
            kIoSecondsBounds);
      }
      h.dump_seconds->Observe(ToSeconds(result.duration));
      if (h.dump_bytes == nullptr) {
        h.dump_bytes = obs_->metrics().GetCounter(
            "ckpt.dump.bytes", {{"node", Observability::NodeLabel(node)}});
      }
      h.dump_bytes->Inc(result.bytes_written);
    }
    if (proc.io_epoch != epoch) {
      // The caller unwound this dump (node failure, kill) while the I/O was
      // in flight: do not touch proc, and drop the orphaned new image.
      if (ok && !can_increment) store_->Remove(save_image);
      result.ok = false;
      done(result);
      return;
    }
    if (!ok && attempt < retry_.max_attempts) {
      ++dump_retries_;
      CountRetry("dump", BackoffDelay(attempt), node);
      sim_->ScheduleAfter(BackoffDelay(attempt),
                          [this, &proc, node, opts, attempt, epoch, done] {
                            if (proc.io_epoch != epoch) {
                              done(DumpResult{});
                              return;
                            }
                            DumpAttempt(proc, node, opts, attempt + 1, done);
                          });
      return;
    }
    if (ok) {
      ++dumps_;
      if (can_increment) ++incremental_dumps_;
      dump_bytes_ += bytes;
      dump_time_ += result.duration;
      if (!can_increment) {
        // Swap: retire the replaced image only now that its successor is
        // fully stored.
        if (old_image.valid()) store_->Remove(old_image);
        proc.image_path = save_path;
        proc.image_id = save_image;
      }
      proc.has_image = true;
      proc.image_node = node;
      // `bytes` is exactly what landed in the store (payload + metadata),
      // for both the base image and incremental layers.
      if (can_increment) {
        proc.image_bytes += bytes;
      } else {
        proc.image_bytes = bytes;
      }
      ++proc.dump_count;
      // CRIU clears the soft-dirty bits at dump time so the next dump only
      // carries pages written after this one.
      proc.memory.StartTracking();
    }
    done(result);
  };

  if (can_increment) {
    store_->Append(proc.image_id, bytes, node, std::move(finish));
    return;
  }
  store_->Save(save_image, bytes, node, std::move(finish));
}

void CheckpointEngine::Restore(ProcessState& proc, NodeId node,
                               std::function<void(RestoreResult)> done) {
  RestoreAttempt(proc, node, 1, std::move(done));
}

void CheckpointEngine::RestoreAttempt(ProcessState& proc, NodeId node,
                                      int attempt,
                                      std::function<void(RestoreResult)> done) {
  if (!proc.has_image || !proc.image_id.valid() ||
      !store_->Exists(proc.image_id)) {
    RestoreResult result;  // nothing to restore from
    sim_->ScheduleAfter(0, [result, done = std::move(done)] { done(result); });
    return;
  }
  const SimTime started = sim_->Now();
  const bool remote = !store_->IsLocalTo(proc.image_id, node);
  const Bytes bytes = store_->StoredSize(proc.image_id);
  const std::int64_t epoch = proc.io_epoch;
  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (obs_ != nullptr) {
    span = obs_->tracer().BeginSpan(
        "ckpt.restore", "ckpt", obs_->TrackFor(node), started,
        {TraceArg::Num("task", static_cast<double>(proc.task.value())),
         TraceArg::Num("bytes", static_cast<double>(bytes)),
         TraceArg::Num("remote", remote ? 1 : 0)});
  }
  store_->Load(
      proc.image_id, node,
      [this, &proc, node, attempt, remote, bytes, started, span, epoch,
       done = std::move(done)](bool ok) {
        RestoreResult result;
        result.ok = ok;
        result.was_remote = remote;
        result.bytes_read = ok ? bytes : 0;
        result.duration = sim_->Now() - started;
        const bool live = proc.io_epoch == epoch;
        // Integrity check, like CRIU verifying image magic/checksums after
        // the read: a corrupt image is only discovered once loaded.
        if (ok && live && fault_ != nullptr &&
            fault_->ShouldCorruptImage(Observability::NodeTrack(node))) {
          ok = false;
          result.ok = false;
          result.corrupt = true;
          result.bytes_read = 0;
          ++corrupt_images_;
          if (obs_ != nullptr) {
            obs_->metrics().GetCounter("ckpt.corrupt_images")->Inc();
          }
        }
        if (obs_ != nullptr) {
          obs_->tracer().EndSpan(span, sim_->Now(),
                                 {TraceArg::Num("ok", ok ? 1 : 0)});
          NodeObs& h = ObsFor(node);
          Counter*& count =
              remote ? h.restore_count_remote : h.restore_count_local;
          if (count == nullptr) {
            count = obs_->metrics().GetCounter(
                "ckpt.restore.count",
                {{"node", Observability::NodeLabel(node)},
                 {"locality", remote ? "remote" : "local"}});
          }
          count->Inc();
          if (h.restore_seconds == nullptr) {
            h.restore_seconds = obs_->metrics().GetHistogram(
                "ckpt.restore.seconds",
                {{"node", Observability::NodeLabel(node)}}, kIoSecondsBounds);
          }
          h.restore_seconds->Observe(ToSeconds(result.duration));
          if (h.restore_bytes == nullptr) {
            h.restore_bytes = obs_->metrics().GetCounter(
                "ckpt.restore.bytes",
                {{"node", Observability::NodeLabel(node)}});
          }
          h.restore_bytes->Inc(result.bytes_read);
        }
        if (!live) {
          // Canceled while the read was in flight: report failure without
          // touching proc (no image-node rebinding on a dead attempt).
          result.ok = false;
          done(result);
          return;
        }
        if (result.corrupt) {
          // The image is unusable; retrying would reread the same bad
          // bytes. Drop it so the caller restarts from scratch.
          Discard(proc);
          done(result);
          return;
        }
        if (!ok && attempt < retry_.max_attempts) {
          ++restore_retries_;
          CountRetry("restore", BackoffDelay(attempt), node);
          sim_->ScheduleAfter(BackoffDelay(attempt),
                              [this, &proc, node, attempt, epoch, done] {
                                if (proc.io_epoch != epoch) {
                                  done(RestoreResult{});
                                  return;
                                }
                                RestoreAttempt(proc, node, attempt + 1, done);
                              });
          return;
        }
        if (ok) {
          ++restores_;
          restore_bytes_ += bytes;
          restore_time_ += result.duration;
          proc.image_node = node;
          // The restored process resumes with tracking re-armed so
          // a later preemption can dump incrementally (S5.2.2).
          proc.memory.StartTracking();
        }
        done(result);
      });
}

void CheckpointEngine::Discard(ProcessState& proc) {
  if (proc.has_image && proc.image_id.valid()) {
    store_->Remove(proc.image_id);
  }
  proc.has_image = false;
  proc.image_path.clear();
  proc.image_id = ImageId();
  proc.image_bytes = 0;
}

}  // namespace ckpt
