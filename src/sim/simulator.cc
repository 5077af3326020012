#include "sim/simulator.h"

namespace ckpt {

std::int64_t Simulator::Run(SimTime until) {
  std::int64_t processed = 0;
  while (!queue_.empty() && queue_.NextWhen() <= until) {
    // Detach before invoking: the callback may schedule new events (growing
    // the heap) or cancel pending ones; the detached node is unaffected.
    EventNode* node = queue_.PopLive();
    now_ = node->when;
    ++events_processed_;
    ++processed;
    node->cb();
    queue_.Recycle(node);
  }
  // Advance the clock to the bound: remaining events (if any) are strictly
  // later, so simulated time `until` has elapsed without activity.
  if (now_ < until && until != kMaxTime) now_ = until;
  return processed;
}

}  // namespace ckpt
