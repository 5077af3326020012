// Determinism-preserving O(log n) node-feasibility index.
//
// A tournament (segment) tree over the cluster's nodes in rotation order.
// Each segment stores componentwise maxima of two families of per-node
// resource vectors:
//
//   place      — the node's Available();
//   preempt[p] — Available() plus the demand a preemption attempt at
//                priority p could at most release on that node (running,
//                unprotected tasks with priority strictly below p).
//
// Because a componentwise max dominates every leaf below it, a demand that
// does not fit a segment's aggregate fits no node in that segment, so whole
// subtrees are pruned. The descent visits candidate leaves in exactly the
// rotation order the scheduler's linear scan uses and re-checks each
// candidate with the caller's *exact* predicate, so the first accepted leaf
// is precisely the node the linear scan would have chosen — every decision
// sequence, and therefore all stdout, stays byte-identical.
//
// The preempt vector is bucketed by the *demand's* raw priority, not its
// band: on a saturated cluster most running work sits in the top band, and
// a band-level bound would claim feasibility at every such node, turning
// each failed top-priority search back into an O(n) scan. Per-priority
// sums match the scheduler's exact releasable check, so a hopeless search
// is rejected at the root in O(1). The aggregates remain upper bounds in
// the max-merge sense (cpus and memory maxima may come from different
// leaves), which is safe: a too-large bound only costs a rejected leaf
// visit, never a divergent choice.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "cluster/resources.h"

namespace ckpt {

// Per-node input to the index; see the file comment for the two families.
// preempt is indexed by the preempting demand's priority (0..kMaxPriority).
struct FeasibilityAgg {
  static constexpr size_t kPriorities = 12;

  Resources place{};
  std::array<Resources, kPriorities> preempt{};

  void MaxWith(const FeasibilityAgg& o) {
    auto max_into = [](Resources& a, const Resources& b) {
      if (b.cpus > a.cpus) a.cpus = b.cpus;
      if (b.memory > a.memory) a.memory = b.memory;
    };
    max_into(place, o.place);
    for (size_t p = 0; p < preempt.size(); ++p) max_into(preempt[p], o.preempt[p]);
  }
};

class FeasibilityIndex {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  // (Re)build an empty index over `nodes` leaves (all-zero aggregates).
  void Reset(size_t nodes);

  size_t size() const { return n_; }

  // Overwrite leaf `i`'s aggregates and refresh its path to the root.
  void Update(size_t i, const FeasibilityAgg& agg);

  // Overwrite only leaf `i`'s placement aggregate and refresh that family
  // along its path; the preempt family keeps whatever it held. Lets a
  // caller refresh the cheap half before a placement query and defer the
  // preempt half until a preemption query reads it.
  void UpdatePlace(size_t i, const Resources& place);

  // Cluster-wide componentwise maxima (the root aggregate). With fresh
  // leaves, Root().place equals the scheduler's conservative fit summary.
  const FeasibilityAgg& Root() const { return tree_[1]; }

  // First leaf, scanning circularly from `cursor`, whose placement
  // aggregate dominates `demand` and for which accept(i) returns true.
  template <typename Accept>
  size_t FindPlace(size_t cursor, const Resources& demand,
                   Accept&& accept) const {
    auto select = [](const FeasibilityAgg& a) -> const Resources& {
      return a.place;
    };
    return FindCircular(cursor, demand, select, accept);
  }

  // Same, against the preempt[priority] aggregate. `accept` must perform
  // the exact per-node releasable check (the aggregate is an upper bound).
  template <typename Accept>
  size_t FindPreempt(size_t cursor, size_t priority, const Resources& demand,
                     Accept&& accept) const {
    auto select = [priority](const FeasibilityAgg& a) -> const Resources& {
      return a.preempt[priority];
    };
    return FindCircular(cursor, demand, select, accept);
  }

 private:
  // First accepted leaf in [from, until); prunes subtrees whose selected
  // aggregate does not dominate `demand`.
  template <typename Select, typename Accept>
  size_t FindRange(size_t node, size_t lo, size_t hi, size_t from,
                   size_t until, const Resources& demand, Select& select,
                   Accept& accept) const {
    if (hi <= from || lo >= until) return npos;
    if (!demand.FitsIn(select(tree_[node]))) return npos;
    if (hi - lo == 1) return accept(lo) ? lo : npos;
    const size_t mid = lo + (hi - lo) / 2;
    const size_t left =
        FindRange(2 * node, lo, mid, from, until, demand, select, accept);
    if (left != npos) return left;
    return FindRange(2 * node + 1, mid, hi, from, until, demand, select,
                     accept);
  }

  template <typename Select, typename Accept>
  size_t FindCircular(size_t cursor, const Resources& demand, Select& select,
                      Accept& accept) const {
    if (n_ == 0) return npos;
    // The linear scan probes cursor..n-1 then 0..cursor-1; mirror it.
    const size_t first =
        FindRange(1, 0, cap_, cursor, n_, demand, select, accept);
    if (first != npos) return first;
    if (cursor == 0) return npos;
    return FindRange(1, 0, cap_, 0, cursor, demand, select, accept);
  }

  size_t n_ = 0;    // leaves in use
  size_t cap_ = 0;  // power-of-two leaf capacity
  std::vector<FeasibilityAgg> tree_;  // 1-based; leaves at [cap_, cap_+n_)
};

}  // namespace ckpt
