// Determinism-preserving O(log n) node-feasibility index.
//
// A tournament (segment) tree over the cluster's nodes in rotation order,
// answering two families of queries:
//
//   place      — the node's Available();
//   preempt[p] — Available() plus the demand a preemption attempt at
//                priority p could at most release on that node (running,
//                unprotected tasks with priority strictly below p).
//
// Leaves are exact. A leaf holds its node's Available() in `place` and, in
// the `preempt` slots, the node's releasable sums: preempt[p] is the demand
// of the node's running, unprotected tasks with priority strictly below p.
// The caller keeps those sums current as tasks enter and leave kRunning
// (AddReleasable / RemoveReleasable); a leaf's preempt[p] family value is
// place + preempt[p].
//
// Internal nodes hold componentwise maxima over the leaves below them.
// The place maxima are exact: UpdatePlace recomputes them along the leaf's
// path. The preempt maxima are upper bounds: RaisePreempt max-propagates a
// leaf's values upward until an ancestor already dominates them, so a leaf
// whose values fell leaves its ancestors loose, and a failing FindPreempt
// tightens each node it entered back to the max of its children for the
// searched priority. Root().place is the exact cluster-wide maximum;
// Root().preempt bounds the cluster-wide maximum from above.
//
// Because a node's aggregate dominates every leaf below it, a demand that
// does not fit it fits no node in that subtree, so whole subtrees are
// pruned. The descent visits candidate leaves in exactly the rotation order
// the scheduler's linear scan uses and re-checks each candidate with the
// caller's *exact* predicate, so the first accepted leaf is precisely the
// node the linear scan would have chosen — every decision sequence, and
// therefore all stdout, stays byte-identical. A bound that is too large
// only costs a visit to a subtree with no accepted leaf, never a divergent
// choice.
//
// The preempt family is bucketed by the *demand's* raw priority, not its
// band: on a saturated cluster most running work sits in the top band, and
// a band-level bound would claim feasibility at every such node, turning
// each failed top-priority search back into an O(n) scan. Per-priority
// sums match the scheduler's exact releasable check.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "cluster/resources.h"

namespace ckpt {

// One node's aggregates; see the file comment for the two families.
// preempt is indexed by the preempting demand's priority (0..kMaxPriority).
// In Update's argument and in Root() it holds the family value, place plus
// the releasable demand below p; a leaf stores the sums alone.
struct FeasibilityAgg {
  static constexpr size_t kPriorities = 12;

  Resources place{};
  std::array<Resources, kPriorities> preempt{};
};

class FeasibilityIndex {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  // (Re)build an empty index over `nodes` leaves (all-zero aggregates).
  void Reset(size_t nodes);

  size_t size() const { return n_; }

  // Leaf `i` now has aggregate `agg`: its place is agg.place and its
  // releasable demand below p is agg.preempt[p] - agg.place. Refreshes the
  // place family along the path and raises the preempt bounds above it.
  void Update(size_t i, const FeasibilityAgg& agg);

  // Overwrite only leaf `i`'s Available() and refresh the place family
  // along its path. The leaf's preempt values move with it, but the bounds
  // above it wait for RaisePreempt.
  void UpdatePlace(size_t i, const Resources& place);

  // A task at `priority` entered (Add) or left (Remove) kRunning on leaf
  // `i`'s node: it is releasable to every demand above its priority. Only
  // the leaf changes; RaisePreempt publishes a rise.
  void AddReleasable(size_t i, size_t priority, const Resources& demand);
  void RemoveReleasable(size_t i, size_t priority, const Resources& demand);

  // Leaf `i`'s node runs nothing: check that its releasable sums are zero
  // (memory exactly, cpus within 1e-6) and drop the cpus residue.
  void ClearReleasable(size_t i);

  // Max-propagate leaf `i`'s preempt values up the tree, stopping at the
  // first ancestor that already dominates them. Lowered values are not
  // propagated.
  void RaisePreempt(size_t i);

  // The root aggregate: the exact max of every leaf's place, and an upper
  // bound on every leaf's preempt values.
  const FeasibilityAgg& Root() const { return tree_[1]; }

  // Read-only view of tree position `pos` (1-based heap order, leaves at
  // [capacity(), capacity() + size())), for checks of the bounds.
  size_t capacity() const { return cap_; }
  const FeasibilityAgg& At(size_t pos) const { return tree_[pos]; }

  // First leaf, scanning circularly from `cursor`, whose placement
  // aggregate dominates `demand` and for which accept(i) returns true.
  template <typename Accept>
  size_t FindPlace(size_t cursor, const Resources& demand,
                   Accept&& accept) const {
    auto bound = [this](size_t pos) -> const Resources& {
      return tree_[pos].place;
    };
    auto refit = [](size_t) {};  // place maxima are already exact
    return FindCircular(cursor, demand, bound, refit, accept);
  }

  // Same, against the preempt[priority] family. `accept` must perform the
  // exact per-node releasable check. Every node the search enters without
  // finding an accepted leaf under it is tightened to the max of its
  // children at `priority`.
  template <typename Accept>
  size_t FindPreempt(size_t cursor, size_t priority, const Resources& demand,
                     Accept&& accept) {
    auto bound = [this, priority](size_t pos) {
      return PreemptAt(pos, priority);
    };
    auto refit = [this, priority](size_t pos) {
      const Resources l = PreemptAt(2 * pos, priority);
      const Resources r = PreemptAt(2 * pos + 1, priority);
      tree_[pos].preempt[priority] = {std::max(l.cpus, r.cpus),
                                      std::max(l.memory, r.memory)};
    };
    return FindCircular(cursor, demand, bound, refit, accept);
  }

 private:
  // The preempt[p] family value at tree position `pos`: exact at a leaf,
  // an upper bound above.
  Resources PreemptAt(size_t pos, size_t p) const {
    const FeasibilityAgg& a = tree_[pos];
    return pos >= cap_ ? a.place + a.preempt[p] : a.preempt[p];
  }

  // First accepted leaf in [from, until); prunes subtrees whose bound does
  // not dominate `demand`, and refits an entered internal node when its
  // subtree held no accepted leaf.
  template <typename Bound, typename Refit, typename Accept>
  size_t FindRange(size_t node, size_t lo, size_t hi, size_t from,
                   size_t until, const Resources& demand, Bound& bound,
                   Refit& refit, Accept& accept) const {
    if (hi <= from || lo >= until) return npos;
    if (!demand.FitsIn(bound(node))) return npos;
    if (hi - lo == 1) return accept(lo) ? lo : npos;
    const size_t mid = lo + (hi - lo) / 2;
    size_t hit = FindRange(2 * node, lo, mid, from, until, demand, bound,
                           refit, accept);
    if (hit == npos) {
      hit = FindRange(2 * node + 1, mid, hi, from, until, demand, bound,
                      refit, accept);
    }
    if (hit == npos) refit(node);
    return hit;
  }

  template <typename Bound, typename Refit, typename Accept>
  size_t FindCircular(size_t cursor, const Resources& demand, Bound& bound,
                      Refit& refit, Accept& accept) const {
    if (n_ == 0) return npos;
    // The linear scan probes cursor..n-1 then 0..cursor-1; mirror it.
    const size_t first =
        FindRange(1, 0, cap_, cursor, n_, demand, bound, refit, accept);
    if (first != npos) return first;
    if (cursor == 0) return npos;
    return FindRange(1, 0, cap_, 0, cursor, demand, bound, refit, accept);
  }

  size_t n_ = 0;    // leaves in use
  size_t cap_ = 0;  // power-of-two leaf capacity, at least 2
  // 1-based; leaves at [cap_, cap_+n_). A leaf's preempt slots hold its
  // releasable sums, an internal node's the family's upper bounds.
  std::vector<FeasibilityAgg> tree_;
};

}  // namespace ckpt
