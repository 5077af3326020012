#include "scheduler/feasibility_index.h"

#include <algorithm>

namespace ckpt {

namespace {

inline bool SameRes(const Resources& a, const Resources& b) {
  return a.cpus == b.cpus && a.memory == b.memory;
}

inline bool SameAgg(const FeasibilityAgg& a, const FeasibilityAgg& b) {
  if (!SameRes(a.place, b.place)) return false;
  for (size_t p = 0; p < a.preempt.size(); ++p) {
    if (!SameRes(a.preempt[p], b.preempt[p])) return false;
  }
  return true;
}

}  // namespace

void FeasibilityIndex::Reset(size_t nodes) {
  n_ = nodes;
  cap_ = 1;
  while (cap_ < n_) cap_ <<= 1;
  tree_.assign(2 * cap_, FeasibilityAgg{});
}

void FeasibilityIndex::Update(size_t i, const FeasibilityAgg& agg) {
  size_t pos = cap_ + i;
  // Most flushed leaves recompute to the value they already hold (a touch
  // marks a node stale on any allocation event, including ones that undo
  // each other within a pass); an unchanged leaf leaves every ancestor
  // unchanged too, so skip the O(log n) path refresh.
  if (SameAgg(tree_[pos], agg)) return;
  tree_[pos] = agg;
  for (pos /= 2; pos >= 1; pos /= 2) {
    FeasibilityAgg merged = tree_[2 * pos];
    merged.MaxWith(tree_[2 * pos + 1]);
    // A parent is a pure function of its children: once one recomputes to
    // its stored value, all higher ancestors would too.
    if (SameAgg(tree_[pos], merged)) return;
    tree_[pos] = merged;
    if (pos == 1) break;
  }
}

void FeasibilityIndex::UpdatePlace(size_t i, const Resources& place) {
  size_t pos = cap_ + i;
  if (SameRes(tree_[pos].place, place)) return;
  tree_[pos].place = place;
  for (pos /= 2; pos >= 1; pos /= 2) {
    const Resources& l = tree_[2 * pos].place;
    const Resources& r = tree_[2 * pos + 1].place;
    const Resources merged{std::max(l.cpus, r.cpus),
                           std::max(l.memory, r.memory)};
    if (SameRes(tree_[pos].place, merged)) return;
    tree_[pos].place = merged;
    if (pos == 1) break;
  }
}

}  // namespace ckpt
