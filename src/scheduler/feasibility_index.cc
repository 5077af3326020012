#include "scheduler/feasibility_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ckpt {

void FeasibilityIndex::Reset(size_t nodes) {
  n_ = nodes;
  // At least two leaves, so the root is always an internal node and
  // Root().preempt holds family values rather than a leaf's sums.
  cap_ = 2;
  while (cap_ < n_) cap_ <<= 1;
  tree_.assign(2 * cap_, FeasibilityAgg{});
}

void FeasibilityIndex::Update(size_t i, const FeasibilityAgg& agg) {
  FeasibilityAgg& leaf = tree_[cap_ + i];
  for (size_t p = 0; p < FeasibilityAgg::kPriorities; ++p) {
    leaf.preempt[p] = {agg.preempt[p].cpus - agg.place.cpus,
                       agg.preempt[p].memory - agg.place.memory};
  }
  UpdatePlace(i, agg.place);
  RaisePreempt(i);
}

void FeasibilityIndex::UpdatePlace(size_t i, const Resources& place) {
  size_t pos = cap_ + i;
  if (tree_[pos].place == place) return;
  tree_[pos].place = place;
  for (pos /= 2; pos >= 1; pos /= 2) {
    const Resources& l = tree_[2 * pos].place;
    const Resources& r = tree_[2 * pos + 1].place;
    const Resources merged{std::max(l.cpus, r.cpus),
                           std::max(l.memory, r.memory)};
    // A parent is a pure function of its children: once one recomputes to
    // its stored value, all higher ancestors would too.
    if (tree_[pos].place == merged) return;
    tree_[pos].place = merged;
  }
}

void FeasibilityIndex::AddReleasable(size_t i, size_t priority,
                                     const Resources& demand) {
  auto& sums = tree_[cap_ + i].preempt;
  for (size_t p = priority + 1; p < sums.size(); ++p) sums[p] += demand;
}

void FeasibilityIndex::RemoveReleasable(size_t i, size_t priority,
                                        const Resources& demand) {
  auto& sums = tree_[cap_ + i].preempt;
  for (size_t p = priority + 1; p < sums.size(); ++p) sums[p] -= demand;
}

void FeasibilityIndex::ClearReleasable(size_t i) {
  for (Resources& sum : tree_[cap_ + i].preempt) {
    CKPT_CHECK_EQ(sum.memory, 0) << "releasable memory left on idle leaf " << i;
    CKPT_CHECK(std::abs(sum.cpus) <= 1e-6)
        << "releasable cpus " << sum.cpus << " left on idle leaf " << i;
    sum.cpus = 0;
  }
}

void FeasibilityIndex::RaisePreempt(size_t i) {
  size_t pos = cap_ + i;
  std::array<Resources, FeasibilityAgg::kPriorities> value;
  for (size_t p = 0; p < value.size(); ++p) value[p] = PreemptAt(pos, p);
  for (pos /= 2; pos >= 1; pos /= 2) {
    // Every ancestor dominates its children, so the first one that already
    // dominates the leaf's values makes all higher ones dominate them too.
    bool raised = false;
    for (size_t p = 0; p < value.size(); ++p) {
      Resources& bound = tree_[pos].preempt[p];
      if (value[p].cpus > bound.cpus) {
        bound.cpus = value[p].cpus;
        raised = true;
      }
      if (value[p].memory > bound.memory) {
        bound.memory = value[p].memory;
        raised = true;
      }
    }
    if (!raised) return;
  }
}

}  // namespace ckpt
