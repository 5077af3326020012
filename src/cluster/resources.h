// Multi-dimensional resource vectors (CPU cores + memory), the allocation
// currency of both the trace-driven scheduler and the YARN layer.
#pragma once

#include "common/logging.h"
#include "common/units.h"

namespace ckpt {

struct Resources {
  double cpus = 0.0;
  Bytes memory = 0;

  constexpr bool FitsIn(const Resources& avail) const {
    return cpus <= avail.cpus + 1e-9 && memory <= avail.memory;
  }

  Resources& operator+=(const Resources& o) {
    cpus += o.cpus;
    memory += o.memory;
    return *this;
  }
  Resources& operator-=(const Resources& o) {
    cpus -= o.cpus;
    memory -= o.memory;
    CKPT_CHECK_GE(cpus, -1e-6);
    CKPT_CHECK_GE(memory, 0);
    if (cpus < 0) cpus = 0;
    return *this;
  }

  friend Resources operator+(Resources a, const Resources& b) { return a += b; }
  friend Resources operator-(Resources a, const Resources& b) { return a -= b; }
  friend bool operator==(const Resources& a, const Resources& b) {
    return a.cpus == b.cpus && a.memory == b.memory;
  }

  bool IsZero() const { return cpus <= 1e-9 && memory == 0; }
};

}  // namespace ckpt
