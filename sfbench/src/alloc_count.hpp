// Allocation counting from outside the program: this binary replaces the
// global operator new/delete (alloc_count.cpp) with versions that keep
// relaxed-atomic totals, so per-operation allocations are visible without
// instrumenting the library.
#pragma once

#include <cstdint>

namespace sfbench {

struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Process-wide totals since start (all threads).
AllocCounts alloc_counts() noexcept;

}  // namespace sfbench
