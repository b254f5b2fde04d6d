#ifndef CDES_PERFBENCH_ALLOC_COUNTER_H_
#define CDES_PERFBENCH_ALLOC_COUNTER_H_

// Allocation tally for the traced run. alloc_counter.cc replaces the global
// operator new/delete of the benchmark binary (and so of the library linked
// into it); while counting is on, each thread adds to its own cache-line
// slot, so the count adds no cross-shard contention. Off, the hook costs
// one relaxed load per allocation.

#include <cstdint>

namespace perfbench::alloc {

struct Tally {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Zeroes every slot and starts counting.
void Start();
/// Stops counting and returns the sum over all threads' slots. Call after
/// the counted threads have finished their work.
Tally Stop();

}  // namespace perfbench::alloc

#endif  // CDES_PERFBENCH_ALLOC_COUNTER_H_
