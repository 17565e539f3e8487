// Host-side measurements for the benchmark: the host's monotonic
// clock and the process's peak resident set. These are the only host reads
// the benchmark makes; everything else runs on the simulator's SimClock.
#ifndef PERFBENCH_SRC_HOST_CLOCK_H_
#define PERFBENCH_SRC_HOST_CLOCK_H_

#include <cstdint>

namespace perfbench {

// Monotonic host time in nanoseconds (arbitrary epoch).
uint64_t HostNanos();

// Peak resident set size of this process so far, in bytes.
uint64_t PeakRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_CLOCK_H_
