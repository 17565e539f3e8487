#include "perfbench/src/host_clock.h"

#include <sys/resource.h>

#include <chrono>

namespace perfbench {

// The host clock is what the benchmark's host section measures (wall time
// per Sls::Checkpoint call, run and set-up time). It never feeds the
// simulation, so simulated results stay seed-deterministic; this file is the
// single audited place that reads it.
uint64_t HostNanos() {
  auto now = std::chrono::steady_clock::now();  // aurora-lint: allow(determinism): host metrics only, never fed to the SimClock
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count());
}

uint64_t PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

}  // namespace perfbench
