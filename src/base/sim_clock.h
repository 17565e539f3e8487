// The simulated clock that all Aurora components charge time against.
//
// Aurora is evaluated on hardware we do not have (dual Xeon, 4x striped
// Optane 900P). Instead of wall-clock timing we run every real mechanism
// (page copying, shadow creation, serialization, device writes) against a
// virtual nanosecond clock; each primitive operation advances the clock by
// its modeled cost (see cost_model.h). This makes all measurements
// deterministic and hardware independent while preserving the *shape* of the
// paper's results, which come from the mechanisms themselves.
#ifndef SRC_BASE_SIM_CLOCK_H_
#define SRC_BASE_SIM_CLOCK_H_

#include <cstdint>

#include "src/base/units.h"

namespace aurora {

class SimClock {
 public:
  SimClock() = default;

  SimTime now() const { return now_; }

  // Advances the clock by `d` nanoseconds (work performed serially).
  void Advance(SimDuration d) { now_ += d; }

  // Moves the clock forward to `t` if `t` is in the future (e.g. waiting for
  // an asynchronous device completion). Returns the wait duration.
  SimDuration AdvanceTo(SimTime t) {
    if (t <= now_) {
      return 0;
    }
    SimDuration waited = t - now_;
    now_ = t;
    return waited;
  }

  void Reset() { now_ = 0; }

 private:
  SimTime now_ = 0;
};

// RAII measurement of a simulated interval (e.g. a checkpoint stop time).
class SimStopwatch {
 public:
  explicit SimStopwatch(const SimClock& clock) : clock_(clock), start_(clock.now()) {}

  SimDuration Elapsed() const { return clock_.now() - start_; }

 private:
  const SimClock& clock_;
  SimTime start_;
};

}  // namespace aurora

#endif  // SRC_BASE_SIM_CLOCK_H_
