// Latency histogram with percentile queries for benchmarks.
//
// Log-bucketed (HdrHistogram-style) so tail percentiles of microsecond to
// second scale latencies are captured with bounded memory.
#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/units.h"

namespace aurora {

class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(SimDuration nanos);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  SimDuration Min() const { return count_ ? min_ : 0; }
  SimDuration Max() const { return max_; }
  double MeanNanos() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }
  // Latency at percentile p in [0,100].
  SimDuration Percentile(double p) const;

 private:
  static constexpr int kSubBuckets = 32;  // per power of two
  static constexpr int kMaxPower = 44;    // covers up to ~17.6 ks in ns

  size_t BucketFor(SimDuration v) const;
  SimDuration BucketUpper(size_t idx) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
};

}  // namespace aurora

#endif  // SRC_BASE_HISTOGRAM_H_
