#include "src/base/histogram.h"

#include <algorithm>
#include <bit>

namespace aurora {

LatencyHistogram::LatencyHistogram() : buckets_(kMaxPower * kSubBuckets, 0) {}

size_t LatencyHistogram::BucketFor(SimDuration v) const {
  if (v < kSubBuckets) {
    return static_cast<size_t>(v);  // first power: one bucket per nanosecond
  }
  int power = 63 - std::countl_zero(v);
  int base_power = std::countr_zero(static_cast<uint64_t>(kSubBuckets));
  int shift = power - base_power;
  size_t sub = static_cast<size_t>((v >> shift) & (kSubBuckets - 1));
  size_t idx = static_cast<size_t>(shift + 1) * kSubBuckets + sub;
  return std::min(idx, buckets_.size() - 1);
}

SimDuration LatencyHistogram::BucketUpper(size_t idx) const {
  if (idx < kSubBuckets) {
    return idx;
  }
  size_t shift = idx / kSubBuckets - 1;
  size_t sub = idx % kSubBuckets;
  return (static_cast<SimDuration>(kSubBuckets + sub + 1) << shift) - 1;
}

void LatencyHistogram::Record(SimDuration nanos) {
  buckets_[BucketFor(nanos)]++;
  if (count_ == 0 || nanos < min_) {
    min_ = nanos;
  }
  max_ = std::max(max_, nanos);
  count_++;
  sum_ += nanos;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = 0;
  min_ = max_ = 0;
}

SimDuration LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  target = std::min(target, count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen > target) {
      return std::min(BucketUpper(i), max_);
    }
  }
  return max_;
}

}  // namespace aurora
