#include "perfbench/src/stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(mid), samples.end());
  return samples[mid];
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n <= 10) {
    tail.value = samples.back();
    return tail;
  }
  tail.value = samples[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

}  // namespace perfbench
