// Order statistics over exact samples (no histogram buckets), so simulated
// metrics are bit-identical across runs of one seed.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Lower median (the middle sample, or the lower of the two middle ones);
// 0 for no samples.
double Median(std::vector<double> samples);

// The highest percentile that still has at least ten samples strictly above
// it: with n sorted samples, the value at rank n-11 (0-based), reported as
// percentile 100*(n-10)/n. Fewer than eleven samples fall back to the
// maximum with percentile 100.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
