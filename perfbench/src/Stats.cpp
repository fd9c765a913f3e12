//===- perfbench/src/Stats.cpp --------------------------------------------===//

#include "src/Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

/// 1-based nearest rank of the \p Fraction percentile among \p Count.
static size_t nearestRank(size_t Count, double Fraction) {
  // The epsilon keeps products such as 0.9 * 100 from rounding up a rank.
  const double Rank = std::ceil(Fraction * static_cast<double>(Count) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(Rank, 1.0)), 1,
                            Count);
}

double perfbench::percentile(std::vector<double> Values, double Fraction) {
  if (Values.empty())
    return 0.0;
  const size_t Rank = nearestRank(Values.size(), Fraction);
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1),
                   Values.end());
  return Values[Rank - 1];
}

size_t perfbench::samplesBeyond(size_t Count, double Fraction) {
  if (Count == 0)
    return 0;
  return Count - nearestRank(Count, Fraction);
}

bool perfbench::percentileSupported(size_t Count, double Fraction) {
  return samplesBeyond(Count, Fraction) >= MinSamplesBeyond;
}

double perfbench::highestSupportedPercentile(size_t Count) {
  double Best = 0.0;
  for (double Fraction : {0.5, 0.9, 0.99, 0.999})
    if (percentileSupported(Count, Fraction))
      Best = Fraction;
  return Best;
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t Mid = Values.size() / 2;
  if (Values.size() % 2 == 1)
    return Values[Mid];
  return 0.5 * (Values[Mid - 1] + Values[Mid]);
}

double perfbench::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}
