//===- perfbench/src/Stats.h - Order statistics for the benchmark ---------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few order statistics the benchmark reports, in one place so the
/// selection rule is tested once: nearest-rank percentiles, the median,
/// and the rule that a percentile is only reported when at least ten
/// samples lie beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// The fewest samples that must lie beyond a reported percentile.
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank percentile: the smallest sample such that at least
/// \p Fraction of all samples are at or below it. \p Fraction is in
/// (0, 1]; an empty input yields 0.
double percentile(std::vector<double> Values, double Fraction);

/// How many of \p Count samples lie strictly beyond the nearest-rank
/// \p Fraction percentile (ties at the percentile's rank excluded).
size_t samplesBeyond(size_t Count, double Fraction);

/// True when \p Count samples support reporting the \p Fraction
/// percentile: at least MinSamplesBeyond samples lie beyond it.
bool percentileSupported(size_t Count, double Fraction);

/// The highest of p50, p90, p99 and p99.9 that \p Count samples support,
/// or 0 when not even the median is supported.
double highestSupportedPercentile(size_t Count);

/// The median; the mean of the two middle samples for even counts.
double median(std::vector<double> Values);

double mean(const std::vector<double> &Values);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
