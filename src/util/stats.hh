/**
 * @file
 * Summary statistics used by the benchmark harness: the geometric
 * mean.  Distributions use obs::LatencyHistogram.
 */

#ifndef IRACC_UTIL_STATS_HH
#define IRACC_UTIL_STATS_HH

#include <vector>

namespace iracc {

/** Geometric mean of a set of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace iracc

#endif // IRACC_UTIL_STATS_HH
