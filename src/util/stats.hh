/**
 * @file
 * Lightweight statistics containers used by the simulator and the
 * benchmark harness: a scalar accumulator with moments and a
 * geometric mean.  Distributions use obs::LatencyHistogram.
 */

#ifndef IRACC_UTIL_STATS_HH
#define IRACC_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace iracc {

/**
 * Accumulates samples and exposes count/sum/mean/min/max/stddev.
 */
class Accumulator
{
  public:
    /** Record one sample. */
    void sample(double v);

    /** Merge another accumulator into this one. */
    void merge(const Accumulator &other);

    /** Discard all samples. */
    void reset();

    uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const;
    double min() const;
    double max() const;
    /** Population standard deviation. */
    double stddev() const;

  private:
    uint64_t n = 0;
    double total = 0.0;
    double totalSq = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/** Geometric mean of a set of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace iracc

#endif // IRACC_UTIL_STATS_HH
