#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace iracc {

void
Accumulator::sample(double v)
{
    ++n;
    total += v;
    totalSq += v * v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
}

void
Accumulator::merge(const Accumulator &other)
{
    n += other.n;
    total += other.total;
    totalSq += other.totalSq;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::mean() const
{
    return n ? total / static_cast<double>(n) : 0.0;
}

double
Accumulator::min() const
{
    return n ? lo : 0.0;
}

double
Accumulator::max() const
{
    return n ? hi : 0.0;
}

double
Accumulator::stddev() const
{
    if (n == 0)
        return 0.0;
    double m = mean();
    double var = totalSq / static_cast<double>(n) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
geomean(const std::vector<double> &values)
{
    panic_if(values.empty(), "geomean of empty set");
    double logSum = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geomean requires positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace iracc
