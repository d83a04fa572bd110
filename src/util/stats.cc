#include "util/stats.hh"

#include <cmath>

#include "util/logging.hh"

namespace iracc {

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
