#pragma once

/**
 * Mergeable log-linear latency histogram.
 *
 * Buckets cover the full uint64_t range with bounded relative
 * error: values below kSubBuckets get one exact bucket each, and
 * every power-of-two octave [2^k, 2^(k+1)) above that is split
 * into kSubBuckets linear sub-buckets.  A recorded value therefore
 * lands in a bucket whose width is at most value / kSubBuckets,
 * so with 16 sub-buckets any quantile estimate is within ~6.25%
 * of the true order statistic, independent of magnitude.
 *
 * The histogram is deliberately plain data (no atomics): recording
 * happens on the thread that owns the enclosing run state, and
 * cross-thread aggregation goes through merge(), which is exact --
 * bucket-wise addition -- and therefore associative and
 * commutative.  That is what lets per-contig, per-card, and
 * per-thread histograms collapse into one global distribution with
 * no approximation beyond the original bucketing.
 *
 * Header-only so cycle-domain code can embed one without a link
 * edge onto iracc_obs.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace iracc {
namespace obs {

/** @p seconds as whole nanoseconds, rounded to the nearest one:
 *  the value every `_ns` histogram records. */
inline uint64_t nanos(double seconds)
{
    return seconds > 0.0
               ? static_cast<uint64_t>(std::llround(seconds * 1e9))
               : 0;
}

class LatencyHistogram {
  public:
    static constexpr uint32_t kSubBucketBits = 4;
    static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;
    // Exact buckets for [0, kSubBuckets), then kSubBuckets linear
    // sub-buckets per octave for octaves kSubBucketBits..63.
    static constexpr uint32_t kBuckets =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    LatencyHistogram() : bins_(kBuckets, 0) {}

    /** Bucket index for a value; order preserving. */
    static uint32_t bucketIndex(uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<uint32_t>(v);
        uint32_t octave =
            63u - static_cast<uint32_t>(__builtin_clzll(v));
        uint32_t sub = static_cast<uint32_t>(
            (v >> (octave - kSubBucketBits)) & (kSubBuckets - 1));
        return kSubBuckets +
               (octave - kSubBucketBits) * kSubBuckets + sub;
    }

    /** Inclusive lower bound of bucket i (inverse of bucketIndex). */
    static uint64_t bucketLowerBound(uint32_t i)
    {
        if (i < kSubBuckets)
            return i;
        uint32_t octave =
            kSubBucketBits + (i - kSubBuckets) / kSubBuckets;
        uint32_t sub = (i - kSubBuckets) % kSubBuckets;
        return static_cast<uint64_t>(kSubBuckets + sub)
               << (octave - kSubBucketBits);
    }

    void record(uint64_t v)
    {
        ++bins_[bucketIndex(v)];
        lo_ = n_ == 0 ? v : std::min(lo_, v);
        hi_ = std::max(hi_, v);
        ++n_;
        sum_ += v;
    }

    /** Exact bucket-wise merge; associative and commutative. */
    void merge(const LatencyHistogram &other)
    {
        for (uint32_t i = 0; i < kBuckets; ++i)
            bins_[i] += other.bins_[i];
        if (other.n_ > 0) {
            lo_ = n_ == 0 ? other.lo_ : std::min(lo_, other.lo_);
            hi_ = std::max(hi_, other.hi_);
        }
        n_ += other.n_;
        sum_ += other.sum_;
    }

    uint64_t count() const { return n_; }
    uint64_t total() const { return sum_; }
    uint64_t min() const { return n_ ? lo_ : 0; }
    uint64_t max() const { return hi_; }
    double mean() const
    {
        return n_ ? static_cast<double>(sum_) / n_ : 0.0;
    }

    /**
     * Value at quantile q in [0, 1]: the representative value
     * (bucket midpoint, clamped to the observed min/max) of the
     * first bucket whose cumulative count reaches ceil(q * n).
     * Deterministic, and within one bucket width of the true
     * order statistic.
     */
    uint64_t quantile(double q) const
    {
        if (n_ == 0)
            return 0;
        q = std::min(1.0, std::max(0.0, q));
        uint64_t rank = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        if (rank == 0)
            rank = 1;
        uint64_t cum = 0;
        for (uint32_t i = 0; i < kBuckets; ++i) {
            cum += bins_[i];
            if (cum >= rank)
                return std::min(hi_, std::max(lo_, bucketMid(i)));
        }
        return hi_;
    }

    uint64_t p50() const { return quantile(0.50); }
    uint64_t p90() const { return quantile(0.90); }
    uint64_t p99() const { return quantile(0.99); }
    uint64_t p999() const { return quantile(0.999); }

    bool operator==(const LatencyHistogram &o) const
    {
        return n_ == o.n_ && sum_ == o.sum_ && lo_ == o.lo_ &&
               hi_ == o.hi_ && bins_ == o.bins_;
    }
    bool operator!=(const LatencyHistogram &o) const
    {
        return !(*this == o);
    }

    void reset()
    {
        std::fill(bins_.begin(), bins_.end(), 0);
        n_ = sum_ = lo_ = hi_ = 0;
    }

  private:
    static uint64_t bucketMid(uint32_t i)
    {
        uint64_t lo = bucketLowerBound(i);
        if (i < kSubBuckets)
            return lo; // exact bucket
        uint32_t octave =
            kSubBucketBits + (i - kSubBuckets) / kSubBuckets;
        uint64_t width = uint64_t{1} << (octave - kSubBucketBits);
        return lo + width / 2;
    }

    std::vector<uint64_t> bins_;
    uint64_t n_ = 0;
    uint64_t sum_ = 0;
    uint64_t lo_ = 0;
    uint64_t hi_ = 0;
};

} // namespace obs
} // namespace iracc
