/**
 * @file
 * Fine-grained latency recorder for the benchmark.
 *
 * A log-linear histogram: values below 64 ns get one bucket each, and
 * every octave above is split into 64 equal sub-buckets, so a bucket is
 * at most 1/64 (1.6%) of its lower bound wide. Percentiles interpolate
 * linearly inside the bucket that holds the requested rank, so a
 * median moves smoothly with the data instead of snapping to bucket
 * edges.
 */

#ifndef PERFBENCH_LATENCY_H
#define PERFBENCH_LATENCY_H

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench
{

class LatencyRecorder
{
  public:
    static constexpr unsigned kSubBits = 6;
    static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
    /** Octaves above the linear range; values past 2^40 ns clamp. */
    static constexpr unsigned kOctaves = 40 - kSubBits;
    static constexpr unsigned kBuckets = kSub + kOctaves * kSub;

    void
    record(uint64_t ns)
    {
        ++counts_[bucketOf(ns)];
        ++total_;
    }

    void
    merge(const LatencyRecorder &other)
    {
        for (unsigned i = 0; i < kBuckets; ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    uint64_t count() const { return total_; }

    /**
     * The @p q quantile (0 <= q <= 1) in ns, with the same rank rule
     * as a linear-interpolated percentile of the sorted samples:
     * rank q * (n - 1), spread evenly across the bucket's width.
     * Returns 0 when empty.
     */
    double
    quantile(double q) const
    {
        if (total_ == 0)
            return 0.0;
        double rank = q * static_cast<double>(total_ - 1);
        uint64_t before = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            uint64_t c = counts_[i];
            if (c == 0)
                continue;
            if (rank < static_cast<double>(before + c)) {
                double lo = static_cast<double>(lowerBound(i));
                double width = static_cast<double>(lowerBound(i + 1)) - lo;
                double within = (rank - static_cast<double>(before) + 0.5) /
                                static_cast<double>(c);
                return lo + width * within;
            }
            before += c;
        }
        return static_cast<double>(lowerBound(kBuckets));
    }

    static unsigned
    bucketOf(uint64_t ns)
    {
        if (ns < kSub)
            return static_cast<unsigned>(ns);
        unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - 1;
        if (octave >= kSubBits + kOctaves)
            return kBuckets - 1;
        unsigned shift = octave - kSubBits;
        unsigned sub = static_cast<unsigned>((ns >> shift) & (kSub - 1));
        return kSub + shift * kSub + sub;
    }

    static uint64_t
    lowerBound(unsigned bucket)
    {
        if (bucket < kSub)
            return bucket;
        unsigned shift = (bucket - kSub) / kSub;
        uint64_t sub = (bucket - kSub) % kSub;
        return (kSub + sub) << shift;
    }

  private:
    std::array<uint64_t, kBuckets> counts_{};
    uint64_t total_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LATENCY_H
