/**
 * @file
 * Fundamental value types shared across the FlashMem codebase.
 *
 * Simulation time is kept in integer nanoseconds so event ordering is
 * exact; conversions to human units happen only at reporting boundaries.
 */

#ifndef FLASHMEM_COMMON_TYPES_HH
#define FLASHMEM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace flashmem {

/** Simulated time in nanoseconds. */
using SimTime = std::int64_t;

/** Byte counts. Weights for the large models exceed 4 GiB in aggregate. */
using Bytes = std::uint64_t;

/** Sentinel for "never" / unscheduled events. */
inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::max();

/** @name Time-unit constructors. @{ */
constexpr SimTime
microseconds(double us)
{
    return static_cast<SimTime>(us * 1e3);
}

constexpr SimTime
milliseconds(double ms)
{
    return static_cast<SimTime>(ms * 1e6);
}

constexpr SimTime
seconds(double s)
{
    return static_cast<SimTime>(s * 1e9);
}
/** @} */

/** @name Time-unit accessors. @{ */
constexpr double
toMicroseconds(SimTime t)
{
    return static_cast<double>(t) / 1e3;
}

constexpr double
toMilliseconds(SimTime t)
{
    return static_cast<double>(t) / 1e6;
}

constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / 1e9;
}
/** @} */

/** @name Byte-size constructors. @{ */
constexpr Bytes
kib(double v)
{
    return static_cast<Bytes>(v * 1024.0);
}

constexpr Bytes
mib(double v)
{
    return static_cast<Bytes>(v * 1024.0 * 1024.0);
}

constexpr Bytes
gib(double v)
{
    return static_cast<Bytes>(v * 1024.0 * 1024.0 * 1024.0);
}

constexpr double
toMiB(Bytes b)
{
    return static_cast<double>(b) / (1024.0 * 1024.0);
}

/** @} */

/**
 * Bandwidth expressed in bytes per second.
 *
 * Transfer durations are rounded up to the next nanosecond so that a
 * nonzero transfer always advances simulated time.
 */
struct Bandwidth
{
    double bytesPerSecond = 0.0;

    static constexpr Bandwidth
    gbps(double gigabytes_per_second)
    {
        return Bandwidth{gigabytes_per_second * 1e9};
    }

    static constexpr Bandwidth
    mbps(double megabytes_per_second)
    {
        return Bandwidth{megabytes_per_second * 1e6};
    }

    /** Time to move @p bytes at this bandwidth. */
    constexpr SimTime
    transferTime(Bytes bytes) const
    {
        if (bytesPerSecond <= 0.0)
            return kTimeNever;
        double ns = static_cast<double>(bytes) / bytesPerSecond * 1e9;
        auto whole = static_cast<SimTime>(ns);
        return (static_cast<double>(whole) < ns) ? whole + 1 : whole;
    }
};

/** Floating-point precision used by a deployment. */
enum class Precision { FP16, FP32 };

/** Size in bytes of a single scalar element of @p p. */
constexpr Bytes
elementSize(Precision p)
{
    return p == Precision::FP16 ? 2 : 4;
}

} // namespace flashmem

#endif // FLASHMEM_COMMON_TYPES_HH
