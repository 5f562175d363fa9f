/**
 * @file
 * Seeded fault-plan generator for tests.
 *
 * generateFaultPlan draws a multidnn::FaultPlan from common/rng, so a
 * fault timeline is a pure function of (params, devices, horizon,
 * seed). Tests feed its plans to the shared cluster event loop through
 * both the fast serving simulator and the live EventScheduler, which
 * must then observe a bit-identical fault timeline.
 */

#ifndef FLASHMEM_TESTS_FAULT_PLAN_GEN_HH
#define FLASHMEM_TESTS_FAULT_PLAN_GEN_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "multidnn/faults.hh"

namespace flashmem::multidnn {

/** Rates for the seeded fault-plan generator (per device). Crash
 * downtimes and slowdown windows draw from fixed means (below). */
struct FaultPlanParams
{
    /** Crash arrivals per device-second (0 = none). */
    double crashesPerSecond = 0.0;
    /** Slowdown-window arrivals per device-second (0 = none). */
    double slowdownsPerSecond = 0.0;
};

namespace fault_gen {

/** Mean exponential downtime before a crash's paired Rejoin. */
inline constexpr SimTime kMeanDowntime = milliseconds(500);
/** Mean exponential length of a slowdown window. */
inline constexpr SimTime kMeanSlowdownDuration = milliseconds(500);
/** Service-time multiplier of a generated slowdown window. */
inline constexpr double kSlowdownFactor = 4.0;

/** Exponential inter-arrival draw at @p per_second events/s. */
inline SimTime
exponentialGap(Rng &rng, double per_second)
{
    // Inverse-CDF with the uniform clamped away from 0.
    double u = std::max(rng.uniform(), 1e-12);
    double gap_s = -std::log(u) / per_second;
    return std::llround(gap_s * 1e9);
}

/** Exponential duration with mean @p mean (floor 1ns). */
inline SimTime
exponentialDuration(Rng &rng, SimTime mean)
{
    double u = std::max(rng.uniform(), 1e-12);
    auto d = std::llround(-std::log(u) *
                          static_cast<double>(std::max<SimTime>(mean, 1)));
    return std::max<SimTime>(d, 1);
}

/** [start, end) windows where the device is crashed. */
struct DownWindows
{
    std::vector<std::pair<SimTime, SimTime>> spans;

    bool
    covers(SimTime t) const
    {
        for (const auto &[s, e] : spans) {
            if (t >= s && t < e)
                return true;
        }
        return false;
    }
};

} // namespace fault_gen

/**
 * Generate a seeded fault plan over @p device_count devices and a
 * @p horizon of simulated time. Each device draws from an independent
 * deterministic stream, so plans are bit-reproducible and stable under
 * changes to the device count (device i's timeline never shifts).
 * Slowdowns falling inside a crash's down window are suppressed (a
 * dead device cannot throttle).
 */
inline FaultPlan
generateFaultPlan(const FaultPlanParams &params, int device_count,
                  SimTime horizon, std::uint64_t seed)
{
    using namespace fault_gen;
    FM_ASSERT(device_count >= 1, "fault plan needs >= 1 device");
    FM_ASSERT(horizon > 0, "fault plan needs a positive horizon");
    FaultPlan plan;
    for (int dev = 0; dev < device_count; ++dev) {
        // One independent stream per (device, fault family), so a
        // device's timeline is invariant under device-count changes
        // and adding one fault family never perturbs another.
        auto dev_seed = seed + 0x9E3779B97F4A7C15ull *
                                   static_cast<std::uint64_t>(dev + 1);
        DownWindows down;

        if (params.crashesPerSecond > 0.0) {
            Rng rng(dev_seed ^ 0xC1A5Cull);
            SimTime t = 0;
            for (;;) {
                t += exponentialGap(rng, params.crashesPerSecond);
                if (t >= horizon)
                    break;
                SimTime dur = exponentialDuration(rng, kMeanDowntime);
                plan.events.push_back(
                    {t, dev, FaultKind::Crash, 0, 1.0});
                SimTime up = t + dur;
                if (up < horizon)
                    plan.events.push_back(
                        {up, dev, FaultKind::Rejoin, 0, 1.0});
                down.spans.emplace_back(t, up);
                t = up;
            }
        }

        if (params.slowdownsPerSecond > 0.0) {
            Rng rng(dev_seed ^ 0x510Dull);
            SimTime t = 0;
            for (;;) {
                t += exponentialGap(rng, params.slowdownsPerSecond);
                if (t >= horizon)
                    break;
                SimTime dur =
                    exponentialDuration(rng, kMeanSlowdownDuration);
                // A crashed device cannot throttle: suppress windows
                // that open inside a down window.
                if (down.covers(t))
                    continue;
                plan.events.push_back(
                    {t, dev, FaultKind::Slowdown, dur, kSlowdownFactor});
            }
        }
    }
    plan.normalize();
    return plan;
}

} // namespace flashmem::multidnn

#endif // FLASHMEM_TESTS_FAULT_PLAN_GEN_HH
