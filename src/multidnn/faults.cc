#include "multidnn/faults.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace flashmem::multidnn {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Rejoin:
        return "rejoin";
      case FaultKind::Stall:
        return "stall";
      case FaultKind::Slowdown:
        return "slowdown";
      case FaultKind::DmaError:
        return "dma-error";
    }
    return "unknown";
}

const char *
dropReasonName(DropReason reason)
{
    switch (reason) {
      case DropReason::Admission:
        return "admission";
      case DropReason::FaultBudget:
        return "fault-budget";
      case DropReason::Starved:
        return "starved";
      case DropReason::ArrivalShed:
        return "arrival-shed";
    }
    return "unknown";
}

void
FaultPlan::normalize()
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.device != b.device)
                             return a.device < b.device;
                         return static_cast<int>(a.kind) <
                                static_cast<int>(b.kind);
                     });
}

namespace {

/** Mean exponential downtime before a crash's paired Rejoin. */
constexpr SimTime kMeanDowntime = milliseconds(500);
/** Mean exponential length of a slowdown window. */
constexpr SimTime kMeanSlowdownDuration = milliseconds(500);
/** Service-time multiplier of a generated slowdown window. */
constexpr double kSlowdownFactor = 4.0;

/** Exponential inter-arrival draw at @p per_second events/s. */
SimTime
exponentialGap(Rng &rng, double per_second)
{
    // Inverse-CDF with the uniform clamped away from 0, matching the
    // serving trace generators' style of deterministic draws.
    double u = std::max(rng.uniform(), 1e-12);
    double gap_s = -std::log(u) / per_second;
    return std::llround(gap_s * 1e9);
}

/** Exponential duration with mean @p mean (floor 1ns). */
SimTime
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

} // namespace

FaultPlan
generateFaultPlan(const FaultPlanParams &params, int device_count,
                  SimTime horizon, std::uint64_t seed)
{
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

        auto inject = [&](std::uint64_t stream, double per_second,
                          FaultKind kind, SimTime mean_duration,
                          double factor) {
            if (per_second <= 0.0)
                return;
            Rng rng(dev_seed ^ stream);
            SimTime t = 0;
            for (;;) {
                t += exponentialGap(rng, per_second);
                if (t >= horizon)
                    break;
                SimTime dur =
                    mean_duration > 0
                        ? exponentialDuration(rng, mean_duration)
                        : 0;
                // A crashed device cannot stall, throttle, or flip a
                // DMA bit — suppress events inside down windows.
                if (down.covers(t))
                    continue;
                plan.events.push_back({t, dev, kind, dur, factor});
            }
        };
        inject(0x57A11ull, params.stallsPerSecond, FaultKind::Stall,
               params.meanStall, 1.0);
        inject(0x510Dull, params.slowdownsPerSecond,
               FaultKind::Slowdown, kMeanSlowdownDuration,
               kSlowdownFactor);
        inject(0xD3AEull, params.dmaErrorsPerSecond,
               FaultKind::DmaError, 0, 1.0);
    }
    plan.normalize();
    return plan;
}

FaultPlan
singleCrash(int device, SimTime at)
{
    FaultPlan plan;
    plan.events.push_back({at, device, FaultKind::Crash, 0, 1.0});
    return plan;
}

FaultPlan
crashAndRejoin(int device, SimTime at, SimTime downFor)
{
    FaultPlan plan;
    plan.events.push_back({at, device, FaultKind::Crash, 0, 1.0});
    plan.events.push_back(
        {at + downFor, device, FaultKind::Rejoin, 0, 1.0});
    return plan;
}

FaultPlan
singleSlowdown(int device, SimTime at, SimTime duration, double factor)
{
    FaultPlan plan;
    plan.events.push_back(
        {at, device, FaultKind::Slowdown, duration, factor});
    return plan;
}

FaultPlan
singleStall(int device, SimTime at, SimTime duration)
{
    FaultPlan plan;
    plan.events.push_back(
        {at, device, FaultKind::Stall, duration, 1.0});
    return plan;
}

FaultPlan
flappingDevice(int device, SimTime firstCrash, SimTime period,
               SimTime downFor, int cycles)
{
    FM_ASSERT(downFor < period,
              "flapping device must rejoin before its next crash");
    FaultPlan plan;
    SimTime t = firstCrash;
    for (int i = 0; i < cycles; ++i) {
        plan.events.push_back({t, device, FaultKind::Crash, 0, 1.0});
        plan.events.push_back(
            {t + downFor, device, FaultKind::Rejoin, 0, 1.0});
        t += period;
    }
    return plan;
}

FaultPlan
mergeFaultPlans(FaultPlan a, const FaultPlan &b)
{
    a.events.insert(a.events.end(), b.events.begin(), b.events.end());
    a.normalize();
    return a;
}

} // namespace flashmem::multidnn
