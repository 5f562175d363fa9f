#include "multidnn/faults.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::multidnn {

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
