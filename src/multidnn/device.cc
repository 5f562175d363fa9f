#include "multidnn/device.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace flashmem::multidnn {

namespace {

/** Overlap pipeline depth: one computing + one preloading request. */
constexpr int kOverlapPipelineDepth = 2;

/** Load order: earlier compute-free first, DMA-free then id tie-break.
 * A total order, so placement is deterministic for any candidate set. */
bool
lessLoaded(const DeviceState &a, const DeviceState &b)
{
    if (a.computeBusyUntil != b.computeBusyUntil)
        return a.computeBusyUntil < b.computeBusyUntil;
    if (a.dmaBusyUntil != b.dmaBusyUntil)
        return a.dmaBusyUntil < b.dmaBusyUntil;
    return a.id < b.id;
}

} // namespace

DeviceCluster::DeviceCluster(ClusterConfig cfg)
    : cfg_(cfg)
{
    FM_ASSERT(cfg_.deviceCount >= 1, "cluster needs >= 1 device");
    devices_.resize(static_cast<std::size_t>(cfg_.deviceCount));
    for (std::size_t i = 0; i < devices_.size(); ++i)
        devices_[i].id = static_cast<int>(i);
}

bool
DeviceCluster::canAccept(int device, SimTime now) const
{
    const auto &d = devices_[static_cast<std::size_t>(device)];
    if (d.health == DeviceHealth::Down)
        return false;
    if (!cfg_.overlapInitWithExec)
        return d.inFlight == 0 && d.computeBusyUntil <= now &&
               d.dmaBusyUntil <= now;
    // Probation probe: a freshly rejoined device serves one request
    // at a time until its Suspect window passes.
    int depth = d.health == DeviceHealth::Suspect &&
                        now < d.probationUntil
                    ? 1
                    : kOverlapPipelineDepth;
    return d.inFlight < depth && d.dmaBusyUntil <= now;
}

bool
DeviceCluster::anyAccepting(SimTime now) const
{
    for (const auto &d : devices_) {
        if (canAccept(d.id, now))
            return true;
    }
    return false;
}

int
DeviceCluster::pickDevice(SimTime now) const
{
    const DeviceState *pick = nullptr;
    for (const auto &d : devices_) {
        if (canAccept(d.id, now) && (!pick || lessLoaded(d, *pick)))
            pick = &d;
    }
    FM_ASSERT(pick, "pickDevice with no accepting device");
    return pick->id;
}

PlacedTimes
DeviceCluster::planTimes(int device, SimTime now, SimTime initTime,
                         SimTime execTime) const
{
    const auto &d = devices_[static_cast<std::size_t>(device)];
    if (now < d.slowUntil && d.slowFactor > 1.0) {
        // Thermal-throttle window: the whole service stretches.
        initTime = std::llround(d.slowFactor *
                                static_cast<double>(initTime));
        execTime = std::llround(d.slowFactor *
                                static_cast<double>(execTime));
    }
    PlacedTimes t;
    if (!cfg_.overlapInitWithExec) {
        // Single-resource device: init and exec run back to back, and
        // the device is only offered work when fully idle.
        t.start = std::max({now, d.computeBusyUntil, d.dmaBusyUntil});
        t.initDone = t.start + initTime;
        t.end = t.initDone + execTime;
        return t;
    }
    // Two resources: preload DMA starts when the DMA queue frees (it
    // may overlap the previous run's compute); the compute phase then
    // queues behind the previous run.
    t.start = std::max(now, d.dmaBusyUntil);
    t.initDone = t.start + initTime;
    t.end = std::max(t.initDone, d.computeBusyUntil) + execTime;
    return t;
}

void
DeviceCluster::commit(int device, models::ModelId model,
                      Bytes planBudget, const PlacedTimes &t)
{
    auto &d = devices_[static_cast<std::size_t>(device)];
    // Exec phase begins once the preload set is resident and the
    // previous run retired (equals t.initDone when overlap is off).
    SimTime compute_start = std::max(t.initDone, d.computeBusyUntil);
    d.dmaBusyUntil = t.initDone;
    d.computeBusyUntil = t.end;
    ++d.inFlight;
    ++d.dispatched;
    d.dmaBusyTime += t.initDone - t.start;
    d.computeBusyTime += t.end - compute_start;

    auto [it, inserted] =
        d.residentPlanBudget.try_emplace(model, planBudget);
    if (inserted || it->second != planBudget) {
        ++d.planSwitches;
        it->second = planBudget;
    }
}

void
DeviceCluster::complete(int device)
{
    auto &d = devices_[static_cast<std::size_t>(device)];
    FM_ASSERT(d.inFlight > 0, "completion on an idle device");
    --d.inFlight;
}

void
DeviceCluster::crash(int device, SimTime now)
{
    auto &d = devices_[static_cast<std::size_t>(device)];
    FM_ASSERT(d.health != DeviceHealth::Down,
              "crash on a device already down");
    // The loop has already killed the in-flight runs, so the pipeline
    // empties and the horizons collapse to now. Device memory is gone
    // with the device: every resident plan must be re-planned after
    // the rejoin.
    d.health = DeviceHealth::Down;
    d.downSince = now;
    d.inFlight = 0;
    d.computeBusyUntil = now;
    d.dmaBusyUntil = now;
    d.residentPlanBudget.clear();
    if (trace_)
        trace_->deviceHealthChange(now, d.id,
                                   static_cast<std::int64_t>(d.health),
                                   /*crash_down=*/1, d.probationUntil);
}

void
DeviceCluster::rejoin(int device, SimTime now, SimTime probation)
{
    auto &d = devices_[static_cast<std::size_t>(device)];
    FM_ASSERT(d.health == DeviceHealth::Down,
              "rejoin on a device that is not down");
    d.downTime += now - d.downSince;
    d.health = DeviceHealth::Suspect;
    d.probationUntil = now + probation;
    d.inFlight = 0;
    d.computeBusyUntil = now;
    d.dmaBusyUntil = now;
    if (trace_)
        trace_->deviceHealthChange(
            now, d.id, static_cast<std::int64_t>(d.health),
            /*crash_down=*/0, d.probationUntil);
}

void
DeviceCluster::setSlowdown(int device, double factor, SimTime until)
{
    auto &d = devices_[static_cast<std::size_t>(device)];
    FM_ASSERT(factor >= 1.0, "slowdown factor must be >= 1");
    d.slowFactor = factor;
    d.slowUntil = until;
}

std::vector<DeviceUtilization>
DeviceCluster::utilization(SimTime makespan) const
{
    std::vector<DeviceUtilization> out;
    out.reserve(devices_.size());
    for (const auto &d : devices_) {
        DeviceUtilization u;
        u.device = d.id;
        u.dispatched = d.dispatched;
        u.planSwitches = d.planSwitches;
        u.computeBusyTime = d.computeBusyTime;
        u.dmaBusyTime = d.dmaBusyTime;
        u.downTime = d.downTime;
        if (d.health == DeviceHealth::Down && makespan > d.downSince)
            u.downTime += makespan - d.downSince;
        if (makespan > 0) {
            u.computeUtilization =
                static_cast<double>(d.computeBusyTime) /
                static_cast<double>(makespan);
            u.dmaUtilization = static_cast<double>(d.dmaBusyTime) /
                               static_cast<double>(makespan);
            u.downFraction = static_cast<double>(u.downTime) /
                             static_cast<double>(makespan);
        }
        out.push_back(u);
    }
    return out;
}

} // namespace flashmem::multidnn
