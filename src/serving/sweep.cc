#include "serving/sweep.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "multidnn/event_loop.hh"

namespace flashmem::serving {

using multidnn::DeviceCluster;
using multidnn::DispatchedRun;
using multidnn::ModelRequest;
using multidnn::ReadyRequest;
using multidnn::RunService;

namespace {

/** The calibrated-table backend of the cluster event loop: a run
 * costs its model's calibrated init/exec split (degraded figures for a
 * degraded run), and a placed run records its calibrated peak. */
struct CalibratedTable
{
    const ServiceTable &services;
    ServingOutcome &out;
    /** Largest calibrated peak placed on each device. */
    std::vector<Bytes> devicePeak;
    /** Peak of the run the last service() call priced. */
    Bytes peak = 0;

    SimTime
    estimate(models::ModelId model) const
    {
        auto it = services.find(model);
        FM_ASSERT(it != services.end(),
                  "simulateServing: model missing from the service "
                  "table");
        return it->second.service;
    }

    RunService
    service(const ReadyRequest &picked, const std::vector<ReadyRequest> &,
            SimTime)
    {
        const auto &p = services.at(picked.model);
        if (picked.degraded) {
            peak = p.degradedPeakBytes;
            return {p.degradedPlanBudget, p.degradedInitService,
                    p.degradedExecService()};
        }
        peak = p.peakBytes;
        return {p.planBudget, p.initService, p.execService()};
    }

    void
    placed(const ReadyRequest &, const DispatchedRun &run, std::uint64_t)
    {
        out.peakMemory = std::max(out.peakMemory, peak);
        auto &dpeak = devicePeak[static_cast<std::size_t>(run.device)];
        dpeak = std::max(dpeak, peak);
    }

    void
    completed(const ReadyRequest &req, const DispatchedRun &run,
              std::uint64_t)
    {
        // Stats are recorded when a run survives to completion —
        // killed dispatches retry or shed instead — with the actual
        // (possibly stall-shifted) timeline, in dispatch order.
        SimTime latency = run.times.end - req.arrival;
        bool met = req.latencyBound <= 0 || latency <= req.latencyBound;
        out.stats.recordCompletion(latency, run.times.start - req.arrival,
                                   met, req.degraded);
        out.makespan = std::max(out.makespan, run.times.end);
    }

    void
    killed(const ReadyRequest &, const DispatchedRun &, std::uint64_t,
           SimTime)
    {}

    void
    dropped(const ReadyRequest &, SimTime, multidnn::DropReason reason)
    {
        if (reason == multidnn::DropReason::ArrivalShed)
            ++out.arrivalSheds;
        out.stats.recordShed();
    }
};

} // namespace

ServingOutcome
simulateServing(const std::vector<ModelRequest> &trace,
                const multidnn::SchedulingPolicy &policy,
                const ServiceTable &services,
                const ServingSimParams &params)
{
    ServingOutcome out;
    out.policy = policy.name();
    out.submitted = trace.size();

    DeviceCluster cluster(params.cluster);
    CalibratedTable table{
        services, out,
        std::vector<Bytes>(
            static_cast<std::size_t>(cluster.deviceCount()), 0)};
    bool stable = multidnn::drainClusterQueue(
        trace, policy, cluster, table, params.readyLimit, &params.faults,
        &out.faults, params.arrival, params.trace);

    out.unstable = !stable;
    out.devices = cluster.utilization(out.makespan);
    for (std::size_t i = 0; i < out.devices.size(); ++i)
        out.devices[i].peakMemory = table.devicePeak[i];
    return out;
}

namespace {

/** Relative bracket width at which the capacity bisection stops. */
constexpr double kSweepResolution = 0.05;

/** Probe one operating point: seeded Poisson trace, one sim run. */
ProbePoint
probe(const ModelMix &mix, const multidnn::SchedulingPolicy &policy,
      const ServiceTable &services, const SweepParams &params,
      double qps)
{
    auto trace =
        poissonTrace(mix, qps, params.requestsPerProbe, params.seed);
    auto out = simulateServing(trace, policy, services, params.sim);

    ProbePoint pt;
    pt.qps = qps;
    pt.unstable = out.unstable;
    pt.p99Ms = out.stats.p99Ms();
    pt.goodputRate = out.stats.goodputRate();
    pt.shed = out.stats.shedCount();
    pt.sustainable = !out.unstable && out.stats.completed() > 0 &&
                     out.stats.goodputRate() >= params.slo.minGoodput;
    if (params.slo.p99Bound > 0)
        pt.sustainable =
            pt.sustainable &&
            out.stats.p99() <= params.slo.p99Bound;
    return pt;
}

/**
 * QPS at which the SLO criteria that failing probe @p hi breaks reach
 * their bounds, interpolated geometrically in QPS between passing
 * probe @p lo and @p hi on each criterion's margin (goodput above
 * minGoodput, p99 under p99Bound); the lowest crossing wins. An
 * unstable, aborted @p hi has no margin, so the crossing is @p lo.
 */
double
sloCrossing(const ProbePoint &lo, const ProbePoint &hi,
            const SloSpec &slo)
{
    if (hi.unstable)
        return lo.qps;
    // (margin at lo, margin at hi); lo passed, so every margin at lo
    // is non-negative.
    std::vector<std::pair<double, double>> margins{
        {lo.goodputRate - slo.minGoodput,
         hi.goodputRate - slo.minGoodput}};
    if (slo.p99Bound > 0) {
        const double bound = toMilliseconds(slo.p99Bound);
        margins.push_back({bound - lo.p99Ms, bound - hi.p99Ms});
    }
    double crossing = hi.qps;
    for (const auto &[at_lo, at_hi] : margins) {
        if (at_hi >= 0.0)
            continue;
        const double t = at_lo / (at_lo - at_hi);
        crossing =
            std::min(crossing, lo.qps * std::pow(hi.qps / lo.qps, t));
    }
    return crossing;
}

} // namespace

SweepResult
findMaxSustainableQps(const ModelMix &mix,
                      const multidnn::SchedulingPolicy &policy,
                      const ServiceTable &services,
                      const SweepParams &params, ThreadPool *pool)
{
    FM_ASSERT(params.loQps > 0.0 && params.hiQps >= params.loQps,
              "bad sweep QPS range");

    // Geometric bracketing ladder: loQps, 2*loQps, ... , hiQps.
    std::vector<double> ladder;
    for (double q = params.loQps; q < params.hiQps; q *= 2.0)
        ladder.push_back(q);
    ladder.push_back(params.hiQps);

    SweepResult result;
    // Ladder probes are pure functions of (mix, qps, seed): evaluating
    // them concurrently cannot change the outcome.
    if (pool) {
        std::vector<std::future<ProbePoint>> futures;
        futures.reserve(ladder.size());
        for (double q : ladder)
            futures.push_back(pool->submit([&, q] {
                return probe(mix, policy, services, params, q);
            }));
        for (auto &f : futures)
            result.probes.push_back(f.get());
    } else {
        for (double q : ladder)
            result.probes.push_back(
                probe(mix, policy, services, params, q));
    }

    // Bracket [lo, hi): lo = last sustainable rung before the first
    // unsustainable one, hi = that first unsustainable rung.
    ProbePoint lo, hi;
    for (const auto &pt : result.probes) {
        if (pt.sustainable) {
            lo = pt;
        } else {
            hi = pt;
            break;
        }
    }
    if (lo.qps == 0.0) {
        // Even the lowest rung failed the SLO.
        result.maxSustainableQps = 0.0;
        return result;
    }
    if (hi.qps == 0.0) {
        // Everything up to the cap sustained.
        result.maxSustainableQps = params.hiQps;
        return result;
    }

    // Geometric binary search inside the bracket, then the SLO
    // crossing inside the last bracket: a pass/fail verdict alone
    // would move the result by whole brackets on a tiny input change.
    while ((hi.qps - lo.qps) / lo.qps > kSweepResolution) {
        auto pt = probe(mix, policy, services, params,
                        std::sqrt(lo.qps * hi.qps));
        result.probes.push_back(pt);
        (pt.sustainable ? lo : hi) = pt;
    }
    result.maxSustainableQps = sloCrossing(lo, hi, params.slo);
    return result;
}

std::vector<ShardingPoint>
sweepDeviceCounts(const ModelMix &mix,
                  const multidnn::SchedulingPolicy &policy,
                  const ServiceTable &services,
                  const SweepParams &base,
                  const std::vector<int> &device_counts,
                  ThreadPool *pool)
{
    std::vector<ShardingPoint> out;
    for (int n : device_counts) {
        FM_ASSERT(n >= 1, "sweepDeviceCounts: bad device count");
        for (bool overlap : {false, true}) {
            SweepParams params = base;
            params.sim.cluster.deviceCount = n;
            params.sim.cluster.overlapInitWithExec = overlap;
            // More devices sustain proportionally more load; scale
            // the ladder cap so the knee stays inside the bracket.
            params.hiQps = base.hiQps * n;
            ShardingPoint pt;
            pt.devices = n;
            pt.overlap = overlap;
            pt.sweep = findMaxSustainableQps(mix, policy, services,
                                             params, pool);
            out.push_back(std::move(pt));
        }
    }
    return out;
}

} // namespace flashmem::serving
