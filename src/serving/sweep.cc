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

/** The fast drain over the shared cluster event loop: dispatch is a
 * service-table lookup placed through DeviceCluster::planTimes — the
 * same timing rule the real EventScheduler commits runs with. */
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
    std::vector<Bytes> device_peak(
        static_cast<std::size_t>(cluster.deviceCount()), 0);

    bool stable = multidnn::drainClusterQueue(
        trace, policy, cluster,
        [&](std::size_t seq) {
            const auto &req = trace[seq];
            auto it = services.find(req.model);
            FM_ASSERT(it != services.end(),
                      "simulateServing: model missing from the "
                      "service table");
            ReadyRequest r;
            r.queueIndex = seq;
            r.model = req.model;
            r.arrival = req.arrival;
            r.priority = req.priority;
            r.estimatedLatency = it->second.service;
            r.latencyBound = req.latencyBound;
            return r;
        },
        [&](const ReadyRequest &picked,
            const std::vector<ReadyRequest> &, SimTime now,
            std::uint64_t) {
            const auto &profile = services.at(picked.model);
            Bytes budget = picked.degraded ? profile.degradedPlanBudget
                                           : profile.planBudget;
            int dev = cluster.pickDevice(now);
            SimTime init = picked.degraded
                               ? profile.degradedInitService
                               : profile.initService;
            SimTime exec = picked.degraded
                               ? profile.degradedExecService()
                               : profile.execService();
            auto t = cluster.planTimes(dev, now, init, exec);
            cluster.commit(dev, picked.model, budget, t);

            Bytes peak = picked.degraded ? profile.degradedPeakBytes
                                         : profile.peakBytes;
            out.peakMemory = std::max(out.peakMemory, peak);
            auto &dpeak = device_peak[static_cast<std::size_t>(dev)];
            dpeak = std::max(dpeak, peak);
            return DispatchedRun{dev, t};
        },
        [&](const ReadyRequest &req, const DispatchedRun &run,
            std::uint64_t) {
            // Stats are recorded when a run survives to completion —
            // killed dispatches retry or shed instead — with the
            // actual (possibly stall-shifted) timeline. The loop
            // delivers completions in dispatch order, so the P²
            // insertion order matches the real scheduler's
            // dispatch-ordered runs exactly.
            SimTime latency = run.times.end - req.arrival;
            bool met = req.latencyBound <= 0 ||
                       latency <= req.latencyBound;
            out.stats.recordCompletion(latency,
                                       run.times.start - req.arrival,
                                       met, req.degraded);
            out.makespan = std::max(out.makespan, run.times.end);
        },
        [&](const ReadyRequest &, SimTime, multidnn::DropReason reason) {
            if (reason == multidnn::DropReason::ArrivalShed)
                ++out.arrivalSheds;
            out.stats.recordShed();
        },
        params.readyLimit,
        params.faults.empty() ? nullptr : &params.faults,
        params.recovery, &out.faults, params.arrival, params.trace);

    out.unstable = !stable;
    out.devices = cluster.utilization(out.makespan);
    for (std::size_t i = 0; i < out.devices.size(); ++i)
        out.devices[i].peakMemory = device_peak[i];
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
    double lo = 0.0, hi = 0.0;
    for (const auto &pt : result.probes) {
        if (pt.sustainable) {
            lo = pt.qps;
        } else {
            hi = pt.qps;
            break;
        }
    }
    if (lo == 0.0) {
        // Even the lowest rung failed the SLO.
        result.maxSustainableQps = 0.0;
        return result;
    }
    if (hi == 0.0) {
        // Everything up to the cap sustained.
        result.maxSustainableQps = params.hiQps;
        return result;
    }

    // Geometric binary search inside the bracket.
    while ((hi - lo) / lo > kSweepResolution) {
        double mid = std::sqrt(lo * hi);
        auto pt = probe(mix, policy, services, params, mid);
        result.probes.push_back(pt);
        if (pt.sustainable)
            lo = mid;
        else
            hi = mid;
    }
    result.maxSustainableQps = lo;
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
