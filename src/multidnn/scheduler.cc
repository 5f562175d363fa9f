#include "multidnn/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "multidnn/event_loop.hh"

namespace flashmem::multidnn {

namespace {

/** Sum of the devices' total-memory step functions (cluster trace). */
TimeSeries
mergedTotalTrace(const std::vector<gpusim::GpuSimulator> &sims)
{
    struct Cursor
    {
        const std::vector<TimeSeries::Point> *points;
        std::size_t next = 0;
        double value = 0.0;
    };
    std::vector<Cursor> cursors;
    for (const auto &sim : sims)
        cursors.push_back({&sim.memory().totalTrace().points()});

    TimeSeries merged;
    for (;;) {
        SimTime t = kTimeNever;
        for (const auto &c : cursors) {
            if (c.next < c.points->size())
                t = std::min(t, (*c.points)[c.next].time);
        }
        if (t == kTimeNever)
            break;
        double total = 0.0;
        for (auto &c : cursors) {
            while (c.next < c.points->size() &&
                   (*c.points)[c.next].time <= t) {
                c.value = (*c.points)[c.next].value;
                ++c.next;
            }
            total += c.value;
        }
        merged.record(t, total);
    }
    return merged;
}

} // namespace

SimTime
ScheduleOutcome::meanLatency() const
{
    if (runs.empty())
        return 0;
    SimTime total = 0;
    for (const auto &r : runs)
        total += r.requestLatency();
    return total / static_cast<SimTime>(runs.size());
}

SimTime
ScheduleOutcome::meanQueueDelay() const
{
    if (runs.empty())
        return 0;
    SimTime total = 0;
    for (const auto &r : runs)
        total += r.queueDelay();
    return total / static_cast<SimTime>(runs.size());
}

std::size_t
ScheduleOutcome::goodput() const
{
    std::size_t good = 0;
    for (const auto &r : runs)
        good += r.metSlo() ? 1 : 0;
    return good;
}

std::size_t
ScheduleOutcome::sloViolations() const
{
    return runs.size() - goodput();
}

double
ScheduleOutcome::goodputRate() const
{
    std::size_t submitted = runs.size() + shed.size();
    if (submitted == 0)
        return 1.0;
    return static_cast<double>(goodput()) /
           static_cast<double>(submitted);
}

double
ScheduleOutcome::shedRate() const
{
    std::size_t submitted = runs.size() + shed.size();
    if (submitted == 0)
        return 0.0;
    return static_cast<double>(shed.size()) /
           static_cast<double>(submitted);
}

EventScheduler::EventScheduler(const core::FlashMem &fm,
                               SchedulerConfig cfg)
    : fm_(fm), cfg_(cfg)
{
    if (cfg_.capacityBudget == 0)
        cfg_.capacityBudget = fm.device().appMemoryBudget;
    cfg_.minModelBudget =
        std::max(cfg_.minModelBudget, fm.options().opg.chunkBytes);
    cfg_.budgetQuantum = std::max<Bytes>(cfg_.budgetQuantum, 1);
}

void
EventScheduler::summarize(const std::vector<gpusim::GpuSimulator> &sims,
                          const DeviceCluster &cluster,
                          ScheduleOutcome &out)
{
    for (const auto &r : out.runs)
        out.makespan = std::max(out.makespan, r.end);
    out.trace = sims.size() == 1
                    ? sims.front().memory().totalTrace()
                    : mergedTotalTrace(sims);
    out.devices = cluster.utilization(out.makespan);
    if (out.runs.empty())
        return;
    for (std::size_t i = 0; i < sims.size(); ++i) {
        const auto &mem = sims[i].memory();
        Bytes peak = mem.peakOver(0, out.makespan);
        double energy = sims[i].energyJoules(out.makespan);
        out.devices[i].peakMemory = peak;
        out.devices[i].energyJoules = energy;
        // Devices are distinct hardware: the cluster peak is the
        // worst per-device peak, energy and average live bytes sum.
        out.peakMemory = std::max(out.peakMemory, peak);
        out.avgMemoryBytes += mem.averageBytes(0, out.makespan);
        out.energyJoules += energy;
    }
}

ScheduleOutcome
EventScheduler::drain(DeviceCluster &cluster,
                      const std::vector<ModelRequest> &queue,
                      const SchedulingPolicy &policy,
                      const std::map<models::ModelId, SimTime> &estimates,
                      const DispatchFn &dispatch,
                      const FaultPlan *faults,
                      const RecoveryConfig &recovery,
                      const ArrivalAdmission *arrival,
                      obs::TraceRecorder *trace)
{
    ScheduleOutcome out;
    out.policy = policy.name();
    out.runs.reserve(queue.size());
    // Results computed at dispatch, keyed by run id until the loop
    // resolves the run: completions land in out.runs (in dispatch
    // order — the loop delivers onComplete in run-id order), runs
    // killed by a fault never do.
    std::map<std::uint64_t, core::RunResult> pending;

    drainClusterQueue(
        queue, policy, cluster,
        [&](std::size_t seq) {
            const auto &req = queue[seq];
            auto est = estimates.find(req.model);
            ReadyRequest r;
            r.queueIndex = seq;
            r.model = req.model;
            r.arrival = req.arrival;
            r.priority = req.priority;
            r.estimatedLatency =
                est != estimates.end() ? est->second : 0;
            r.latencyBound = req.latencyBound;
            return r;
        },
        [&](const ReadyRequest &picked,
            const std::vector<ReadyRequest> &ready, SimTime now,
            std::uint64_t run_id) {
            // Co-resident working sets: the dispatched model plus
            // every distinct model still waiting in the ready set.
            std::vector<models::ModelId> distinct{picked.model};
            for (const auto &r : ready) {
                if (std::find(distinct.begin(), distinct.end(),
                              r.model) == distinct.end())
                    distinct.push_back(r.model);
            }

            auto d = dispatch(picked, now,
                              static_cast<int>(distinct.size()));
            d.run.arrival = picked.arrival;
            d.run.latencyBound = picked.latencyBound;
            d.run.degraded = picked.degraded;
            d.run.device = d.device;
            DispatchedRun placed{d.device,
                                 {d.run.start, d.run.initDone,
                                  d.run.end}};
            pending.emplace(run_id, std::move(d.run));
            return placed;
        },
        [&](const ReadyRequest &picked, const DispatchedRun &run,
            std::uint64_t run_id) {
            auto it = pending.find(run_id);
            FM_ASSERT(it != pending.end(),
                      "completion for an unknown run id");
            auto r = std::move(it->second);
            pending.erase(it);
            // A stall may have shifted the run while it was in
            // flight; the loop's placed times are the actual ones.
            r.initDone = run.times.initDone;
            r.end = run.times.end;
            if (picked.degraded)
                ++out.degradedRuns;
            out.runs.push_back(std::move(r));
        },
        [&](const ReadyRequest &r, SimTime now, DropReason reason) {
            out.shed.push_back({r.queueIndex, r.model, r.arrival,
                                r.latencyBound, now, reason});
        },
        /*ready_limit=*/0, faults, recovery, &out.faults, arrival,
        trace);
    return out;
}

Bytes
quantizeBudgetShare(Bytes share, const SchedulerConfig &cfg,
                    Bytes chunk_floor, Bytes mPeak)
{
    // Quantize down so ready-set fluctuations do not churn re-plans.
    share -= share % std::max<Bytes>(cfg.budgetQuantum, 1);
    share = std::max(share, std::max(cfg.minModelBudget, chunk_floor));
    return std::min(share, mPeak);
}

Bytes
EventScheduler::clampQuantize(Bytes share) const
{
    // cfg_.minModelBudget already folds in the chunk-size floor (ctor).
    return quantizeBudgetShare(share, cfg_, 0,
                               fm_.options().opg.mPeak);
}

Bytes
EventScheduler::admissionBudget(int co_resident) const
{
    // The shared capacity budget caps even a lone model: its share is
    // the whole budget, still clamped to the configured plan budget.
    Bytes share = cfg_.capacityBudget /
                  static_cast<Bytes>(std::max(co_resident, 1));
    return clampQuantize(share);
}

const core::CompiledModel &
EventScheduler::compiledFor(models::ModelId model, Bytes budget,
                            ScheduleOutcome &out)
{
    auto key = std::make_pair(model, budget);
    auto it = compiled_.find(key);
    if (it != compiled_.end())
        return it->second;

    if (!graphs_.count(model))
        graphs_.emplace(model, models::buildModel(model));

    const Bytes base_budget = fm_.options().opg.mPeak;
    if (budget == base_budget) {
        it = compiled_
                 .emplace(key, fm_.compile(graphs_.at(model)))
                 .first;
        return it->second;
    }

    // On-device re-plan: shrunken/grown residual budget. Through the
    // PlanMemo, windows this budget cannot bind reuse their finished
    // solves exactly, and repeated window models warm-start.
    const auto &base = compiledFor(model, base_budget, out);
    auto replanned = fm_.replan(base, budget);
    ++out.replans;
    out.replanMemoHits += replanned.stats.memoHits;
    out.replanSolveReuses += replanned.stats.solveReuses;
    out.replanSeconds += replanned.stats.processNodesSeconds +
                         replanned.stats.stageSeconds +
                         replanned.stats.solveSeconds +
                         replanned.stats.mergeSeconds;
    it = compiled_.emplace(key, std::move(replanned)).first;
    return it->second;
}

const core::RunResult &
EventScheduler::profileFor(models::ModelId model, Bytes budget,
                           ScheduleOutcome &out)
{
    auto key = std::make_pair(model, budget);
    auto it = profiles_.find(key);
    if (it != profiles_.end())
        return it->second;
    const auto &compiled = compiledFor(model, budget, out);
    gpusim::GpuSimulator scratch(fm_.device());
    it = profiles_.emplace(key, fm_.execute(scratch, compiled, 0))
             .first;
    return it->second;
}

SimTime
EventScheduler::estimateFor(models::ModelId model, ScheduleOutcome &out)
{
    // Warm estimate: one run on a scratch simulator at the base budget.
    return profileFor(model, fm_.options().opg.mPeak, out)
        .integratedLatency();
}

ScheduleOutcome
EventScheduler::run(const std::vector<ModelRequest> &queue,
                    const SchedulingPolicy &policy)
{
    ScheduleOutcome replan_acc; // collects offline/replan counters
    // Offline stage: estimate each distinct model's warm latency —
    // only when the policy actually keys on it (SJF).
    std::map<models::ModelId, SimTime> estimates;
    if (policy.needsEstimates()) {
        for (const auto &req : queue) {
            if (!estimates.count(req.model))
                estimates.emplace(req.model,
                                  estimateFor(req.model, replan_acc));
        }
    }

    const bool memory_aware = policy.memoryAware();
    const bool faulty = !cfg_.faults.empty();
    DeviceCluster cluster(cfg_.cluster);
    std::vector<gpusim::GpuSimulator> sims;
    sims.reserve(static_cast<std::size_t>(cluster.deviceCount()));
    for (int i = 0; i < cluster.deviceCount(); ++i)
        sims.emplace_back(fm_.device());

    auto out = drain(
        cluster, queue, policy, estimates,
        [&](const ReadyRequest &picked, SimTime now,
            int co_resident) -> DeviceRun {
            Bytes budget = fm_.options().opg.mPeak;
            if (memory_aware)
                budget = admissionBudget(co_resident);
            if (picked.degraded) {
                // Degraded dispatch: the policy's reduced budget frees
                // shared capacity instead of dropping the request.
                budget = std::min(
                    budget,
                    clampQuantize(policy.degradedBudget(
                        fm_.options().opg.mPeak)));
            }
            int dev = cluster.pickDevice(now);
            auto &sim = sims[static_cast<std::size_t>(dev)];
            // Any on-device re-plan for this (model, budget) happens
            // inside this call; a bumped counter means the returned
            // artifact was just re-planned and its stats describe
            // that solve — emit the planner-side trace events at the
            // dispatch instant that triggered them.
            const int replans_before = replan_acc.replans;
            const auto &cm = compiledFor(picked.model, budget,
                                         replan_acc);
            if (cfg_.trace && replan_acc.replans > replans_before) {
                const auto &st = cm.stats;
                cfg_.trace->replan(
                    now, static_cast<std::int32_t>(picked.model),
                    static_cast<std::int64_t>(budget),
                    static_cast<std::int64_t>(st.memoHits),
                    st.windows);
                for (const auto &w : st.windowSummaries)
                    cfg_.trace->solverWindow(
                        now, static_cast<std::uint64_t>(w.window),
                        static_cast<std::int32_t>(picked.model),
                        static_cast<std::int64_t>(w.conflicts),
                        static_cast<std::int64_t>(w.restarts),
                        static_cast<std::int64_t>(w.propagations),
                        !w.usedGreedy &&
                                w.status ==
                                    solver::SolveStatus::Optimal
                            ? 1
                            : 0);
            }
            core::RunResult r;
            if (!cluster.overlap() && !faulty) {
                // Serialized device: the streamed execution runs on a
                // fully idle simulator, so its own times are final.
                r = fm_.execute(sim, cm, now);
            } else {
                // Cross-request overlap and/or fault injection: the
                // run's timeline follows the cluster's two-resource
                // model, with the measured solo init/exec split of
                // this (model, budget) — under faults this routes
                // even the serialized device through planTimes, so
                // slowdown scaling applies identically on both
                // execution paths. The execution on the device
                // simulator keeps the memory and energy traces real
                // (its kernels queue behind the previous run's on the
                // shared compute timeline).
                const auto &prof =
                    profileFor(picked.model, budget, replan_acc);
                auto t = cluster.planTimes(dev, now,
                                           prof.initLatency(),
                                           prof.execLatency());
                fm_.execute(sim, cm, t.start);
                r = prof;
                r.start = t.start;
                r.initDone = t.initDone;
                r.end = t.end;
            }
            cluster.commit(dev, picked.model, budget,
                           {r.start, r.initDone, r.end});
            return {dev, std::move(r)};
        },
        faulty ? &cfg_.faults : nullptr, cfg_.recovery,
        cfg_.arrivalAdmission, cfg_.trace);
    summarize(sims, cluster, out);
    out.replans += replan_acc.replans;
    out.replanMemoHits += replan_acc.replanMemoHits;
    out.replanSolveReuses += replan_acc.replanSolveReuses;
    out.replanSeconds += replan_acc.replanSeconds;
    return out;
}

ScheduleOutcome
EventScheduler::runPreload(baselines::FrameworkId framework,
                           const gpusim::DeviceProfile &dev,
                           const std::vector<ModelRequest> &queue,
                           const SchedulingPolicy &policy,
                           ClusterConfig cluster_cfg)
{
    // Baselines re-initialize per request on the compute path; there
    // is no streamed DMA-queue init to overlap with execution.
    cluster_cfg.overlapInitWithExec = false;

    baselines::PreloadFramework fw(framework, dev);
    std::map<models::ModelId, graph::Graph> graphs;
    std::map<models::ModelId, SimTime> estimates;
    for (const auto &req : queue) {
        if (graphs.count(req.model))
            continue;
        graphs.emplace(req.model, models::buildModel(req.model));
        const auto &g = graphs.at(req.model);
        FM_ASSERT(fw.supports(g) == baselines::SupportStatus::Supported,
                  fw.name(), " cannot run ", g.name());
        if (policy.needsEstimates()) {
            // Cold-start estimate: preloading pays init per request.
            gpusim::GpuSimulator scratch(dev);
            estimates.emplace(
                req.model, fw.run(scratch, g, 0).integratedLatency());
        }
    }

    DeviceCluster cluster(cluster_cfg);
    std::vector<gpusim::GpuSimulator> sims;
    sims.reserve(static_cast<std::size_t>(cluster.deviceCount()));
    for (int i = 0; i < cluster.deviceCount(); ++i)
        sims.emplace_back(dev);

    auto out = drain(
        cluster, queue, policy, estimates,
        [&](const ReadyRequest &picked, SimTime now, int) -> DeviceRun {
            int d = cluster.pickDevice(now);
            auto r = fw.run(sims[static_cast<std::size_t>(d)],
                            graphs.at(picked.model), now);
            cluster.commit(d, picked.model, 0,
                           {r.start, r.initDone, r.end});
            return {d, std::move(r)};
        });
    summarize(sims, cluster, out);
    return out;
}

} // namespace flashmem::multidnn
