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

/**
 * What the live and preload backends share: the outcome and one
 * simulator per cluster device. A completed run is recorded as the
 * solo profile that priced it, at the times the loop placed it;
 * completions arrive in dispatch order, and runs killed by a fault
 * never do.
 */
class ScheduledRuns
{
  public:
    ScheduledRuns(const SchedulingPolicy &policy,
                  const DeviceCluster &cluster,
                  const gpusim::DeviceProfile &dev, std::size_t requests)
    {
        out.policy = policy.name();
        out.runs.reserve(requests);
        sims.reserve(static_cast<std::size_t>(cluster.deviceCount()));
        for (int i = 0; i < cluster.deviceCount(); ++i)
            sims.emplace_back(dev);
    }

    void
    dropped(const ReadyRequest &r, SimTime now, DropReason reason)
    {
        out.shed.push_back({r.queueIndex, r.model, r.arrival,
                            r.latencyBound, now, reason});
    }

    /** Finalize makespan, memory, energy, trace and per-device rows. */
    ScheduleOutcome
    finish(const DeviceCluster &cluster)
    {
        for (const auto &r : out.runs)
            out.makespan = std::max(out.makespan, r.end);
        out.trace = sims.size() == 1
                        ? sims.front().memory().totalTrace()
                        : mergedTotalTrace(sims);
        out.devices = cluster.utilization(out.makespan);
        if (out.runs.empty())
            return std::move(out);
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
        return std::move(out);
    }

    ScheduleOutcome out;
    std::vector<gpusim::GpuSimulator> sims;

  protected:
    /** Record @p r, the solo profile of a completed run, at the run's
     * actual (possibly stall-shifted) times. */
    void
    record(const ReadyRequest &req, const DispatchedRun &run,
           core::RunResult r)
    {
        r.arrival = req.arrival;
        r.start = run.times.start;
        r.initDone = run.times.initDone;
        r.end = run.times.end;
        r.latencyBound = req.latencyBound;
        r.degraded = req.degraded;
        r.device = run.device;
        if (req.degraded)
            ++out.degradedRuns;
        out.runs.push_back(std::move(r));
    }
};

/** The preload backend: one solo cold start per model prices every
 * request of it, and each placed run executes the framework on its
 * device's simulator. */
class PreloadRuns : public ScheduledRuns
{
  public:
    PreloadRuns(baselines::FrameworkId framework,
                const gpusim::DeviceProfile &dev,
                const SchedulingPolicy &policy,
                const DeviceCluster &cluster, std::size_t requests)
        : ScheduledRuns(policy, cluster, dev, requests),
          fw_(framework, dev), dev_(dev)
    {}

    SimTime
    estimate(models::ModelId model)
    {
        return coldStart(model).profile.integratedLatency();
    }

    RunService
    service(const ReadyRequest &picked, const std::vector<ReadyRequest> &,
            SimTime)
    {
        const auto &p = coldStart(picked.model).profile;
        return {0, p.initLatency(), p.execLatency()};
    }

    void
    placed(const ReadyRequest &picked, const DispatchedRun &run,
           std::uint64_t)
    {
        fw_.run(sims[static_cast<std::size_t>(run.device)],
                coldStart(picked.model).graph, run.times.start);
    }

    void
    completed(const ReadyRequest &req, const DispatchedRun &run,
              std::uint64_t)
    {
        record(req, run, coldStart(req.model).profile);
    }

  private:
    struct ColdStart
    {
        graph::Graph graph;
        core::RunResult profile;
    };

    const ColdStart &
    coldStart(models::ModelId model)
    {
        auto it = models_.find(model);
        if (it != models_.end())
            return it->second;
        auto g = models::buildModel(model);
        FM_ASSERT(fw_.supports(g) == baselines::SupportStatus::Supported,
                  fw_.name(), " cannot run ", g.name());
        gpusim::GpuSimulator scratch(dev_);
        auto profile = fw_.run(scratch, g, 0);
        return models_.emplace(model, ColdStart{std::move(g), profile})
            .first->second;
    }

    baselines::PreloadFramework fw_;
    const gpusim::DeviceProfile &dev_;
    std::map<models::ModelId, ColdStart> models_;
};

} // namespace

/** The live FlashMem backend: a run costs the solo profile of its
 * (model, budget) artifact — the memory-aware share or the degraded
 * budget — and each placed run executes on its device's simulator for
 * the memory and energy traces. */
class EventScheduler::FlashMemRuns : public ScheduledRuns
{
  public:
    FlashMemRuns(EventScheduler &sched, const SchedulingPolicy &policy,
                 const DeviceCluster &cluster, std::size_t requests)
        : ScheduledRuns(policy, cluster, sched.fm_.device(), requests),
          sched_(sched), policy_(policy)
    {}

    SimTime
    estimate(models::ModelId model)
    {
        return sched_.profileFor(model, basePeak(), out)
            .integratedLatency();
    }

    RunService
    service(const ReadyRequest &picked,
            const std::vector<ReadyRequest> &ready, SimTime now)
    {
        Bytes budget = basePeak();
        if (policy_.memoryAware()) {
            // Co-resident working sets: the dispatched model plus
            // every distinct model still waiting in the ready set.
            std::vector<models::ModelId> distinct{picked.model};
            for (const auto &r : ready) {
                if (std::find(distinct.begin(), distinct.end(),
                              r.model) == distinct.end())
                    distinct.push_back(r.model);
            }
            budget = sched_.admissionBudget(
                static_cast<int>(distinct.size()));
        }
        if (picked.degraded) {
            // Degraded dispatch: the policy's reduced budget frees
            // shared capacity instead of dropping the request.
            budget = std::min(budget,
                              sched_.clampQuantize(
                                  policy_.degradedBudget(basePeak())));
        }
        // Any on-device re-plan for this budget happens here, traced
        // at this dispatch.
        const auto &p =
            sched_.profileFor(picked.model, budget, out, now);
        return {budget, p.initLatency(), p.execLatency()};
    }

    void
    placed(const ReadyRequest &picked, const DispatchedRun &run,
           std::uint64_t)
    {
        // The execution keeps the device's memory and energy traces;
        // the run's times are the loop's.
        sched_.fm_.execute(
            sims[static_cast<std::size_t>(run.device)],
            sched_.compiledFor(picked.model, run.budget, out),
            run.times.start);
    }

    void
    completed(const ReadyRequest &req, const DispatchedRun &run,
              std::uint64_t)
    {
        record(req, run, sched_.profileFor(req.model, run.budget, out));
    }

  private:
    Bytes basePeak() const { return sched_.fm_.options().opg.mPeak; }

    EventScheduler &sched_;
    const SchedulingPolicy &policy_;
};

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
                            ScheduleOutcome &out, SimTime now)
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

    // On-device re-plan: shrunken/grown residual budget.
    const auto &base = compiledFor(model, base_budget, out);
    auto replanned = fm_.replan(base, budget);
    ++out.replans;
    out.replanSeconds += replanned.stats.processNodesSeconds +
                         replanned.stats.stageSeconds +
                         replanned.stats.solveSeconds +
                         replanned.stats.mergeSeconds;
    if (cfg_.trace) {
        const auto &st = replanned.stats;
        cfg_.trace->replan(now, static_cast<std::int32_t>(model),
                           static_cast<std::int64_t>(budget),
                           static_cast<std::int64_t>(st.memoHits),
                           st.windows);
        for (const auto &w : st.windowSummaries)
            cfg_.trace->solverWindow(
                now, static_cast<std::uint64_t>(w.window),
                static_cast<std::int32_t>(model), w.objective - w.bound,
                static_cast<std::int64_t>(w.augmentations),
                w.status == solver::SolveStatus::Optimal ? 1 : 0);
    }
    it = compiled_.emplace(key, std::move(replanned)).first;
    return it->second;
}

const core::RunResult &
EventScheduler::profileFor(models::ModelId model, Bytes budget,
                           ScheduleOutcome &out, SimTime now)
{
    auto key = std::make_pair(model, budget);
    auto it = profiles_.find(key);
    if (it != profiles_.end())
        return it->second;
    const auto &compiled = compiledFor(model, budget, out, now);
    gpusim::GpuSimulator scratch(fm_.device());
    it = profiles_.emplace(key, fm_.execute(scratch, compiled, 0))
             .first;
    return it->second;
}

ScheduleOutcome
EventScheduler::run(const std::vector<ModelRequest> &queue,
                    const SchedulingPolicy &policy)
{
    DeviceCluster cluster(cfg_.cluster);
    FlashMemRuns runs(*this, policy, cluster, queue.size());
    drainClusterQueue(queue, policy, cluster, runs, /*ready_limit=*/0,
                      &cfg_.faults, &runs.out.faults,
                      cfg_.arrivalAdmission, cfg_.trace);
    return runs.finish(cluster);
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
    DeviceCluster cluster(cluster_cfg);
    PreloadRuns runs(framework, dev, policy, cluster, queue.size());
    drainClusterQueue(queue, policy, cluster, runs);
    return runs.finish(cluster);
}

} // namespace flashmem::multidnn
