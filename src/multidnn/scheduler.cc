#include "multidnn/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "multidnn/event_loop.hh"

namespace flashmem::multidnn {

namespace {

using Point = TimeSeries::Point;

/** One solo execution of an artifact at time 0 on a scratch simulator
 * of @p dev: @p exec runs it and returns its result. */
template <typename Exec>
SoloRun
soloRun(const gpusim::DeviceProfile &dev, Exec &&exec)
{
    gpusim::GpuSimulator scratch(dev);
    SoloRun solo;
    solo.result = exec(scratch);
    solo.trace = scratch.memory().totalTrace().points();
    solo.activity = scratch.activity(solo.result.end);
    FM_ASSERT(!solo.trace.empty() && solo.trace.back().value == 0.0,
              solo.result.model, "'s solo run leaves bytes live");
    return solo;
}

/**
 * Add the step function @p steps (points of strictly increasing time)
 * into @p total, another one's points. The sum has one point at every
 * time either has: a run that starts where the previous one ended
 * appends its points verbatim, its first point overwriting the
 * previous run's last, as one simulator running both would record
 * them. Bytes are integers well below 2^53, so every sum is exact and
 * the total does not depend on the order runs are added in.
 */
void
addSteps(std::vector<Point> &total, const std::vector<Point> &steps)
{
    if (steps.empty())
        return;
    auto first = std::lower_bound(
        total.begin(), total.end(), steps.front().time,
        [](const Point &p, SimTime t) { return p.time < t; });
    const std::vector<Point> tail(first, total.end());
    double held = first == total.begin() ? 0.0 : std::prev(first)->value;
    total.erase(first, total.end());
    double added = 0.0;
    std::size_t i = 0, j = 0;
    while (i < tail.size() || j < steps.size()) {
        SimTime t = std::min(i < tail.size() ? tail[i].time : kTimeNever,
                             j < steps.size() ? steps[j].time
                                              : kTimeNever);
        if (i < tail.size() && tail[i].time == t)
            held = tail[i++].value;
        if (j < steps.size() && steps[j].time == t)
            added = steps[j++].value;
        total.push_back({t, held + added});
    }
}

/**
 * What the live and preload backends share: the outcome and each
 * device's ledger of runs. A run is the solo run that priced it,
 * spliced at the times the loop gave it: its init part (the points
 * before the solo initDone) from its start on, its exec part ending at
 * its end — a plain shift for a serialized run nothing slowed down —
 * and cut at its kill, where its live bytes drop to zero. Completed
 * runs arrive in dispatch order, killed runs when they die.
 */
class ScheduledRuns
{
  public:
    ScheduledRuns(const SchedulingPolicy &policy,
                  const DeviceCluster &cluster,
                  const gpusim::DeviceProfile &dev, std::size_t requests)
        : power_(dev),
          devices_(static_cast<std::size_t>(cluster.deviceCount()))
    {
        out.policy = policy.name();
        out.runs.reserve(requests);
    }

    /** A run is spliced when it completes or dies, not when placed. */
    void placed(const ReadyRequest &, const DispatchedRun &, std::uint64_t)
    {}

    void
    dropped(const ReadyRequest &r, SimTime now, DropReason reason)
    {
        out.shed.push_back({r.queueIndex, r.model, r.arrival,
                            r.latencyBound, now, reason});
    }

    /** Finalize makespan, memory, energy, trace and per-device rows.
     * The makespan is the last completion; the utilization rows use
     * it. Runs are resident until the later of it and the last kill,
     * so the average memory and the base power run over [0, that
     * horizon]. A device's trace is the sum of its runs, completed and
     * killed, and its peak that trace's peak; its energy is base power
     * over the horizon plus its runs' activity. */
    ScheduleOutcome
    finish(const DeviceCluster &cluster)
    {
        for (const auto &r : out.runs)
            out.makespan = std::max(out.makespan, r.end);
        out.devices = cluster.utilization(out.makespan);
        const SimTime horizon = std::max(out.makespan, last_kill_);
        std::vector<Point> cluster_points;
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            TimeSeries trace(devices_[i].points());
            Bytes peak = static_cast<Bytes>(trace.peak());
            auto activity = devices_[i].activity;
            activity.makespan = horizon;
            double energy = power_.energyJoules(activity);
            out.devices[i].peakMemory = peak;
            out.devices[i].energyJoules = energy;
            // Devices are distinct hardware: the cluster peak is the
            // worst per-device peak, energy and average live bytes sum.
            out.peakMemory = std::max(out.peakMemory, peak);
            out.avgMemoryBytes += trace.timeWeightedAverage(0, horizon);
            out.energyJoules += energy;
            if (devices_.size() == 1)
                out.trace = std::move(trace);
            else
                addSteps(cluster_points, trace.points());
        }
        if (devices_.size() > 1) {
            // The cluster trace keeps only the points where the sum
            // changes.
            for (const auto &p : cluster_points)
                out.trace.record(p.time, p.value);
        }
        return std::move(out);
    }

    ScheduleOutcome out;

  protected:
    /** Record @p solo, the solo run that priced a completed run, at the
     * run's placed times. */
    void
    record(const ReadyRequest &req, const DispatchedRun &run,
           const SoloRun &solo)
    {
        splice(run, solo, kTimeNever);
        core::RunResult r = solo.result;
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

    /**
     * Splice @p solo for @p run, cut at @p kill. A killed run is charged
     * the share of its solo activity that the elapsed share of its
     * placed span [start, end) stands for at the kill, rounded down.
     */
    void
    splice(const DispatchedRun &run, const SoloRun &solo, SimTime kill)
    {
        auto &d = devices_[static_cast<std::size_t>(run.device)];
        d.ledger.push_back({&solo, run.times, kill});
        if (kill != kTimeNever)
            last_kill_ = std::max(last_kill_, kill);
        double done = 1.0;
        if (kill < run.times.end) {
            done = kill <= run.times.start
                       ? 0.0
                       : static_cast<double>(kill - run.times.start) /
                             static_cast<double>(run.times.end -
                                                 run.times.start);
        }
        // Busy times and bytes are far below 2^53: a whole share is
        // exact.
        auto share = [done](auto busy) {
            return static_cast<decltype(busy)>(static_cast<double>(busy) *
                                               done);
        };
        const auto &a = solo.activity;
        d.activity.computeBusy += share(a.computeBusy);
        d.activity.diskBusy += share(a.diskBusy);
        d.activity.bytesMoved += share(a.bytesMoved);
    }

  private:
    /** One run on a device: its solo run, placed times and kill
     * (kTimeNever when it completed). */
    struct Spliced
    {
        const SoloRun *solo = nullptr;
        PlacedTimes times;
        SimTime kill = kTimeNever;
    };

    struct Device
    {
        std::vector<Spliced> ledger;
        gpusim::ActivitySummary activity;

        /** The device's total-memory trace: its runs' points at their
         * spliced times, summed. */
        std::vector<Point>
        points() const
        {
            std::size_t count = 0;
            for (const auto &s : ledger)
                count += s.solo->trace.size();
            std::vector<Point> total, run;
            total.reserve(count);
            for (const auto &s : ledger) {
                const auto &r = s.solo->result;
                const SimTime exec_shift = s.times.end - r.end;
                run.clear();
                for (const auto &p : s.solo->trace) {
                    SimTime t = p.time < r.initDone
                                    ? s.times.start + p.time
                                    : exec_shift + p.time;
                    if (t >= s.kill) {
                        if (!run.empty())
                            run.push_back({s.kill, 0.0});
                        break;
                    }
                    run.push_back({t, p.value});
                }
                addSteps(total, run);
            }
            return total;
        }
    };

    gpusim::PowerModel power_;
    std::vector<Device> devices_;
    SimTime last_kill_ = 0; ///< the latest kill of any run
};

/** The preload backend: one solo cold start per model prices every
 * request of it, and every run of the model splices it. */
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
        return coldStart(model).result.integratedLatency();
    }

    RunService
    service(const ReadyRequest &picked, const std::vector<ReadyRequest> &,
            SimTime)
    {
        const auto &p = coldStart(picked.model).result;
        return {0, p.initLatency(), p.execLatency()};
    }

    void
    completed(const ReadyRequest &req, const DispatchedRun &run,
              std::uint64_t)
    {
        record(req, run, coldStart(req.model));
    }

    void
    killed(const ReadyRequest &req, const DispatchedRun &run,
           std::uint64_t, SimTime now)
    {
        splice(run, coldStart(req.model), now);
    }

  private:
    const SoloRun &
    coldStart(models::ModelId model)
    {
        auto it = models_.find(model);
        if (it != models_.end())
            return it->second;
        auto g = models::buildModel(model);
        FM_ASSERT(fw_.supports(g) == baselines::SupportStatus::Supported,
                  fw_.name(), " cannot run ", g.name());
        auto solo = soloRun(dev_, [&](gpusim::GpuSimulator &scratch) {
            return fw_.run(scratch, g, 0);
        });
        return models_.emplace(model, std::move(solo)).first->second;
    }

    baselines::PreloadFramework fw_;
    const gpusim::DeviceProfile &dev_;
    std::map<models::ModelId, SoloRun> models_;
};

} // namespace

/** The live FlashMem backend: a run costs the solo run of its (model,
 * budget) artifact — the memory-aware share or the degraded budget —
 * and splices it. */
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
            .result.integratedLatency();
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
            sched_.profileFor(picked.model, budget, out, now).result;
        return {budget, p.initLatency(), p.execLatency()};
    }

    void
    completed(const ReadyRequest &req, const DispatchedRun &run,
              std::uint64_t)
    {
        record(req, run, sched_.profileFor(req.model, run.budget, out));
    }

    void
    killed(const ReadyRequest &req, const DispatchedRun &run,
           std::uint64_t, SimTime now)
    {
        splice(run, sched_.profileFor(req.model, run.budget, out), now);
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
                         replanned.stats.buildModelSeconds +
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

const SoloRun &
EventScheduler::profileFor(models::ModelId model, Bytes budget,
                           ScheduleOutcome &out, SimTime now)
{
    auto key = std::make_pair(model, budget);
    auto it = profiles_.find(key);
    if (it != profiles_.end())
        return it->second;
    const auto &compiled = compiledFor(model, budget, out, now);
    auto solo = soloRun(fm_.device(), [&](gpusim::GpuSimulator &scratch) {
        return fm_.execute(scratch, compiled, 0);
    });
    return profiles_.emplace(key, std::move(solo)).first->second;
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
