/**
 * @file
 * Event-driven multi-DNN scheduling (paper Figure 1c / Section 5.3).
 *
 * EventScheduler drains a queue of inference requests through the
 * cluster event loop (multidnn/event_loop.hh) against a DeviceCluster
 * (multidnn/device.hh): arrivals feed a ready set, a pluggable
 * SchedulingPolicy picks the next request at every dispatch
 * opportunity, and the loop places it on the least-loaded device.
 * The scheduler is the loop's live backend: it prices each run with
 * the measured solo profile of the compiled (model, budget) artifact
 * and executes every placed run on its device's GpuSimulator for the
 * memory and energy traces. Under FlashMem the swap-in is the streamed
 * overlap plan; under preloading baselines (runPreload) it is a full
 * cold-start init — the repeated-load overhead the paper targets. With
 * ClusterConfig::overlapInitWithExec the loop additionally overlaps a
 * request's streamed init (preload DMA) with the previous request's
 * compute on the same device — the paper's memory-hierarchy overlap
 * applied across requests.
 *
 * Memory-aware policies additionally enable **on-device re-planning**:
 * the scheduler caps the sum of co-resident working-set budgets at a
 * shared capacity budget, and when a model's share shifts — because
 * other models were admitted to or evicted from the ready set — the
 * model is re-planned at its new budget via FlashMem::replan().
 * Through the FlashMem's plan memo, windows the new share cannot bind
 * reuse their finished solves exactly, so re-plans land well under a
 * second and are bit-deterministic for any planner thread count.
 */

#ifndef FLASHMEM_MULTIDNN_SCHEDULER_HH
#define FLASHMEM_MULTIDNN_SCHEDULER_HH

#include <map>
#include <vector>

#include "baselines/preload_framework.hh"
#include "core/flashmem.hh"
#include "multidnn/device.hh"
#include "multidnn/faults.hh"
#include "multidnn/policies.hh"
#include "multidnn/workload.hh"

namespace flashmem::multidnn {

/** Knobs of the event-driven scheduler. */
struct SchedulerConfig
{
    /**
     * Shared working-set capacity budget that memory-aware admission
     * divides across co-resident models; 0 = the device's app memory
     * budget. Ignored by policies without memoryAware().
     */
    Bytes capacityBudget = 0;
    /** Floor below which a model's share is never shrunk. */
    Bytes minModelBudget = mib(128);
    /**
     * Budget shares are rounded down to a multiple of this quantum, so
     * small ready-set fluctuations do not trigger re-plan churn (and
     * the per-budget artifact cache stays small). */
    Bytes budgetQuantum = mib(64);
    /** Cluster shape: device count and cross-request init/exec
     * overlap (see multidnn/device.hh). The default is the
     * single serialized device of the original scheduler. */
    ClusterConfig cluster;
    /** Deterministic fault schedule injected into the drain (empty =
     * fault-free; see multidnn/faults.hh). */
    FaultPlan faults;
    /**
     * Arrival-time admission gate (null = dispatch-point admission
     * only). Not owned; must outlive the scheduler. Hand the SAME
     * gate to ServingSimParams::arrival to compare the two paths.
     */
    const ArrivalAdmission *arrivalAdmission = nullptr;
    /**
     * Optional trace recorder (not owned; must outlive the
     * scheduler's run() calls). Receives the serving event stream
     * from the shared event loop plus the scheduler's planner-side
     * events: a Replan event per on-device re-plan and one
     * SolverWindow summary per solved window of that re-plan. Null
     * (the default) keeps every hook a skipped pointer test.
     */
    obs::TraceRecorder *trace = nullptr;
};

/**
 * Quantize a per-model budget share down to @p cfg.budgetQuantum and
 * clamp it to [max(cfg.minModelBudget, chunk_floor), mPeak] — the one
 * rule every admission and degrade budget passes through, shared with
 * the serving harness's service calibration so both re-plan at the
 * same budgets.
 */
Bytes quantizeBudgetShare(Bytes share, const SchedulerConfig &cfg,
                          Bytes chunk_floor, Bytes mPeak);

/** One request dropped without completing: SLO admission (never
 * dispatched), fault-retry budget exhausted, or starved when no
 * device could ever accept it again. */
struct ShedRecord
{
    std::size_t queueIndex = 0;
    models::ModelId model{};
    SimTime arrival = 0;
    SimTime latencyBound = 0;
    SimTime shedAt = 0; ///< dispatch point at which it was dropped
    DropReason reason = DropReason::Admission;
};

/** Outcome of draining one request queue. */
struct ScheduleOutcome
{
    /** Name of the policy that produced this outcome. */
    std::string policy;
    /**
     * Per-request results in dispatch (execution) order — queue order
     * under FIFO. RunResult::arrival carries the request's queue-entry
     * time, so requestLatency() includes queueing delay.
     */
    std::vector<core::RunResult> runs;
    SimTime makespan = 0;        ///< last completion
    Bytes peakMemory = 0;        ///< peak over the whole queue
    double avgMemoryBytes = 0.0; ///< time-weighted average
    double energyJoules = 0.0;
    /** Total-memory trace of this run (Figure 6 plots). Owned by the
     * outcome — schedulers keep no mutable global state. */
    TimeSeries trace;

    /** @name On-device re-planning counters (memory-aware policies). @{ */
    int replans = 0;                  ///< FlashMem::replan invocations
    std::uint64_t replanMemoHits = 0; ///< rounds reused from the memo
    double replanSeconds = 0.0;       ///< wall time spent re-planning
    /** @} */

    /** @name SLO admission (deadline-aware policies). @{ */
    /** Requests dropped without completing (admission, fault budget,
     * starvation — see ShedRecord::reason), in drop order. */
    std::vector<ShedRecord> shed;
    /** Completed runs that were dispatched at a degraded budget. */
    int degradedRuns = 0;
    /** @} */

    /** Fault-recovery accounting (all zero on fault-free drains). */
    FaultCounters faults;

    /** Per-device accounting: dispatch counts, plan switches, and
     * compute-/DMA-busy fractions over the makespan, so benches can
     * report overlap efficiency directly instead of inferring it from
     * the makespan. One row per cluster device. */
    std::vector<DeviceUtilization> devices;

    /** Mean request latency (end - arrival): includes queueing delay. */
    SimTime meanLatency() const;
    /** Mean time requests spent queued before dispatch. */
    SimTime meanQueueDelay() const;

    /** Completed runs that met their SLO (unbounded requests count;
     * shed requests never do — they did not complete). */
    std::size_t goodput() const;
    /** Completed runs that blew their latency bound. */
    std::size_t sloViolations() const;
    /** goodput() over all submitted requests (completed + shed). */
    double goodputRate() const;
    /** Shed requests over all submitted requests. */
    double shedRate() const;
};

/** Event-driven scheduler bound to one FlashMem instance. */
class EventScheduler
{
  public:
    explicit EventScheduler(const core::FlashMem &fm,
                            SchedulerConfig cfg = {});

    /**
     * Drain @p queue under @p policy. Compiled artifacts and their
     * solo profiles (per model, per budget) persist across run()
     * calls, so per-policy comparisons pay the offline stage once;
     * results are unaffected because plans are deterministic per
     * (model, budget).
     */
    ScheduleOutcome run(const std::vector<ModelRequest> &queue,
                        const SchedulingPolicy &policy);

    /**
     * Drain @p queue under a preloading baseline framework. Cold-start
     * init per request; no re-planning (the baselines have no plans).
     * @p cluster supports multi-device sharding, but cross-request
     * overlap is forced off: the baselines serialize initialization
     * with execution — there is no streamed DMA-queue init to overlap,
     * which is exactly the repeated-load overhead the paper targets.
     */
    static ScheduleOutcome runPreload(baselines::FrameworkId framework,
                                      const gpusim::DeviceProfile &dev,
                                      const std::vector<ModelRequest>
                                          &queue,
                                      const SchedulingPolicy &policy,
                                      ClusterConfig cluster = {});

  private:
    /** The live backend of the event loop (scheduler.cc). */
    class FlashMemRuns;

    /** Compiled artifact for (model, budget), compiling/re-planning on
     * first use. Re-plans are counted into @p out and traced (Replan
     * plus one SolverWindow per window) at @p now, the dispatch that
     * asked for the budget. */
    const core::CompiledModel &compiledFor(models::ModelId model,
                                           Bytes budget,
                                           ScheduleOutcome &out,
                                           SimTime now = 0);

    /** Measured solo run of (model, budget) on a scratch simulator —
     * the init/exec split every dispatch of the artifact is placed
     * with, and (at the base budget) the model's estimate. Cached;
     * executions are start-time invariant so one measurement covers
     * every dispatch. Compiles through compiledFor(..., @p now). */
    const core::RunResult &profileFor(models::ModelId model,
                                      Bytes budget,
                                      ScheduleOutcome &out,
                                      SimTime now = 0);

    /** Admission budget for a model when @p co_resident distinct
     * models currently share the capacity budget. */
    Bytes admissionBudget(int co_resident) const;

    /** Quantize @p share down to the budget quantum and clamp it to
     * [minModelBudget, configured mPeak]. */
    Bytes clampQuantize(Bytes share) const;

    const core::FlashMem &fm_;
    SchedulerConfig cfg_;
    std::map<models::ModelId, graph::Graph> graphs_;
    std::map<std::pair<models::ModelId, Bytes>, core::CompiledModel>
        compiled_;
    std::map<std::pair<models::ModelId, Bytes>, core::RunResult>
        profiles_;
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_SCHEDULER_HH
