/**
 * @file
 * First-class devices for the execution layer: DeviceCluster models N
 * simulated devices behind one admission queue, each with **two
 * independent resources** — the compute queue and the preload-DMA
 * queue — so a request's streamed init can overlap the previous
 * request's execution on the same device (the paper's memory-hierarchy
 * overlap applied one level up, across requests).
 *
 * The cluster owns the one timing rule. The cluster event loop
 * (multidnn/event_loop.hh) places every run through
 * DeviceCluster::planTimes / commit, whether the live EventScheduler
 * or the fast serving simulator's calibrated table priced it.
 *
 * Placement is least-loaded: a request lands on the accepting device
 * whose compute queue frees first (DMA queue, then id, break ties).
 */

#ifndef FLASHMEM_MULTIDNN_DEVICE_HH
#define FLASHMEM_MULTIDNN_DEVICE_HH

#include <map>
#include <vector>

#include "common/types.hh"
#include "models/model_zoo.hh"

namespace flashmem::obs {
class TraceRecorder;
} // namespace flashmem::obs

namespace flashmem::multidnn {

/**
 * Health of one simulated device under fault injection.
 * Healthy devices serve normally; a Down device accepts nothing; a
 * Suspect device just rejoined and serves at pipeline depth 1 (the
 * heartbeat-style probation probe) until its probation window passes,
 * after which it counts as Healthy again.
 */
enum class DeviceHealth
{
    Healthy,
    Suspect,
    Down,
};

/** Cluster shape of the execution layer. */
struct ClusterConfig
{
    /** Simulated devices behind the shared admission queue. */
    int deviceCount = 1;
    /**
     * Cross-request init/exec overlap: dispatch the next request's
     * streamed preload on a device's DMA queue while the previous
     * request still computes (pipeline depth 2 — at most one request
     * computing and one preloading per device). Off reproduces the
     * fully serialized single-resource device.
     */
    bool overlapInitWithExec = false;
};

/**
 * Mutable state of one simulated device: the two resource horizons,
 * the in-flight pipeline depth, which model plans are resident (and at
 * which budget), and busy-time accounting for utilization reports.
 */
struct DeviceState
{
    int id = 0;
    /** Compute queue busy until (last placed run's end). */
    SimTime computeBusyUntil = 0;
    /** Preload-DMA queue busy until (last placed run's initDone). */
    SimTime dmaBusyUntil = 0;
    /** Requests dispatched but not yet completed (pipeline depth). */
    int inFlight = 0;

    /** @name Accounting (ScheduleOutcome/ServingOutcome reports). @{ */
    std::size_t dispatched = 0;
    SimTime computeBusyTime = 0; ///< sum of placed exec phases
    SimTime dmaBusyTime = 0;     ///< sum of placed init (preload) phases
    /** Times this device had to switch a model's resident plan budget
     * (a re-plan / plan reload on device). */
    int planSwitches = 0;
    /** @} */

    /** Plan budget this device currently holds per model. */
    std::map<models::ModelId, Bytes> residentPlanBudget;

    /** @name Fault state (driven by the event loop's fault events). @{ */
    DeviceHealth health = DeviceHealth::Healthy;
    SimTime downSince = 0;      ///< when the current Down began
    SimTime probationUntil = 0; ///< Suspect until this instant
    SimTime downTime = 0;       ///< closed Down intervals, summed
    /** Thermal-throttle model: dispatches placed while now < slowUntil
     * run with init and exec scaled by slowFactor. */
    double slowFactor = 1.0;
    SimTime slowUntil = 0;
    /** @} */
};

/** Per-device utilization summary exposed on outcomes. */
struct DeviceUtilization
{
    int device = 0;
    std::size_t dispatched = 0;
    int planSwitches = 0;
    SimTime computeBusyTime = 0;
    SimTime dmaBusyTime = 0;
    /** Busy fractions over the outcome's makespan (0 when empty). */
    double computeUtilization = 0.0;
    double dmaUtilization = 0.0;
    /** Peak memory on this device: the peak of its spliced runs'
     * memory trace for the EventScheduler, the largest calibrated peak
     * placed on it for the fast simulator. */
    Bytes peakMemory = 0;
    double energyJoules = 0.0;
    /** Time this device spent Down (crashed), including an interval
     * still open at the makespan. */
    SimTime downTime = 0;
    /** downTime over the outcome's makespan (0 when empty). */
    double downFraction = 0.0;
};

/** Placement of one run on a device's two resources. */
struct PlacedTimes
{
    SimTime start = 0;    ///< preload DMA begins (dispatch)
    SimTime initDone = 0; ///< preload set resident; DMA queue frees
    SimTime end = 0;      ///< compute retires; device slot frees
};

/**
 * N simulated devices behind one admission queue. The cluster is the
 * single owner of the dispatch timing rule (planTimes) and of the
 * per-device resource/accounting state (commit/complete); the event
 * loop asks it which devices can accept work and where a request
 * lands.
 */
class DeviceCluster
{
  public:
    explicit DeviceCluster(ClusterConfig cfg);

    int deviceCount() const
    {
        return static_cast<int>(devices_.size());
    }
    bool overlap() const { return cfg_.overlapInitWithExec; }
    const std::vector<DeviceState> &devices() const { return devices_; }

    /**
     * True when @p device can take a new request at @p now: idle when
     * overlap is off; DMA queue free and fewer than two requests in
     * flight (one computing + one preloading) when overlap is on.
     * A Down device accepts nothing; a Suspect device (rejoined,
     * still inside probation) is capped at one request in flight.
     */
    bool canAccept(int device, SimTime now) const;

    /** Any device able to accept a request at @p now. */
    bool anyAccepting(SimTime now) const;

    /** The least-loaded device able to accept a request at @p now
     * (earliest compute-free, then DMA-free, then lowest id). At
     * least one device must be accepting. */
    int pickDevice(SimTime now) const;

    /**
     * The shared two-resource timing rule. Overlap off: the run starts
     * when the device is fully idle and holds both resources to its
     * end (`start = now`, `end = start + init + exec`). Overlap on:
     * the preload phase starts as soon as the DMA queue frees
     * (`start = max(now, dmaBusyUntil)`), and the compute phase queues
     * behind the previous run (`computeStart = max(start + init,
     * computeBusyUntil)`, `end = computeStart + exec`).
     */
    PlacedTimes planTimes(int device, SimTime now, SimTime initTime,
                          SimTime execTime) const;

    /**
     * Record a placed run: advances the device's resource horizons
     * (`dmaBusyUntil = initDone`, `computeBusyUntil = end`), pipeline
     * depth, busy-time accounting, and plan residency (counting a plan
     * switch when @p planBudget differs from the budget the device
     * held @p model at).
     */
    void commit(int device, models::ModelId model, Bytes planBudget,
                const PlacedTimes &t);

    /** A run on @p device completed; frees its pipeline slot. */
    void complete(int device);

    /** @name Fault transitions (driven by the shared event loop). @{ */

    /**
     * @p device died at @p now: Down, pipeline emptied (the loop has
     * already killed the in-flight runs), and plan residency wiped —
     * device memory is gone, so a recovered device re-plans rather
     * than finding plans resident.
     */
    void crash(int device, SimTime now);

    /**
     * A Down @p device came back at @p now: downtime is closed into
     * the accounting, horizons reset to @p now, and the device serves
     * as Suspect (pipeline depth 1) until @p now + @p probation.
     */
    void rejoin(int device, SimTime now, SimTime probation);

    /** Scale dispatches placed on @p device before @p until by
     * @p factor (>= 1; thermal-throttle model). */
    void setSlowdown(int device, double factor, SimTime until);
    /** @} */

    /** Utilization rows over @p makespan (fractions 0 when 0);
     * includes per-device downtime, counting a still-open Down
     * interval up to the makespan. */
    std::vector<DeviceUtilization> utilization(SimTime makespan) const;

    /** Attach (or detach, with null) a trace recorder receiving
     * DeviceHealthChange events from the fault transitions. The event
     * loop calls this itself when it is handed a recorder. */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

  private:
    ClusterConfig cfg_;
    std::vector<DeviceState> devices_;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_DEVICE_HH
