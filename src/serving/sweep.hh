/**
 * @file
 * Request-level serving simulator + streaming-percentile capacity
 * sweeps.
 *
 * simulateServing() drains a trace through the cluster event loop
 * (multidnn/event_loop.hh) that the live EventScheduler runs, with a
 * calibrated service table (serving/slo.hh) as its backend: a run
 * costs one table lookup instead of a streamed execution. The loop
 * places every run itself, so the two paths differ only in where a
 * run's service times come from. That makes million-request runs
 * cheap (O(1) arithmetic per request) while staying grounded in real
 * planner/runtime numbers, and equal to the live scheduler for a given
 * trace when the table is calibrated on the same FlashMem — including
 * multi-device sharding, cross-request init/exec overlap
 * (ServingSimParams::cluster) and faults.
 *
 * findMaxSustainableQps() locates the capacity knee per policy: the
 * offered QPS at which a probe run stops meeting the SloSpec (p99
 * under the bound, goodput above the floor), interpolated between the
 * last passing and the first failing probe. Probes are pure
 * functions of (mix, qps, seed, cluster), so the bracketing ladder
 * can run concurrently on a ThreadPool with no effect on the result.
 * sweepDeviceCounts() repeats the sweep across cluster sizes with
 * overlap off/on — the serving_sharding scaling curve.
 */

#ifndef FLASHMEM_SERVING_SWEEP_HH
#define FLASHMEM_SERVING_SWEEP_HH

#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "multidnn/policies.hh"
#include "serving/serving_stats.hh"
#include "serving/slo.hh"
#include "serving/trace_gen.hh"

namespace flashmem::obs {
class TraceRecorder;
} // namespace flashmem::obs

namespace flashmem::serving {

/** Knobs of the fast request-level simulator. */
struct ServingSimParams
{
    /**
     * Backlog bound: when the ready set exceeds this many queued
     * requests the run is declared unstable (offered load is beyond
     * capacity and the queue diverges) and aborted early — any SLO
     * would long since have blown, and the bound keeps overloaded
     * sweep probes from going quadratic.
     */
    std::size_t readyLimit = 4096;
    /** Cluster shape: device count and cross-request overlap
     * (mirrors multidnn::SchedulerConfig::cluster). */
    multidnn::ClusterConfig cluster;
    /** Deterministic fault schedule (empty = fault-free), identical
     * in shape to multidnn::SchedulerConfig::faults so a fast-sim run
     * and a real EventScheduler run see the same timeline. */
    multidnn::FaultPlan faults;
    /**
     * Arrival-time admission gate (null = dispatch-point admission
     * only; see serving/admission.hh). Not owned. Hand the SAME gate
     * to SchedulerConfig::arrivalAdmission to compare the two paths.
     */
    const multidnn::ArrivalAdmission *arrival = nullptr;
    /**
     * Optional trace recorder (not owned). Receives the serving
     * event stream from the shared event loop; with the SAME seed,
     * config, and gate, its Stream::Serving text export is
     * byte-identical to a traced EventScheduler run's. Null (the
     * default) keeps every hook a skipped pointer test, so sweeps
     * pay nothing.
     */
    obs::TraceRecorder *trace = nullptr;
};

/** Outcome of one simulated serving run. */
struct ServingOutcome
{
    std::string policy;
    ServingStats stats;
    SimTime makespan = 0;
    /** Peak calibrated working set over the dispatched runs. */
    Bytes peakMemory = 0;
    /** True when the backlog exceeded readyLimit and the run aborted:
     * the offered load is not sustainable. */
    bool unstable = false;
    /** Requests submitted (trace size), including unprocessed ones on
     * an unstable abort. */
    std::size_t submitted = 0;
    /** Per-device accounting (dispatch counts, plan switches,
     * compute-/DMA-busy fractions, downtime, calibrated peak) —
     * mirrors ScheduleOutcome::devices. */
    std::vector<multidnn::DeviceUtilization> devices;
    /** Fault-recovery accounting (all zero on fault-free runs);
     * fault-shed and starved requests also count in stats.shed. */
    multidnn::FaultCounters faults;
    /** Requests shed at arrival by the backlog admission gate
     * (DropReason::ArrivalShed); a subset of stats.shed. */
    std::size_t arrivalSheds = 0;
};

/** Drain @p trace against calibrated @p services under @p policy
 * (homogeneous devices: every cluster device uses @p services). */
ServingOutcome simulateServing(
    const std::vector<multidnn::ModelRequest> &trace,
    const multidnn::SchedulingPolicy &policy,
    const ServiceTable &services, const ServingSimParams &params = {});

/** One evaluated operating point of a capacity sweep. */
struct ProbePoint
{
    double qps = 0.0;
    bool sustainable = false;
    double p99Ms = 0.0;
    double goodputRate = 0.0;
    std::size_t shed = 0;
    bool unstable = false;
};

/** Capacity-sweep configuration. The bisection stops once the
 * bracket is within 5% relative width. */
struct SweepParams
{
    double loQps = 1.0;     ///< ladder start (assumed sustainable-ish)
    double hiQps = 8192.0;  ///< ladder cap
    std::size_t requestsPerProbe = 200000;
    std::uint64_t seed = 1;
    SloSpec slo;
    ServingSimParams sim;
};

/** Result of one policy's capacity sweep. */
struct SweepResult
{
    /** QPS where the SLO margin crosses zero between the last passing
     * and the first failing probe; the passing probe's QPS when the
     * failing one aborted as unstable, hiQps when every ladder rung
     * passes, 0 if even loQps fails. */
    double maxSustainableQps = 0.0;
    /** Every probe evaluated, in evaluation order. */
    std::vector<ProbePoint> probes;
};

/**
 * Binary-search the max sustainable QPS of @p policy over @p mix.
 * The cluster shape rides on @c params.sim.cluster. @p pool, when
 * given, evaluates the bracketing ladder concurrently; the result is
 * identical with or without it.
 */
SweepResult findMaxSustainableQps(const ModelMix &mix,
                                  const multidnn::SchedulingPolicy
                                      &policy,
                                  const ServiceTable &services,
                                  const SweepParams &params,
                                  ThreadPool *pool = nullptr);

/** One operating point of the sharding scaling curve. */
struct ShardingPoint
{
    int devices = 1;
    bool overlap = false;
    SweepResult sweep;
};

/**
 * Repeat the capacity sweep of @p policy across @p device_counts,
 * with cross-request overlap off and on per count (both override
 * @p base.sim.cluster). The QPS ladder cap scales linearly with the
 * device count; every probe stays a pure function of
 * (mix, qps, seed, cluster), so results are thread-count independent.
 */
std::vector<ShardingPoint> sweepDeviceCounts(
    const ModelMix &mix, const multidnn::SchedulingPolicy &policy,
    const ServiceTable &services, const SweepParams &base,
    const std::vector<int> &device_counts, ThreadPool *pool = nullptr);

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_SWEEP_HH
