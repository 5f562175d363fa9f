/**
 * @file
 * SLO semantics and service calibration for the serving harness.
 *
 * An SloSpec states what "sustainable" means for a capacity sweep: a
 * tail-latency bound the p99 of completed requests must stay under,
 * and a minimum goodput (completed-within-bound over submitted). The
 * per-request latency bounds that deadline-aware admission enforces
 * ride on the requests themselves (multidnn::ModelRequest::
 * latencyBound, stamped by the trace generators from the ModelMix).
 *
 * calibrateServices() measures the real per-model service times the
 * fast request-level simulator runs on: one FlashMem compile + execute
 * per model at the full budget, and one FlashMem::replan + execute at
 * the degraded budget — so million-request sweeps are grounded in the
 * actual planner/runtime behaviour, bit-deterministically for any
 * planner thread count.
 */

#ifndef FLASHMEM_SERVING_SLO_HH
#define FLASHMEM_SERVING_SLO_HH

#include <map>
#include <vector>

#include "core/flashmem.hh"
#include "multidnn/scheduler.hh"
#include "multidnn/workload.hh"

namespace flashmem::serving {

/** What a capacity sweep requires of a sustainable operating point. */
struct SloSpec
{
    /** p99 request-latency bound for completed requests (0 = none). */
    SimTime p99Bound = 0;
    /** Minimum goodput rate (met-SLO completions / submitted). */
    double minGoodput = 0.95;
};

/** Calibrated service profile of one model (real runtime numbers). */
struct ModelServiceProfile
{
    SimTime service = 0;         ///< integrated latency, full budget
    SimTime degradedService = 0; ///< integrated latency, degraded plan
    Bytes peakBytes = 0;
    Bytes degradedPeakBytes = 0;
    Bytes planBudget = 0;
    Bytes degradedPlanBudget = 0;
    /** Init phase (preload set resident, initDone - start) of the
     * full-budget run — the portion of @c service the cross-request
     * overlap model runs on the device's DMA queue. Appended after
     * the original fields so positional initializers keep working
     * (0 = no overlappable init). */
    SimTime initService = 0;
    SimTime degradedInitService = 0;

    /** Init/exec split consumed by DeviceCluster::planTimes. @{ */
    SimTime execService() const { return service - initService; }
    SimTime degradedExecService() const
    {
        return degradedService - degradedInitService;
    }
    /** @} */
};

/** Per-model calibration the fast serving simulator consumes. */
using ServiceTable = std::map<models::ModelId, ModelServiceProfile>;

/**
 * Measure @p model_set on @p fm: compile + execute once per model at
 * the configured budget, then replan + execute at
 * @p degrade_budget_fraction of it, quantized and clamped exactly as
 * the EventScheduler's degraded dispatch does under @p cfg — pass the
 * same SchedulerConfig the real scheduler runs with, so both paths
 * re-plan at the same budget by construction.
 */
ServiceTable calibrateServices(const core::FlashMem &fm,
                               const std::vector<models::ModelId>
                                   &model_set,
                               double degrade_budget_fraction = 0.5,
                               Precision precision = Precision::FP16,
                               const multidnn::SchedulerConfig &cfg =
                                   {});

/** Mean full-budget service time over @p mix, weight-averaged. */
SimTime meanService(const ServiceTable &table,
                    const std::vector<std::pair<models::ModelId,
                                                double>> &weights);

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_SLO_HH
