/**
 * @file
 * Arrival-time overload protection with a learned service model.
 *
 * Dispatch-point admission (multidnn::DeadlinePolicy::admit) only
 * sheds a request once it is already doomed, so under overload doomed
 * requests occupy queue slots for their entire wait and marginal
 * requests dispatch into device backlogs they cannot clear in time —
 * completed-but-late runs that count against goodput twice (they miss
 * their own bound AND burn device time feasible requests needed). The
 * AdmissionController here closes both gaps: at the instant a request
 * (or a fault retry) would enter the ready set, a backlog model over
 * the cluster's per-device compute horizons plus the
 * queued-but-unplaced work projects the earliest feasible completion,
 * and requests that cannot meet their bound are shed *at arrival*,
 * with DropReason::ArrivalShed.
 *
 * Service times come from a three-tier ServiceEstimator ladder:
 *
 *   1. Calibrated — the model has a ServiceTable entry (a real
 *      compile + execute measured it); use it verbatim.
 *   2. Predicted — a GbtRegressor trained on whole-graph features
 *      (profiler::graphFeatures) of the calibrated models predicts
 *      log-efficiency (service per MAC; the model's own MAC count
 *      restores absolute scale, so estimates extrapolate past the
 *      calibrated hull) for models calibration has never seen,
 *      inflated by a conservative margin learned from leave-one-out
 *      cross-validated residuals (admit cautiously, not blindly).
 *   3. Pessimistic — fewer than two calibrated models, so no
 *      predictor: assume a multiple of the slowest calibrated service,
 *      so an unknown model is the last thing admitted under pressure,
 *      never a blind spot.
 *
 * This is the cold-model reality of serving at scale: new models ship
 * daily and cannot all be calibrated, but graph aggregates exist the
 * moment a model ships. Follows the paper's own GBT latency predictor
 * (Section 4.2) one level up, per ROADMAP open item 3.
 *
 * The controller decides from (now, request, ready set, cluster state)
 * only — the event loop's own state — and computes every estimate
 * itself from its ladder. Hand the SAME controller to
 * ServingSimParams::arrival and SchedulerConfig::arrivalAdmission and
 * the decision streams match exactly.
 */

#ifndef FLASHMEM_SERVING_ADMISSION_HH
#define FLASHMEM_SERVING_ADMISSION_HH

#include <cstddef>
#include <vector>

#include "multidnn/device.hh"
#include "multidnn/policies.hh"
#include "serving/slo.hh"
#include "serving/trace_gen.hh"

namespace flashmem::serving {

/** Which rung of the estimate ladder produced a service estimate. */
enum class EstimateTier
{
    Calibrated,  ///< measured ServiceTable entry
    Predicted,   ///< GBT over graph features, margin-inflated
    Pessimistic, ///< no predictor: multiple of the slowest calibrated
};

/** Human name of an estimate tier. */
const char *estimateTierName(EstimateTier tier);

/** One model's admission-facing service estimate. */
struct ServiceEstimate
{
    SimTime service = 0;         ///< full-budget service estimate
    SimTime degradedService = 0; ///< degraded-budget service estimate
    EstimateTier tier = EstimateTier::Pessimistic;
};

/** Floor on the predicted-tier inflation factor (>= 1). */
inline constexpr double kMinInflation = 1.1;
/** Pessimistic-tier service when the calibration table is empty. */
inline constexpr SimTime kFallbackService = seconds(1);

/**
 * The three-tier service-time estimator. Construction trains the
 * predictor on the calibrated table (when it has >= 2 entries) and
 * precomputes an estimate for every zoo model, so estimate()
 * afterwards indexes a dense per-ModelId table — cheap (the arrival
 * gate calls it once per ready entry per arrival), deterministic, and
 * safe to share across concurrent simulator runs.
 */
class ServiceEstimator
{
  public:
    explicit ServiceEstimator(const ServiceTable &calibrated);

    /** The ladder estimate for @p model; fatal for an id outside the
     * zoo. */
    const ServiceEstimate &estimate(models::ModelId model) const;

    std::size_t calibratedCount() const { return calibrated_count_; }
    bool predictorTrained() const { return trained_; }
    /** Multiplicative uncertainty margin applied to tier-2 estimates
     * (1 when the predictor is untrained). */
    double inflation() const { return inflation_; }

  private:
    /** Indexed by ModelId; one entry per zoo model. */
    std::vector<ServiceEstimate> estimates_;
    std::size_t calibrated_count_ = 0;
    bool trained_ = false;
    double inflation_ = 1.0;
};

/** Decision accounting of one AdmissionController. */
struct AdmissionDecisions
{
    std::size_t admitted = 0;
    std::size_t shed = 0;
    /** Estimate-tier mix of the decided requests. @{ */
    std::size_t tierCalibrated = 0;
    std::size_t tierPredicted = 0;
    std::size_t tierPessimistic = 0;
    /** @} */

    std::size_t total() const { return admitted + shed; }
};

/**
 * Arrival-time admission gate over a backlog model (the
 * multidnn::ArrivalAdmission implementation).
 *
 * At each arrival the projected start is
 *
 *   start = min over live devices of max(now, computeBusyUntil)
 *         + (sum of ladder estimates over the earlier-deadline
 *            ready set) / live
 *
 * — the earliest any device frees, plus the queued-but-unplaced work
 * that runs ahead of this request under EDF, spread across the live
 * devices — and the request is admitted iff
 * start + estimate fits its deadline; a projected miss sheds. Unbounded
 * requests always admit; so does an all-Down cluster (the loop's
 * starvation accounting owns that case). All arithmetic is integer
 * nanoseconds: bit-exact on both execution paths.
 */
class AdmissionController : public multidnn::ArrivalAdmission
{
  public:
    explicit AdmissionController(const ServiceEstimator &estimator);

    multidnn::Admission admitAtArrival(
        SimTime now, const multidnn::ReadyRequest &r,
        const std::vector<multidnn::ReadyRequest> &ready,
        const multidnn::DeviceCluster &cluster) const override;

    const ServiceEstimator &estimator() const { return estimator_; }
    const AdmissionDecisions &decisions() const { return decisions_; }
    /** Zero the decision counters (e.g. between the two runs of a
     * cross-validation pair sharing one controller). */
    void resetDecisions() { decisions_ = {}; }

  private:
    const ServiceEstimator &estimator_;
    /** Accounting only — never feeds back into verdicts, so sharing
     * one controller across sequential runs stays deterministic. */
    mutable AdmissionDecisions decisions_;
};

/**
 * Cold-model influx mix: reweight @p base to (1 - cold_fraction) of
 * the total and @p cold to cold_fraction, so a seeded trace generator
 * draws an expected @p cold_fraction of arrivals from the cold
 * entries. Entry order is base-then-cold (deterministic sampling).
 */
ModelMix withColdInflux(const ModelMix &base,
                        const std::vector<ModelMix::Entry> &cold,
                        double cold_fraction);

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_ADMISSION_HH
