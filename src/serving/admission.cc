#include "serving/admission.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "profiler/features.hh"
#include "profiler/gbt.hh"

namespace flashmem::serving {

namespace {

/** Quantile of the leave-one-out |log-residual| distribution the
 * predicted-tier inflation margin is taken at. */
constexpr double kMarginQuantile = 0.9;
/** Pessimistic tier: this multiple of the slowest calibrated service
 * (degraded likewise). */
constexpr double kPessimisticFactor = 2.0;

/** GBT hyper-parameters of the tier-2 predictor. Model-level training
 * sets are tiny (one row per calibrated model), so the kernel-regressor
 * defaults (deep trees, 3-sample leaves, row subsampling) would
 * degenerate to a constant. Shallow deterministic stumps with
 * single-sample leaves and no subsampling let even a handful of models
 * separate on size. */
constexpr profiler::GbtParams kServiceModelGbt{.trees = 80,
                                               .maxDepth = 2,
                                               .learningRate = 0.15,
                                               .minSamplesLeaf = 1,
                                               .subsample = 1.0};

/** Index of @p model in a per-ModelId table of @p size entries. */
std::size_t
zooIndex(models::ModelId model, std::size_t size)
{
    auto i = static_cast<std::size_t>(model);
    FM_ASSERT(i < size, "ServiceEstimator: model outside the zoo");
    return i;
}

} // namespace

ServiceEstimator::ServiceEstimator(const ServiceTable &calibrated)
    : estimates_(models::modelZoo().size())
{
    calibrated_count_ = calibrated.size();
    auto slot = [&](models::ModelId model) -> ServiceEstimate & {
        return estimates_[zooIndex(model, estimates_.size())];
    };

    // Tier 1: calibrated entries pass through verbatim.
    SimTime slowest = 0, slowest_degraded = 0;
    for (const auto &[model, profile] : calibrated) {
        FM_ASSERT(profile.service > 0,
                  "ServiceEstimator: non-positive calibrated service");
        slot(model) = ServiceEstimate{profile.service,
                                      profile.degradedService,
                                      EstimateTier::Calibrated};
        slowest = std::max(slowest, profile.service);
        slowest_degraded =
            std::max(slowest_degraded, profile.degradedService);
    }

    // Tier 2: train a GBT on graph features of the calibrated models.
    // The regression target is log *efficiency* — log(service) minus
    // log(MACs), the first graph feature — not raw log-service: trees
    // cannot predict outside the label range they saw, so a raw
    // service target would saturate every model bigger than the
    // largest calibrated one into the same leaf value. Efficiency is
    // bounded and interpolates well, and adding the model's own
    // log-MACs back restores absolute scale, so predictions track
    // model size even far beyond the calibrated hull. The inflation
    // margin comes from leave-one-out residuals so the predictor's own
    // observed error sets how cautiously its estimates are treated.
    profiler::GbtRegressor predictor(kServiceModelGbt);
    double degraded_ratio = 1.0;
    if (calibrated.size() >= 2) {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        double ratio_sum = 0.0;
        for (const auto &[model, profile] : calibrated) {
            x.push_back(
                profiler::graphFeatures(models::buildModel(model)));
            y.push_back(
                std::log(static_cast<double>(profile.service)) -
                x.back()[0]);
            ratio_sum += static_cast<double>(profile.degradedService) /
                         static_cast<double>(profile.service);
        }
        degraded_ratio = ratio_sum / static_cast<double>(y.size());

        std::vector<double> margins;
        for (std::size_t i = 0; i < y.size(); ++i) {
            std::vector<std::vector<double>> xi;
            std::vector<double> yi;
            for (std::size_t j = 0; j < y.size(); ++j) {
                if (j == i)
                    continue;
                xi.push_back(x[j]);
                yi.push_back(y[j]);
            }
            profiler::GbtRegressor loo(kServiceModelGbt);
            loo.fit(xi, yi);
            margins.push_back(
                std::exp(std::abs(loo.predict(x[i]) - y[i])));
        }
        std::sort(margins.begin(), margins.end());
        auto rank = static_cast<std::size_t>(std::ceil(
            kMarginQuantile * static_cast<double>(margins.size())));
        rank = std::clamp<std::size_t>(rank, 1, margins.size());
        inflation_ = std::max(kMinInflation, margins[rank - 1]);

        predictor.fit(x, y);
        trained_ = true;
    }

    // Tier 3 values: a multiple of the slowest calibrated service, so
    // an unknown model is treated as the most expensive thing the
    // cluster has ever measured, scaled up — never a blind spot.
    SimTime pessimistic =
        slowest > 0 ? static_cast<SimTime>(std::llround(
                          kPessimisticFactor *
                          static_cast<double>(slowest)))
                    : kFallbackService;
    SimTime pessimistic_degraded =
        slowest_degraded > 0
            ? static_cast<SimTime>(std::llround(
                  kPessimisticFactor *
                  static_cast<double>(slowest_degraded)))
            : kFallbackService;

    // Precompute the ladder estimate for every zoo model so estimate()
    // is a const lookup (shareable across concurrent runs).
    for (const auto &spec : models::modelZoo()) {
        if (calibrated.count(spec.id))
            continue;
        if (trained_) {
            auto features =
                profiler::graphFeatures(models::buildModel(spec.id));
            // predict() yields log efficiency; the model's log-MACs
            // (features[0]) restores the absolute service scale.
            double pred = std::exp(predictor.predict(features) +
                                   features[0]);
            SimTime service = std::max<SimTime>(
                1, static_cast<SimTime>(
                       std::llround(pred * inflation_)));
            SimTime degraded = std::max<SimTime>(
                1, static_cast<SimTime>(std::llround(
                       pred * inflation_ * degraded_ratio)));
            slot(spec.id) = ServiceEstimate{service, degraded,
                                            EstimateTier::Predicted};
        } else {
            slot(spec.id) =
                ServiceEstimate{pessimistic, pessimistic_degraded,
                                EstimateTier::Pessimistic};
        }
    }
}

const ServiceEstimate &
ServiceEstimator::estimate(models::ModelId model) const
{
    return estimates_[zooIndex(model, estimates_.size())];
}

AdmissionController::AdmissionController(
    const ServiceEstimator &estimator)
    : estimator_(estimator)
{}

multidnn::Admission
AdmissionController::admitAtArrival(
    SimTime now, const multidnn::ReadyRequest &r,
    const std::vector<multidnn::ReadyRequest> &ready,
    const multidnn::DeviceCluster &cluster) const
{
    const auto &est = estimator_.estimate(r.model);
    switch (est.tier) {
      case EstimateTier::Calibrated:
        ++decisions_.tierCalibrated;
        break;
      case EstimateTier::Predicted:
        ++decisions_.tierPredicted;
        break;
      case EstimateTier::Pessimistic:
        ++decisions_.tierPessimistic;
        break;
    }

    // Unbounded requests cannot miss a deadline; always admit.
    if (r.latencyBound <= 0) {
        ++decisions_.admitted;
        return multidnn::Admission::Admit;
    }

    // Earliest instant any live device's compute frees. An all-Down
    // cluster admits: the loop's starvation/retry accounting owns that
    // case, and shedding on a momentarily dead cluster would race the
    // rejoin events.
    SimTime earliest = kTimeNever;
    SimTime live = 0;
    for (const auto &d : cluster.devices()) {
        if (d.health == multidnn::DeviceHealth::Down)
            continue;
        ++live;
        earliest =
            std::min(earliest, std::max(now, d.computeBusyUntil));
    }
    if (live == 0) {
        ++decisions_.admitted;
        return multidnn::Admission::Admit;
    }

    // Queued-but-unplaced work ahead of this request, spread across
    // the live devices (integer division: deterministic, and biased
    // low — optimistic on start, conservative on sheds). Under EDF
    // only earlier-deadline work runs ahead of the arriving request,
    // so later-deadline queue entries do not count against it —
    // charging the whole queue would shed far too eagerly exactly
    // when the queue is full of doomed stragglers.
    SimTime backlog = 0;
    SimTime deadline = r.deadline();
    for (const auto &q : ready) {
        if (q.deadline() > deadline)
            continue;
        const auto &qe = estimator_.estimate(q.model);
        SimTime qs = q.degraded ? qe.degradedService : qe.service;
        // An entry that can no longer meet its own bound even if it
        // started right now is certain to be shed at the dispatch
        // point and costs no device time.
        if (q.latencyBound > 0 && now + qs > q.deadline())
            continue;
        backlog += qs;
    }
    SimTime start = earliest + backlog / live;
    SimTime service = r.degraded ? est.degradedService : est.service;
    if (start + service <= deadline) {
        ++decisions_.admitted;
        return multidnn::Admission::Admit;
    }
    ++decisions_.shed;
    return multidnn::Admission::Shed;
}

ModelMix
withColdInflux(const ModelMix &base,
               const std::vector<ModelMix::Entry> &cold,
               double cold_fraction)
{
    FM_ASSERT(cold_fraction > 0.0 && cold_fraction < 1.0,
              "withColdInflux: cold fraction must be in (0, 1)");
    FM_ASSERT(!base.entries.empty() && !cold.empty(),
              "withColdInflux: empty mix");
    auto total = [](const std::vector<ModelMix::Entry> &entries) {
        double w = 0.0;
        for (const auto &e : entries)
            w += e.weight;
        FM_ASSERT(w > 0.0, "withColdInflux: non-positive mix weight");
        return w;
    };
    double base_w = total(base.entries);
    double cold_w = total(cold);

    ModelMix mix;
    for (auto e : base.entries) {
        e.weight *= (1.0 - cold_fraction) / base_w;
        mix.entries.push_back(e);
    }
    for (auto e : cold) {
        e.weight *= cold_fraction / cold_w;
        mix.entries.push_back(e);
    }
    return mix;
}

} // namespace flashmem::serving
