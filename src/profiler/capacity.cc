#include "profiler/capacity.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/rng.hh"
#include "profiler/features.hh"

namespace flashmem::profiler {

using graph::OpClass;

namespace {

/** Extra-load ratios profiled per kernel (Figure 2's x-axis). */
constexpr std::array<double, 9> kProfileRatios = {
    0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0};
/** Multiplicative gaussian measurement noise (sigma). */
constexpr double kNoiseStddev = 0.03;
constexpr std::uint64_t kProfileSeed = 0xCAFE;

} // namespace

double
CapacityThresholds::forClass(OpClass cls) const
{
    switch (cls) {
      case OpClass::Elemental:
        return elemental;
      case OpClass::Reusable:
        return reusable;
      case OpClass::Hierarchical:
        return hierarchical;
      case OpClass::Movement:
        return movement;
    }
    return 0.0;
}

std::int64_t
CapacityProvider::capacityChunks(const gpusim::KernelSpec &spec,
                                 Bytes chunk_bytes) const
{
    FM_ASSERT(chunk_bytes > 0, "chunk size must be positive");
    return static_cast<std::int64_t>(capacityBytes(spec) / chunk_bytes);
}

Bytes
AnalyticCapacityProvider::capacityBytes(
    const gpusim::KernelSpec &spec) const
{
    return model_.loadCapacityBytes(spec,
                                    thresholds_.forClass(spec.cls()));
}

void
LearnedCapacityProvider::profileAndFit(
    const std::vector<const graph::Graph *> &graphs)
{
    std::vector<std::vector<double>> x_train, x_test;
    std::vector<double> y_train, y_test;
    Rng rng(kProfileSeed);

    for (const auto *g : graphs) {
        FM_ASSERT(g != nullptr, "null graph in profiling set");
        for (const auto &node : g->nodes()) {
            auto spec = gpusim::kernelSpecFor(*g, node.id, true);
            spec.pipelined = true;
            for (double ratio : kProfileRatios) {
                auto extra = static_cast<Bytes>(
                    ratio * static_cast<double>(std::max<Bytes>(
                                spec.inputBytes, 1)));
                double truth_ms = toMilliseconds(
                    model_.latencyWithLoad(spec, extra));
                // Simulated on-device measurement with multiplicative
                // noise, as repeated profiling runs would produce.
                double measured =
                    truth_ms *
                    std::max(0.5, rng.gaussian(1.0, kNoiseStddev));
                auto features = kernelFeatures(spec, ratio);
                // 1-in-5 holdout split for validation.
                if (rng.uniform() < 0.2) {
                    x_test.push_back(std::move(features));
                    y_test.push_back(measured);
                } else {
                    x_train.push_back(std::move(features));
                    y_train.push_back(measured);
                }
            }
        }
    }
    FM_ASSERT(!x_train.empty(), "profiling produced no samples");
    samples_ = x_train.size() + x_test.size();
    gbt_.fit(x_train, y_train);
    holdout_r2_ = x_test.empty() ? 1.0 : gbt_.r2(x_test, y_test);
}

double
LearnedCapacityProvider::predictLatencyMs(const gpusim::KernelSpec &spec,
                                          double extra_ratio) const
{
    FM_ASSERT(gbt_.trained(), "LearnedCapacityProvider used before fit");
    return gbt_.predict(kernelFeatures(spec, extra_ratio));
}

Bytes
LearnedCapacityProvider::capacityBytes(
    const gpusim::KernelSpec &spec) const
{
    double limit = CapacityThresholds{}.forClass(spec.cls());
    if (limit <= 0.0)
        return 0;
    double base_ms = predictLatencyMs(spec, 0.0);
    double budget_ms = (1.0 + limit) * base_ms;

    // The learned curve is noisy but monotone in expectation; invert by
    // scanning the profiled ratio grid, then refine by bisection.
    double lo = 0.0, hi = 0.0;
    for (double ratio : kProfileRatios) {
        if (predictLatencyMs(spec, ratio) <= budget_ms)
            hi = std::max(hi, ratio);
    }
    lo = hi;
    double probe = std::max(hi, 0.5) * 2.0;
    const double max_ratio = 16.0;
    while (probe <= max_ratio &&
           predictLatencyMs(spec, probe) <= budget_ms) {
        lo = probe;
        probe *= 2.0;
    }
    hi = std::min(probe, max_ratio);
    for (int i = 0; i < 24; ++i) {
        double mid = 0.5 * (lo + hi);
        if (predictLatencyMs(spec, mid) <= budget_ms)
            lo = mid;
        else
            hi = mid;
    }
    auto cap = static_cast<Bytes>(
        lo * static_cast<double>(std::max<Bytes>(spec.inputBytes, 1)));
    return std::min<Bytes>(cap, mib(256));
}

} // namespace flashmem::profiler
