/**
 * @file
 * Load-capacity modeling (paper Section 4.2).
 *
 * Per-layer load capacity C_l is the number of weight chunks a layer can
 * transform inline without exceeding its class's latency-increase
 * threshold: 0% for hierarchical, 20% for reusable, 300% for elemental
 * operators. Two providers implement the query:
 *
 *  - AnalyticCapacityProvider inverts the simulator's kernel model
 *    directly (ground truth).
 *  - LearnedCapacityProvider follows the paper: profile kernels under
 *    varying inline loads (noisy measurements), train the GBT latency
 *    regressor, and invert its predictions.
 */

#ifndef FLASHMEM_PROFILER_CAPACITY_HH
#define FLASHMEM_PROFILER_CAPACITY_HH

#include <vector>

#include "gpusim/kernel.hh"
#include "profiler/gbt.hh"

namespace flashmem::profiler {

/** Class thresholds (latency-increase limits) from paper Section 4.2. */
struct CapacityThresholds
{
    double elemental = 3.0;     ///< 300%
    double reusable = 0.2;      ///< 20%
    double hierarchical = 0.0;  ///< no inline loading
    double movement = 0.5;      ///< layout ops tolerate modest streams

    double forClass(graph::OpClass cls) const;
};

/** Interface the OPG planner queries for per-layer capacities. */
class CapacityProvider
{
  public:
    virtual ~CapacityProvider() = default;

    /** Max inline-load bytes for this dispatch within its threshold. */
    virtual Bytes capacityBytes(const gpusim::KernelSpec &spec) const = 0;

    /** Capacity in whole chunks of @p chunk_bytes. */
    std::int64_t capacityChunks(const gpusim::KernelSpec &spec,
                                Bytes chunk_bytes) const;
};

/** Ground-truth provider: inverts the simulator's kernel model. */
class AnalyticCapacityProvider : public CapacityProvider
{
  public:
    AnalyticCapacityProvider(const gpusim::KernelModel &model,
                             CapacityThresholds thresholds = {})
        : model_(model), thresholds_(thresholds)
    {}

    Bytes capacityBytes(const gpusim::KernelSpec &spec) const override;

  private:
    const gpusim::KernelModel &model_;
    CapacityThresholds thresholds_;
};

/**
 * Paper-faithful provider: samples simulated measurements across many
 * kernels, fits the GBT, inverts predictions for capacity queries
 * against the paper's CapacityThresholds.
 */
class LearnedCapacityProvider : public CapacityProvider
{
  public:
    explicit LearnedCapacityProvider(const gpusim::KernelModel &model)
        : model_(model)
    {}

    /** Profile every dispatch of @p graphs and fit the regressor. */
    void profileAndFit(const std::vector<const graph::Graph *> &graphs);

    /** Predicted latency (ms) at a given extra-load ratio. */
    double predictLatencyMs(const gpusim::KernelSpec &spec,
                            double extra_ratio) const;

    Bytes capacityBytes(const gpusim::KernelSpec &spec) const override;

    bool trained() const { return gbt_.trained(); }
    const GbtRegressor &regressor() const { return gbt_; }
    std::size_t sampleCount() const { return samples_; }

    /** Held-out accuracy of the fitted model (R^2). */
    double holdoutR2() const { return holdout_r2_; }

  private:
    const gpusim::KernelModel &model_;
    GbtRegressor gbt_;
    std::size_t samples_ = 0;
    double holdout_r2_ = 0.0;
};

} // namespace flashmem::profiler

#endif // FLASHMEM_PROFILER_CAPACITY_HH
