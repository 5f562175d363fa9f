/**
 * @file
 * Streaming tail-latency metrics for the serving harness.
 *
 * ServingStats accumulates per-request observations without storing
 * them: latency quantiles (p50/p95/p99) ride on P² estimators
 * (common/stats.hh), means on Welford accumulators, and the SLO
 * accounting (goodput, shed, degraded) on plain counters — so a
 * million-request capacity sweep costs O(1) memory per probe. All
 * updates are pure arithmetic on the observation order, keeping the
 * reported figures bit-deterministic for a given trace regardless of
 * how many worker threads run *other* probes concurrently.
 */

#ifndef FLASHMEM_SERVING_SERVING_STATS_HH
#define FLASHMEM_SERVING_SERVING_STATS_HH

#include "common/stats.hh"
#include "multidnn/scheduler.hh"

namespace flashmem::serving {

class ServingStats
{
  public:
    /** Record one completed request. */
    void recordCompletion(SimTime latency, SimTime queue_delay,
                          bool met_slo, bool degraded);

    /** Record one request dropped by SLO admission. */
    void recordShed();

    /** Ingest a drained ScheduleOutcome (real-scheduler runs report
     * through the same stats type as the fast simulator). */
    // FMLINT(allow:test-only-api) tests compare live and fast drains' stats
    static ServingStats fromOutcome(const multidnn::ScheduleOutcome &o);

    /** @name Counters. @{ */
    std::size_t submitted() const { return completed_ + shed_; }
    std::size_t completed() const { return completed_; }
    std::size_t shedCount() const { return shed_; }
    std::size_t degradedCount() const { return degraded_; }
    /** Completions that met their bound (unbounded ones count). */
    std::size_t goodput() const { return goodput_; }
    /** Completions that blew their bound. */
    std::size_t sloViolations() const { return completed_ - goodput_; }
    double goodputRate() const;
    double shedRate() const;
    /** @} */

    /** @name Streaming latency quantiles (request latency, ns). @{ */
    SimTime p50() const { return static_cast<SimTime>(q50_.value()); }
    SimTime p95() const { return static_cast<SimTime>(q95_.value()); }
    SimTime p99() const { return static_cast<SimTime>(q99_.value()); }
    double p50Ms() const { return toMilliseconds(p50()); }
    double p95Ms() const { return toMilliseconds(p95()); }
    double p99Ms() const { return toMilliseconds(p99()); }
    /** @} */

    // FMLINT(allow:test-only-api) tests compare mean latency across paths
    double meanLatencyMs() const { return latency_ms_.mean(); }
    double meanQueueDelayMs() const { return queue_ms_.mean(); }

  private:
    P2Quantile q50_{0.50};
    P2Quantile q95_{0.95};
    P2Quantile q99_{0.99};
    RunningStat latency_ms_;
    RunningStat queue_ms_;
    std::size_t completed_ = 0;
    std::size_t shed_ = 0;
    std::size_t degraded_ = 0;
    std::size_t goodput_ = 0;
};

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_SERVING_STATS_HH
