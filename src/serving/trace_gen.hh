/**
 * @file
 * The arrival-trace generator for the high-traffic serving harness.
 *
 * poissonTrace produces a deterministic, seeded stream of
 * multidnn::ModelRequest — the same request type the event-driven
 * scheduler drains — over a weighted ModelMix: open-loop, exponential
 * inter-arrivals at a QPS. Its traces feed both the real
 * EventScheduler (small, execution-accurate runs) and the fast
 * request-level serving simulator (million-request capacity sweeps,
 * see serving/sweep.hh).
 */

#ifndef FLASHMEM_SERVING_TRACE_GEN_HH
#define FLASHMEM_SERVING_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "multidnn/workload.hh"

namespace flashmem::serving {

/** Weighted model mix a trace generator samples requests from. */
struct ModelMix
{
    struct Entry
    {
        models::ModelId model{};
        double weight = 1.0;
        /** Latency SLO stamped on requests of this model (0 = none). */
        SimTime latencyBound = 0;
        int priority = 0;
    };
    std::vector<Entry> entries;

    /** Distinct models in entry order (for calibration). */
    std::vector<models::ModelId> distinctModels() const;
};

/** Open-loop Poisson arrivals at @p qps, @p count requests. */
std::vector<multidnn::ModelRequest> poissonTrace(const ModelMix &mix,
                                                 double qps,
                                                 std::size_t count,
                                                 std::uint64_t seed);

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_TRACE_GEN_HH
