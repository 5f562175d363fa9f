/**
 * @file
 * Arrival-trace generators for the high-traffic serving harness.
 *
 * Every generator produces a deterministic, seeded stream of
 * multidnn::ModelRequest — the same request type the event-driven
 * scheduler drains — over a weighted ModelMix, so traces feed both the
 * real EventScheduler (small, execution-accurate runs) and the fast
 * request-level serving simulator (million-request capacity sweeps,
 * see serving/sweep.hh).
 *
 * Processes:
 *  - Poisson       — open-loop, exponential inter-arrivals at a QPS.
 *  - MMPP          — bursty two-state Markov-modulated Poisson (low /
 *                    high rate, exponential state dwell).
 *  - Diurnal       — non-homogeneous Poisson with a sinusoidally
 *                    modulated rate (Lewis-Shedler thinning).
 *  - Closed-loop   — N users, exponential think time, next request
 *                    issued after the previous one completes on a
 *                    serialized server (approximated with calibrated
 *                    per-model service estimates).
 *
 * Replay: a simple CSV / JSONL trace format (see serving/README.md)
 * with exact nanosecond round-trips, so captured or hand-written
 * traces can drive the same harness.
 */

#ifndef FLASHMEM_SERVING_TRACE_GEN_HH
#define FLASHMEM_SERVING_TRACE_GEN_HH

#include <iosfwd>
#include <map>
#include <string>
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

/** Two-state Markov-modulated Poisson process (bursty traffic). */
struct MmppParams
{
    double qpsLow = 10.0;   ///< arrival rate in the quiet state
    double qpsHigh = 100.0; ///< arrival rate in the bursty state
    /** Mean exponential dwell per state. */
    SimTime meanDwell = milliseconds(500);
};
std::vector<multidnn::ModelRequest> mmppTrace(const ModelMix &mix,
                                              const MmppParams &params,
                                              std::size_t count,
                                              std::uint64_t seed);

/** Sinusoidally rate-modulated Poisson process (diurnal load). */
struct DiurnalParams
{
    double baseQps = 50.0;
    /** Modulation depth in [0, 1): rate swings base*(1 +/- amplitude). */
    double amplitude = 0.5;
    /** One full day-night cycle. */
    SimTime period = seconds(60);
};
std::vector<multidnn::ModelRequest> diurnalTrace(
    const ModelMix &mix, const DiurnalParams &params, std::size_t count,
    std::uint64_t seed);

/**
 * Closed-loop arrivals: @p users concurrent users, each issuing its
 * next request an exponential think time after its previous request
 * completed. Completion times are approximated against a serialized
 * FIFO server with @p service_estimates (a calibrated table's
 * ModelServiceProfile::service per model), which is exact for FIFO
 * draining and a close upper bound otherwise.
 */
struct ClosedLoopParams
{
    int users = 8;
    SimTime meanThink = 0; ///< mean exponential think time
};
std::vector<multidnn::ModelRequest> closedLoopTrace(
    const ModelMix &mix, const ClosedLoopParams &params,
    const std::map<models::ModelId, SimTime> &service_estimates,
    std::size_t count, std::uint64_t seed);

/** @name Trace replay (CSV / JSONL; see serving/README.md). @{ */

/** Parse "arrival_ns,model,priority,slo_ns" CSV (header required). */
std::vector<multidnn::ModelRequest> parseCsvTrace(std::istream &in);

/** Parse JSONL: one {"arrival_ns":..,"model":"..",...} per line. */
std::vector<multidnn::ModelRequest> parseJsonlTrace(std::istream &in);

/** Load a trace file, dispatching on the .csv / .jsonl extension. */
std::vector<multidnn::ModelRequest> loadTrace(const std::string &path);

void writeCsvTrace(std::ostream &out,
                   const std::vector<multidnn::ModelRequest> &trace);
void writeJsonlTrace(std::ostream &out,
                     const std::vector<multidnn::ModelRequest> &trace);
/** @} */

} // namespace flashmem::serving

#endif // FLASHMEM_SERVING_TRACE_GEN_HH
