/**
 * @file
 * Deterministic fault injection for the device cluster.
 *
 * A FaultPlan is a seeded, pre-computed schedule of per-device fault
 * events — crash / rejoin, stall, slowdown, transient DMA error —
 * generated from common/rng exactly like the serving trace generators,
 * so a fault timeline is a pure function of (params, devices, horizon,
 * seed). The plan is consumed by the shared cluster event loop
 * (multidnn/event_loop.hh); because the real EventScheduler and the
 * fast serving simulator run that same loop, both paths observe a
 * bit-identical fault timeline by construction.
 *
 * Fault semantics (the recovery decision table lives in
 * src/multidnn/README.md):
 *  - Crash: the device dies instantly. In-flight runs are killed and
 *    re-dispatched to surviving devices (capped exponential backoff);
 *    plan residency is invalidated (device memory is gone). The device
 *    is Down until its Rejoin event, then Suspect for a probation
 *    window (pipeline depth capped at 1 — the heartbeat probe) before
 *    returning to Healthy.
 *  - Stall: in-flight runs on the device stop progressing for the
 *    stall's duration. If the delay keeps every run within its
 *    per-dispatch timeout budget (kTimeoutFactor x expected service)
 *    the runs simply complete late; otherwise the watchdog fires at
 *    the earliest blown timeout, every in-flight run is killed and
 *    retried elsewhere, and the device is Down until the wedge clears
 *    (plan residency survives — device memory was not lost).
 *  - Slowdown: requests *dispatched* while the window is active run
 *    with init and exec scaled by the factor (thermal throttling
 *    model); in-flight runs are unaffected and health is unchanged.
 *  - DmaError: the preload in flight at the event time aborts; the
 *    request retries with backoff and the dispatch is rolled back.
 *    Transient — health is unchanged; a no-op if no preload is active.
 */

#ifndef FLASHMEM_MULTIDNN_FAULTS_HH
#define FLASHMEM_MULTIDNN_FAULTS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace flashmem::multidnn {

/** Kinds of injected device faults. */
enum class FaultKind
{
    Crash,    ///< device dies; Down until the paired Rejoin
    Rejoin,   ///< crashed device comes back (probation before Healthy)
    Stall,    ///< in-flight work frozen for @c duration
    Slowdown, ///< dispatches scaled by @c factor for @c duration
    DmaError, ///< the preload active at this instant aborts
};

/** Human name of a fault kind. */
const char *faultKindName(FaultKind kind);

/** One scheduled fault on one device. */
struct FaultEvent
{
    SimTime time = 0;
    int device = 0;
    FaultKind kind = FaultKind::Crash;
    /** Stall / slowdown window length (unused otherwise). */
    SimTime duration = 0;
    /** Slowdown service-time multiplier (>= 1; unused otherwise). */
    double factor = 1.0;
};

/** A deterministic schedule of fault events, sorted by time. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Sort events by (time, device, kind) — the canonical order the
     * event loop consumes them in. Builders call this last. */
    void normalize();
};

/** Rates for the seeded fault-plan generator (per device). Crash
 * downtimes and slowdown windows draw from fixed means (faults.cc). */
struct FaultPlanParams
{
    /** Crash arrivals per device-second (0 = none). */
    double crashesPerSecond = 0.0;
    double stallsPerSecond = 0.0;
    SimTime meanStall = milliseconds(100);
    double slowdownsPerSecond = 0.0;
    double dmaErrorsPerSecond = 0.0;
};

/**
 * Generate a seeded fault plan over @p device_count devices and a
 * @p horizon of simulated time. Each device draws from an independent
 * deterministic stream, so plans are bit-reproducible and stable under
 * changes to the device count (device i's timeline never shifts).
 * Stalls, slowdowns, and DMA errors falling inside a crash's down
 * window are suppressed (a dead device cannot misbehave further).
 */
FaultPlan generateFaultPlan(const FaultPlanParams &params,
                            int device_count, SimTime horizon,
                            std::uint64_t seed);

/** @name Hand-built scenario plans (bench / test fixtures). @{ */

/** One crash at @p at on @p device; never rejoins. */
FaultPlan singleCrash(int device, SimTime at);

/** One crash at @p at, rejoining @p downFor later. */
FaultPlan crashAndRejoin(int device, SimTime at, SimTime downFor);

/** One slowdown window on @p device. */
FaultPlan singleSlowdown(int device, SimTime at, SimTime duration,
                         double factor);

/** One stall of @p duration at @p at on @p device. */
FaultPlan singleStall(int device, SimTime at, SimTime duration);

/** @p cycles crash/rejoin pairs: crash at @p firstCrash, down for
 * @p downFor, next crash one @p period after the previous. */
FaultPlan flappingDevice(int device, SimTime firstCrash, SimTime period,
                         SimTime downFor, int cycles);
/** @} */

/** Merge @p b's events into @p a (re-normalized). */
FaultPlan mergeFaultPlans(FaultPlan a, const FaultPlan &b);

/** @name Fixed detection and recovery constants of the event loop.
 * @{ */
/**
 * Per-dispatch timeout budget as a multiple of the expected (placed)
 * service time: a stalled run whose completion would slip past
 * start + kTimeoutFactor x expected is declared dead by the watchdog
 * and re-dispatched.
 */
inline constexpr double kTimeoutFactor = 3.0;
/** Re-dispatch attempts per request before it is fault-shed. */
inline constexpr int kMaxRetries = 3;
/** First retry backoff; doubles per attempt up to kBackoffCap. */
inline constexpr SimTime kBackoffBase = milliseconds(1);
inline constexpr SimTime kBackoffCap = milliseconds(64);
/** Suspect window after a rejoin: the device serves at pipeline depth
 * 1 (the heartbeat probe) until the window passes. */
inline constexpr SimTime kProbation = milliseconds(250);
/** @} */

/** Why the event loop dropped a request without completing it. */
enum class DropReason
{
    Admission,   ///< SLO admission shed (policy verdict)
    FaultBudget, ///< retries exhausted after repeated fault kills
    Starved,     ///< queue drained with no device ever accepting again
    ArrivalShed, ///< shed at arrival by the backlog admission gate
};

/** Human name of a drop reason. */
const char *dropReasonName(DropReason reason);

/** Fault-recovery accounting shared by ScheduleOutcome and
 * ServingOutcome. */
struct FaultCounters
{
    int crashes = 0;     ///< crash events applied to a live device
    int timeouts = 0;    ///< watchdog kills (stall beyond budget)
    int dmaAborts = 0;   ///< transient DMA preload aborts
    int retries = 0;     ///< re-dispatches scheduled after a kill
    int failovers = 0;   ///< retries that landed on a different device
    int faultSheds = 0;  ///< requests dropped: retry budget exhausted
    int starved = 0;     ///< requests dropped: no device ever accepted
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_FAULTS_HH
