/**
 * @file
 * Deterministic fault injection for the device cluster.
 *
 * A FaultPlan is a pre-computed schedule of per-device fault events —
 * crash / rejoin and slowdown — built from the hand fixtures below or
 * drawn by the seeded generator in tests/fault_plan_gen.hh. The plan
 * is consumed by the shared cluster event loop
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
 *  - Slowdown: requests *dispatched* while the window is active run
 *    with init and exec scaled by the factor (thermal throttling
 *    model); in-flight runs are unaffected and health is unchanged.
 *
 * No fault moves a placed run: a run either ends at the time the loop
 * placed it at or is killed by a crash.
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
    Slowdown, ///< dispatches scaled by @c factor for @c duration
};

/** One scheduled fault on one device. */
struct FaultEvent
{
    SimTime time = 0;
    int device = 0;
    FaultKind kind = FaultKind::Crash;
    /** Slowdown window length (unused otherwise). */
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

/** @name Hand-built scenario plans (bench / test fixtures). @{ */

/** One crash at @p at, rejoining @p downFor later. */
FaultPlan crashAndRejoin(int device, SimTime at, SimTime downFor);

/** One slowdown window on @p device. */
FaultPlan singleSlowdown(int device, SimTime at, SimTime duration,
                         double factor);

/** @p cycles crash/rejoin pairs: crash at @p firstCrash, down for
 * @p downFor, next crash one @p period after the previous. */
FaultPlan flappingDevice(int device, SimTime firstCrash, SimTime period,
                         SimTime downFor, int cycles);
/** @} */

/** Merge @p b's events into @p a (re-normalized). */
FaultPlan mergeFaultPlans(FaultPlan a, const FaultPlan &b);

/** @name Fixed recovery constants of the event loop. @{ */
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

/** Fault-recovery accounting shared by ScheduleOutcome and
 * ServingOutcome. */
struct FaultCounters
{
    int crashes = 0;     ///< crash events applied to a live device
    int retries = 0;     ///< re-dispatches scheduled after a kill
    int failovers = 0;   ///< retries that landed on a different device
    int faultSheds = 0;  ///< requests dropped: retry budget exhausted
    int starved = 0;     ///< requests dropped: no device ever accepted
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_FAULTS_HH
