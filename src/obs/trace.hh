/**
 * @file
 * Deterministic tracing and metrics for the serving stack.
 *
 * A TraceRecorder collects typed events keyed by stable IDs (request
 * sequence numbers, run ids, device ids, fault/window indices) and
 * simulation timestamps — never wall clock — so two runs with the
 * same seed and configuration produce byte-identical trace exports
 * regardless of pool thread counts. That makes the trace
 * itself a regression-gateable artifact: the cross-validation tests
 * compare the fast simulator's event stream against the
 * EventScheduler's with a plain string equality, and
 * tools/trace_diff.py turns any divergence into "first event that
 * differs, with context".
 *
 * Instrumentation sites hold a plain `TraceRecorder *` that defaults
 * to null; every hook is a pointer test and nothing else when tracing
 * is off, so the hot path costs zero and bench numbers are
 * unaffected.
 *
 * Exporters:
 *  - writeText(): one line per event, sorted by simulation time
 *    (stable, so same-instant events keep their deterministic append
 *    order). Stream::Serving filters out the planner-side events
 *    (Replan, SolverWindow) for fast-sim vs EventScheduler
 *    comparison — the fast path never plans.
 *  - writeChromeJson(): Chrome/Perfetto trace-event JSON with one
 *    compute and one DMA track per device, a planner track, and an
 *    async request lane; loads directly in ui.perfetto.dev.
 *
 * The numeric payload codes (admission verdicts, drop reasons, fault
 * kinds, device health) mirror the enums in multidnn/; the pinning
 * static_asserts live in multidnn/event_loop.hh so this module keeps
 * depending only on common/ and models/.
 */

#ifndef FLASHMEM_OBS_TRACE_HH
#define FLASHMEM_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace flashmem::obs {

/** Typed trace event kinds, in rough lifecycle order. The narrow
 * underlying type keeps TraceEvent at 48 bytes (see below). */
enum class EventKind : std::int8_t
{
    RequestArrival = 0,     ///< request entered the simulation
    AdmissionVerdict = 1,   ///< arrival-time admission decision
    RequestDispatch = 2,    ///< placed on a device (planned times)
    RequestComplete = 3,    ///< survived to completion (actual times)
    RequestShed = 4,        ///< dropped without completing
    RetryScheduled = 5,     ///< killed run re-queued with backoff
    FaultInjected = 6,      ///< FaultPlan event delivered
    DeviceHealthChange = 7, ///< crash / rejoin
    Replan = 8,             ///< planner produced a budget-replanned plan
    SolverWindow = 9,       ///< per-window solver summary
};

/** @name Payload-code names.
 * The codes mirror multidnn enums (pinned by static_asserts in
 * event_loop.hh); unknown codes render as "?". @{ */
const char *admissionVerdictCodeName(std::int64_t code);
const char *dropReasonCodeName(std::int64_t code);
const char *faultKindCodeName(std::int64_t code);
const char *deviceHealthCodeName(std::int64_t code);
/** @} */

/**
 * One recorded event. Fixed-width POD so recording is an O(1) append;
 * the meaning of the generic payload slots a..c (and the one-byte
 * flag) depends on the kind (see the emit helpers on TraceRecorder).
 *
 * Deliberately packed to 48 bytes, widest members first: recording is
 * memory-bandwidth-bound on the serving fast path (~3 events per
 * request), and the struct size is the direct lever on the
 * tracing-on overhead (perfbench's obs.trace_on_ratio). The
 * narrow fields are still comfortably wide for their ranges —
 * request sequence numbers and run ids into the billions, device
 * and model ids into the tens of thousands.
 */
struct TraceEvent
{
    SimTime time = 0;
    std::int64_t a = 0, b = 0, c = 0;
    std::uint32_t id = 0;     ///< request seq / fault idx / window idx
    std::int32_t runId = -1;  ///< dispatch run id, -1 when n/a
    std::int16_t device = -1; ///< device id, -1 when n/a
    std::int16_t model = -1;  ///< models::ModelId as int, -1 when n/a
    EventKind kind = EventKind::RequestArrival;
    std::int8_t flag = 0;     ///< SolverWindow: proven_optimal
};

static_assert(sizeof(TraceEvent) == 48,
              "TraceEvent packing regressed; recording cost scales "
              "with this size");

/** Which events writeText() includes. */
enum class Stream
{
    Full,    ///< everything
    Serving, ///< serving-path only: excludes Replan and SolverWindow
};

/**
 * Collects TraceEvents. Not thread-safe by design: every emit site
 * sits on the single-threaded simulation event loop (or the
 * planner's deterministic window-aggregation loop), so appends happen
 * in one deterministic order per run.
 */
class TraceRecorder
{
  public:
    /** @name Emit helpers (one per EventKind).
     * Defined inline: the serving fast path emits ~3 events per
     * request, and keeping the append visible to the caller's
     * optimizer roughly halves the per-event cost that perfbench's
     * obs.trace_on_ratio measures. @{ */
    void
    requestArrival(SimTime t, std::uint64_t req, std::int32_t model,
                   SimTime latency_bound)
    {
        TraceEvent e = makeEvent(t, EventKind::RequestArrival, req,
                                 -1, -1, model);
        e.a = latency_bound;
        events_.push_back(e);
    }

    void
    admissionVerdict(SimTime t, std::uint64_t req, std::int32_t model,
                     std::int64_t verdict, std::int64_t tier)
    {
        TraceEvent e = makeEvent(t, EventKind::AdmissionVerdict, req,
                                 -1, -1, model);
        e.a = verdict;
        e.b = tier;
        events_.push_back(e);
    }

    void
    requestDispatch(SimTime t, std::uint64_t req, std::int64_t run,
                    std::int32_t device, std::int32_t model,
                    SimTime start, SimTime init_done, SimTime end)
    {
        TraceEvent e = makeEvent(t, EventKind::RequestDispatch, req,
                                 run, device, model);
        e.a = start;
        e.b = init_done;
        e.c = end;
        events_.push_back(e);
    }

    void
    requestComplete(SimTime end, std::uint64_t req, std::int64_t run,
                    std::int32_t device, std::int32_t model,
                    SimTime start, SimTime init_done)
    {
        TraceEvent e = makeEvent(end, EventKind::RequestComplete, req,
                                 run, device, model);
        e.a = start;
        e.b = init_done;
        events_.push_back(e);
    }

    void
    requestShed(SimTime t, std::uint64_t req, std::int32_t model,
                std::int64_t reason, std::int64_t attempts)
    {
        TraceEvent e = makeEvent(t, EventKind::RequestShed, req, -1,
                                 -1, model);
        e.a = reason;
        e.b = attempts;
        events_.push_back(e);
    }

    void
    retryScheduled(SimTime t, std::uint64_t req, std::int32_t model,
                   SimTime retry_at, std::int64_t attempts,
                   std::int32_t failed_device)
    {
        TraceEvent e = makeEvent(t, EventKind::RetryScheduled, req,
                                 -1, failed_device, model);
        e.a = retry_at;
        e.b = attempts;
        events_.push_back(e);
    }

    void
    faultInjected(SimTime t, std::uint64_t fault_index,
                  std::int32_t device, std::int64_t kind,
                  SimTime duration, std::int64_t factor_milli)
    {
        TraceEvent e = makeEvent(t, EventKind::FaultInjected,
                                 fault_index, -1, device, -1);
        e.a = kind;
        e.b = duration;
        e.c = factor_milli;
        events_.push_back(e);
    }

    void
    deviceHealthChange(SimTime t, std::int32_t device,
                       std::int64_t health, std::int64_t crash_down,
                       SimTime probation_until)
    {
        TraceEvent e = makeEvent(t, EventKind::DeviceHealthChange, 0,
                                 -1, device, -1);
        e.a = health;
        e.b = crash_down;
        e.c = probation_until;
        events_.push_back(e);
    }

    void
    replan(SimTime t, std::int32_t model, std::int64_t budget,
           std::int64_t memo_hits, std::int64_t windows)
    {
        TraceEvent e =
            makeEvent(t, EventKind::Replan, 0, -1, -1, model);
        e.a = budget;
        e.b = memo_hits;
        e.c = windows;
        events_.push_back(e);
    }

    void
    solverWindow(SimTime t, std::uint64_t window, std::int32_t model,
                 std::int64_t gap, std::int64_t augmentations,
                 std::int64_t proven_optimal)
    {
        TraceEvent e = makeEvent(t, EventKind::SolverWindow, window,
                                 -1, -1, model);
        e.a = gap;
        e.b = augmentations;
        e.flag = proven_optimal != 0;
        events_.push_back(e);
    }
    /** @} */

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    void clear() { events_.clear(); }

    /**
     * One line per event, sorted by simulation time (stable: events
     * at the same instant keep append order, which the event loop
     * makes deterministic). Byte-identical for identical runs.
     */
    void writeText(std::ostream &os, Stream stream = Stream::Full)
        const;

    /**
     * Chrome trace-event JSON (the format ui.perfetto.dev loads):
     * per-device compute and DMA tracks built from completed-run
     * actual times, a planner track for replan/solver events, an
     * async request lane spanning arrival to completion/shed, and
     * instants for faults, sheds, retries, and health changes.
     * Timestamps are microseconds with nanosecond decimals, formatted
     * with snprintf so the export is byte-deterministic.
     */
    void writeChromeJson(std::ostream &os) const;

  private:
    /** Common part of an event; payload slots are filled by the
     * caller. Named assignment, not brace-init, so the packed field
     * order in the struct cannot silently reshuffle a payload. */
    static TraceEvent
    makeEvent(SimTime t, EventKind kind, std::uint64_t id,
              std::int64_t run_id, std::int32_t device,
              std::int32_t model)
    {
        TraceEvent e;
        e.time = t;
        e.kind = kind;
        e.id = static_cast<std::uint32_t>(id);
        e.runId = static_cast<std::int32_t>(run_id);
        e.device = static_cast<std::int16_t>(device);
        e.model = static_cast<std::int16_t>(model);
        return e;
    }

    std::vector<TraceEvent> events_;
};

} // namespace flashmem::obs

#endif // FLASHMEM_OBS_TRACE_HH
