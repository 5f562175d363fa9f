/**
 * @file
 * The one serving core: the cluster event loop both execution paths
 * run.
 *
 * multidnn::EventScheduler (live FlashMem or preload runs, each the
 * recorded solo run of its artifact spliced at the loop's times) and
 * the fast serving simulator (serving/sweep.cc, calibrated service
 * tables) drain their queues through this single
 * template. The loop owns every decision: event ordering, the arrival
 * gate, dispatch-point admission, policy selection, device placement,
 * the timing rule and — with a FaultPlan — the fault timeline and its
 * recovery. A backend only says what a run costs: its plan budget and
 * its solo init/exec split. The loop places that split with
 * DeviceCluster::planTimes and commits it, so the two paths differ in
 * nothing but where a run's service times come from.
 *
 * Event ordering at equal timestamps: injected faults first (a crash
 * at time T kills the runs in flight at T before anything else
 * happens at T), then arrivals and retry re-entries (a dispatch point
 * always sees every request that is ready by then), then DMA-free
 * wakes, completions, and finally the watchdog/recovery events; ties
 * break on the event's sequence id. The clock is integer nanoseconds,
 * so the loop is exactly deterministic.
 *
 * Two event sources feed that order. Arrivals stream from the queue
 * through a cursor in (arrival, queue index) order; a stable-sorted
 * index is built only when the caller's queue is out of arrival order.
 * Everything else — faults, retries, DMA-frees, completions, watchdog
 * events — waits in a min-heap. Each step takes whichever source
 * orders first; an arrival never ties with a heap event (their kinds
 * differ), so the merged stream follows exactly the order above. The
 * heap holds only the fault plan and in-flight events, never the
 * arrival backlog: on perfbench's 1M-request serve_overload drain it
 * peaks at 15 entries, so its sift walks stay in cache.
 *
 * Fault tolerance: the loop tracks every dispatched run in flight and
 * consumes the FaultPlan through the heap. A crash kills the
 * victims and re-dispatches them to surviving devices with capped
 * exponential backoff; a stall shifts in-flight completions unless a
 * run blows its per-dispatch timeout budget, in which case a watchdog
 * (DeviceDown) kills everything on the wedged device; a transient DMA
 * error rolls the youngest dispatch back off the device. Requests
 * whose retry budget is exhausted are fault-shed; requests still
 * queued when no device can ever accept again are starvation-dropped
 * — the loop never ends with a request unaccounted for.
 *
 * Completion hand-off: the backend hears of each surviving run once,
 * in dispatch (runId) order — not completion order — via an internal
 * reorder window, so backends can append to dispatch-ordered result
 * vectors and feed order-sensitive streaming estimators (P²
 * quantiles) identically on both paths. Without faults every dispatch
 * completes and the delivery order equals the dispatch order.
 */

#ifndef FLASHMEM_MULTIDNN_EVENT_LOOP_HH
#define FLASHMEM_MULTIDNN_EVENT_LOOP_HH

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <queue>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "multidnn/device.hh"
#include "multidnn/faults.hh"
#include "multidnn/policies.hh"
#include "multidnn/workload.hh"
#include "obs/trace.hh"

namespace flashmem::multidnn {

/** @name obs payload-code pins.
 * obs/trace.cc renders numeric payload codes with its own name tables
 * (obs depends only on common/ and models/); these asserts keep the
 * multidnn enums from drifting out from under them. @{ */
static_assert(static_cast<int>(Admission::Admit) == 0 &&
                  static_cast<int>(Admission::Degrade) == 1 &&
                  static_cast<int>(Admission::Shed) == 2,
              "obs::admissionVerdictCodeName mirrors these values");
static_assert(static_cast<int>(DropReason::Admission) == 0 &&
                  static_cast<int>(DropReason::FaultBudget) == 1 &&
                  static_cast<int>(DropReason::Starved) == 2 &&
                  static_cast<int>(DropReason::ArrivalShed) == 3,
              "obs::dropReasonCodeName mirrors these values");
static_assert(static_cast<int>(FaultKind::Crash) == 0 &&
                  static_cast<int>(FaultKind::Rejoin) == 1 &&
                  static_cast<int>(FaultKind::Stall) == 2 &&
                  static_cast<int>(FaultKind::Slowdown) == 3 &&
                  static_cast<int>(FaultKind::DmaError) == 4,
              "obs::faultKindCodeName mirrors these values");
static_assert(static_cast<int>(DeviceHealth::Healthy) == 0 &&
                  static_cast<int>(DeviceHealth::Suspect) == 1 &&
                  static_cast<int>(DeviceHealth::Down) == 2,
              "obs::deviceHealthCodeName mirrors these values");
/** @} */

/** What a backend says one run costs: the plan budget it executes at
 * (plan residency on the device) and its solo init/exec split, which
 * the loop places with DeviceCluster::planTimes. */
struct RunService
{
    Bytes budget = 0;
    SimTime init = 0;
    SimTime exec = 0;
};

/** Where and when the loop placed one run, at which plan budget. */
struct DispatchedRun
{
    int device = 0;
    Bytes budget = 0;
    PlacedTimes times;
};

/**
 * Drain @p queue against @p cluster under @p policy.
 *
 * @param backend the execution path, statically dispatched. It
 *     answers two questions and hears four notices:
 *     - `SimTime estimate(models::ModelId model)`: the model's
 *       full-budget service estimate, stamped on every arrival as
 *       ReadyRequest::estimatedLatency. Asked once per model.
 *     - `RunService service(const ReadyRequest &picked,
 *       const std::vector<ReadyRequest> &ready, SimTime now)`: what
 *       the picked run costs. @p ready is the rest of the ready set
 *       (co-resident working sets).
 *     - `void placed(const ReadyRequest &picked,
 *       const DispatchedRun &run, std::uint64_t runId)`: where, when
 *       and at which budget the loop placed the run service() just
 *       priced. A retried request dispatches under a fresh id.
 *     - `void completed(const ReadyRequest &req,
 *       const DispatchedRun &run, std::uint64_t runId)`: the run
 *       survived to completion. Delivered in runId (dispatch) order;
 *       run.times carries the actual (possibly stall-shifted)
 *       timeline.
 *     - `void killed(const ReadyRequest &req, const DispatchedRun &run,
 *       std::uint64_t runId, SimTime now)`: a fault killed the run at
 *       @p now (a crash, a watchdog, or a DMA error aborting its
 *       preload); run.times is its timeline as placed, possibly
 *       stall-shifted, and @p now may precede run.times.start. Heard
 *       at once, before the request is retried or fault-shed, so kills
 *       and completions interleave out of runId order.
 *     - `void dropped(const ReadyRequest &r, SimTime now,
 *       DropReason reason)`: the request left without completing —
 *       SLO admission shed, arrival shed, fault-retry budget
 *       exhausted, or starved at drain end with no accepting device.
 * @param ready_limit abort threshold on the ready-set size (0 = no
 *     limit). @return false when the backlog exceeded it — the
 *     offered load is unstable and the drain aborted early.
 * @param faults optional deterministic fault schedule (see
 *     multidnn/faults.hh); every event must name a cluster device.
 *     @p counters, when given, accumulates fault/recovery accounting.
 * @param arrival optional arrival-time admission gate (see
 *     multidnn/policies.hh): consulted the instant a request or a
 *     fault retry would enter the ready set. Shed verdicts drop it
 *     with DropReason::ArrivalShed before it occupies a queue slot.
 * @param trace optional obs::TraceRecorder receiving the typed event
 *     stream (arrivals, admission verdicts, dispatches, completions,
 *     sheds, retries, faults, device health). Null — the default —
 *     compiles every hook down to a skipped pointer test, so the hot
 *     path cost is zero when tracing is off. The loop also hands the
 *     recorder to the cluster for device-health events.
 * @param stuck_limit stuck-clock guard: panic once this many events
 *     pass without the clock advancing (0 = a generous bound derived
 *     from the queue and fault-plan sizes).
 */
template <typename Backend>
bool
drainClusterQueue(const std::vector<ModelRequest> &queue,
                  const SchedulingPolicy &policy,
                  DeviceCluster &cluster, Backend &backend,
                  std::size_t ready_limit = 0,
                  const FaultPlan *faults = nullptr,
                  FaultCounters *counters = nullptr,
                  const ArrivalAdmission *arrival = nullptr,
                  obs::TraceRecorder *trace = nullptr,
                  std::size_t stuck_limit = 0)
{
    cluster.setTrace(trace);
    /** One event of the simulation clock. */
    struct Event
    {
        SimTime time = 0;
        /** Faults order before arrivals/retries, which order before
         * DMA-frees, completions, and watchdog events at equal
         * times. Only the arrival cursor makes Arrival events; the
         * heap holds every other kind. */
        enum Kind
        {
            Fault = 0,
            Arrival = 1,
            Retry = 2,
            DmaFree = 3,
            Completion = 4,
            DeviceDown = 5, ///< watchdog fired: stall blew a timeout
            Recover = 6,    ///< stall wedge cleared; device may rejoin
        } kind = Arrival;
        /** Queue index (arrival) / fault index (fault) / retry-pool
         * index (retry) / device id (others); the deterministic
         * tie-break. */
        std::size_t seq = 0;

        bool
        operator>(const Event &o) const
        {
            if (time != o.time)
                return time > o.time;
            if (kind != o.kind)
                return kind > o.kind;
            return seq > o.seq;
        }
    };

    /** One dispatched run in the reorder window. */
    struct Flight
    {
        enum State
        {
            Live,
            Completed,
            Killed,
        } state = Live;
        ReadyRequest req;
        DispatchedRun run;
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        events;
    if (faults) {
        for (std::size_t i = 0; i < faults->events.size(); ++i) {
            const int dev = faults->events[i].device;
            FM_ASSERT(dev >= 0 && dev < cluster.deviceCount(),
                      "fault event ", i, " targets device ", dev,
                      " of a ", cluster.deviceCount(),
                      "-device cluster");
            events.push({faults->events[i].time, Event::Fault, i});
        }
    }

    // Each model's estimate, asked of the backend at its first
    // arrival.
    std::vector<std::optional<SimTime>> estimates(
        models::modelZoo().size());
    auto estimateOf = [&](models::ModelId model) {
        auto &e = estimates[static_cast<std::size_t>(model)];
        if (!e)
            e = backend.estimate(model);
        return *e;
    };

    // Arrival cursor: walks the queue in (arrival, queue index) order,
    // which is Event order among arrivals. A stable-sorted index
    // exists only for a queue out of that order.
    std::vector<std::size_t> arrival_order;
    auto earlier = [](const ModelRequest &a, const ModelRequest &b) {
        return a.arrival < b.arrival;
    };
    if (!std::is_sorted(queue.begin(), queue.end(), earlier)) {
        arrival_order.resize(queue.size());
        std::iota(arrival_order.begin(), arrival_order.end(),
                  std::size_t{0});
        std::stable_sort(arrival_order.begin(), arrival_order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return earlier(queue[a], queue[b]);
                         });
    }
    std::size_t cursor = 0;
    // The next event in (time, kind, seq) order, if any: the cursor's
    // arrival or the heap's top, whichever orders first.
    auto peek = [&]() -> std::optional<Event> {
        if (cursor < queue.size()) {
            std::size_t i =
                arrival_order.empty() ? cursor : arrival_order[cursor];
            Event a{queue[i].arrival, Event::Arrival, i};
            if (events.empty() || events.top() > a)
                return a;
        }
        if (events.empty())
            return std::nullopt;
        return events.top();
    };

    // Reorder window of dispatched runs: window[id - base]. Entries
    // resolve (complete or die) out of order but flush — and reach
    // backend.completed — strictly in dispatch order.
    std::deque<Flight> window;
    std::uint64_t window_base = 0;
    auto flight = [&](std::uint64_t run_id) -> Flight & {
        return window[static_cast<std::size_t>(run_id - window_base)];
    };
    auto flushWindow = [&] {
        while (!window.empty() && window.front().state != Flight::Live) {
            if (window.front().state == Flight::Completed) {
                if (trace) {
                    const Flight &f = window.front();
                    trace->requestComplete(
                        f.run.times.end, f.req.queueIndex,
                        static_cast<std::int64_t>(window_base),
                        f.run.device,
                        static_cast<std::int32_t>(f.req.model),
                        f.run.times.start, f.run.times.initDone);
                }
                backend.completed(window.front().req,
                                  window.front().run, window_base);
            }
            window.pop_front();
            ++window_base;
        }
    };

    // Live run ids per device, in dispatch order (the completion
    // matcher and the per-device kill sweeps key on this).
    std::vector<std::vector<std::uint64_t>> device_runs(
        static_cast<std::size_t>(cluster.deviceCount()));

    std::vector<ReadyRequest> ready;
    std::vector<ReadyRequest> retry_pool;

    // Every drop funnels through here so the trace never loses a
    // request: the shed event carries the reason and attempt count.
    auto drop = [&](const ReadyRequest &r, SimTime t,
                    DropReason reason) {
        if (trace)
            trace->requestShed(t, r.queueIndex,
                               static_cast<std::int32_t>(r.model),
                               static_cast<std::int64_t>(reason),
                               r.attempts);
        backend.dropped(r, t, reason);
    };

    // Kill one live run: resolve its window entry and either schedule
    // a backoff retry or fault-shed the request. Cluster-side state
    // (inFlight, horizons, residency) is the fault handler's job.
    auto killRun = [&](std::uint64_t run_id, SimTime now) {
        auto &f = flight(run_id);
        FM_ASSERT(f.state == Flight::Live, "killing a resolved run");
        f.state = Flight::Killed;
        backend.killed(f.req, f.run, run_id, now);
        ReadyRequest req = f.req;
        req.attempts += 1;
        req.lastFailedDevice = f.run.device;
        if (req.attempts > kMaxRetries) {
            if (counters)
                ++counters->faultSheds;
            drop(req, now, DropReason::FaultBudget);
            return;
        }
        if (counters)
            ++counters->retries;
        SimTime backoff = kBackoffBase;
        for (int i = 1; i < req.attempts && backoff < kBackoffCap; ++i)
            backoff *= 2;
        backoff = std::min(backoff, kBackoffCap);
        if (trace)
            trace->retryScheduled(now, req.queueIndex,
                                  static_cast<std::int32_t>(req.model),
                                  now + backoff, req.attempts,
                                  req.lastFailedDevice);
        events.push({now + backoff, Event::Retry, retry_pool.size()});
        retry_pool.push_back(req);
    };

    auto killAllOn = [&](int dev, SimTime now, bool timeout) {
        auto &runs = device_runs[static_cast<std::size_t>(dev)];
        for (std::uint64_t id : std::vector<std::uint64_t>(runs)) {
            if (timeout && counters)
                ++counters->timeouts;
            killRun(id, now);
        }
        runs.clear();
    };

    // Stuck-clock guard: a bounded number of events may legitimately
    // share one instant (simultaneous arrivals, zero-length services,
    // fault bursts); processing vastly more without the clock moving
    // means the loop is wedged — fail loudly with the cluster state
    // rather than spin forever.
    if (stuck_limit == 0)
        stuck_limit = 64 * (queue.size() +
                            (faults ? faults->events.size() : 0)) +
                      4096;
    std::size_t stuck = 0;

    const bool needs_admission = policy.needsAdmission();
    std::uint64_t next_run_id = 0;
    SimTime now = 0;
    while (auto next = peek()) {
        const Event ev = *next;
        if (ev.kind == Event::Arrival)
            ++cursor;
        else
            events.pop();
        if (ev.time > now) {
            now = ev.time;
            stuck = 0;
        } else if (++stuck > stuck_limit) {
            std::ostringstream diag;
            for (const auto &d : cluster.devices())
                diag << " dev" << d.id << "{health="
                     << static_cast<int>(d.health)
                     << " inFlight=" << d.inFlight
                     << " computeBusyUntil=" << d.computeBusyUntil
                     << " dmaBusyUntil=" << d.dmaBusyUntil << "}";
            FM_PANIC("cluster event loop stuck: ", stuck,
                     " events without the clock advancing past ", now,
                     "ns (limit ", stuck_limit,
                     "); ready=", ready.size(),
                     " pendingEvents=",
                     events.size() + (queue.size() - cursor),
                     " inFlight=", window.size(), ";", diag.str());
        }
        now = std::max(now, ev.time);

        // Arrival-time admission: consulted before the request enters
        // the ready set (fresh arrivals and fault retries alike), so a
        // shed request never occupies a queue slot. The gate reads only
        // the loop's own state, the same on every backend.
        auto enterReady = [&](ReadyRequest r) {
            if (arrival) {
                auto verdict =
                    arrival->admitAtArrival(now, r, ready, cluster);
                // Emitted here — not by the gate — because both
                // execution paths share one gate object but carry
                // their own recorders.
                if (trace)
                    trace->admissionVerdict(
                        now, r.queueIndex,
                        static_cast<std::int32_t>(r.model),
                        static_cast<std::int64_t>(verdict), -1);
                if (verdict == Admission::Shed) {
                    drop(r, now, DropReason::ArrivalShed);
                    return true;
                }
            }
            ready.push_back(std::move(r));
            // Backlog diverged: unstable load, abort the drain.
            return !(ready_limit > 0 && ready.size() > ready_limit);
        };

        switch (ev.kind) {
          case Event::Arrival: {
            const ModelRequest &q = queue[ev.seq];
            ReadyRequest r;
            r.queueIndex = ev.seq;
            r.model = q.model;
            r.arrival = q.arrival;
            r.priority = q.priority;
            r.estimatedLatency = estimateOf(q.model);
            r.latencyBound = q.latencyBound;
            if (trace)
                trace->requestArrival(
                    now, r.queueIndex,
                    static_cast<std::int32_t>(r.model),
                    r.latencyBound);
            if (!enterReady(std::move(r)))
                return false;
            break;
          }
          case Event::Retry:
            if (!enterReady(retry_pool[ev.seq]))
                return false;
            break;
          case Event::Completion: {
            // Match the oldest live run on this device ending now.
            // No match means the event went stale (its run was killed
            // or stall-shifted); completions of shifted runs were
            // rescheduled when the shift happened.
            auto &runs = device_runs[ev.seq];
            auto it = std::find_if(
                runs.begin(), runs.end(), [&](std::uint64_t id) {
                    return flight(id).run.times.end == ev.time;
                });
            if (it != runs.end()) {
                auto &f = flight(*it);
                f.state = Flight::Completed;
                runs.erase(it);
                cluster.complete(static_cast<int>(ev.seq));
                flushWindow();
            }
            break;
          }
          case Event::Fault: {
            const auto &fe = faults->events[ev.seq];
            const auto &dev =
                cluster.devices()[static_cast<std::size_t>(fe.device)];
            if (trace)
                trace->faultInjected(
                    now, ev.seq, fe.device,
                    static_cast<std::int64_t>(fe.kind), fe.duration,
                    std::llround(fe.factor * 1000.0));
            switch (fe.kind) {
              case FaultKind::Crash:
                if (dev.health == DeviceHealth::Down)
                    break;
                if (counters)
                    ++counters->crashes;
                killAllOn(fe.device, now, /*timeout=*/false);
                cluster.crash(fe.device, now);
                flushWindow();
                break;
              case FaultKind::Rejoin:
                // Only a crashed device rejoins here; a watchdog-down
                // (wedged) device recovers through its Recover event.
                if (dev.health == DeviceHealth::Down && dev.crashDown)
                    cluster.rejoin(fe.device, now, kProbation);
                break;
              case FaultKind::Stall: {
                if (dev.health == DeviceHealth::Down)
                    break;
                // Freeze the device: shift its horizons and every
                // in-flight completion by the stall. A run whose
                // shifted end blows its timeout budget arms the
                // watchdog at the earliest blown deadline instead.
                cluster.delay(fe.device, now, fe.duration);
                SimTime fire = kTimeNever;
                SimTime clear = now + fe.duration;
                for (std::uint64_t id : device_runs[static_cast<
                         std::size_t>(fe.device)]) {
                    auto &f = flight(id);
                    SimTime service =
                        f.run.times.end - f.run.times.start;
                    SimTime budget_at =
                        f.run.times.start +
                        std::llround(kTimeoutFactor *
                                     static_cast<double>(service));
                    f.run.times.end += fe.duration;
                    if (f.run.times.initDone > now)
                        f.run.times.initDone += fe.duration;
                    events.push({f.run.times.end, Event::Completion,
                                 static_cast<std::size_t>(fe.device)});
                    if (cluster.overlap() &&
                        f.run.times.initDone > now &&
                        f.run.times.initDone < f.run.times.end)
                        events.push({f.run.times.initDone,
                                     Event::DmaFree,
                                     static_cast<std::size_t>(
                                         fe.device)});
                    if (f.run.times.end > budget_at)
                        fire = std::min(fire,
                                        std::max(budget_at, now + 1));
                    clear = std::max(clear, f.run.times.end);
                }
                if (fire != kTimeNever) {
                    events.push({fire, Event::DeviceDown,
                                 static_cast<std::size_t>(fe.device)});
                    events.push({std::max(clear, fire + 1),
                                 Event::Recover,
                                 static_cast<std::size_t>(fe.device)});
                }
                break;
              }
              case FaultKind::Slowdown:
                cluster.setSlowdown(fe.device, fe.factor,
                                    now + fe.duration);
                break;
              case FaultKind::DmaError: {
                if (dev.health == DeviceHealth::Down)
                    break;
                // Abort the preload in flight right now, if any. The
                // aborted run is provably the device's youngest
                // commit (any later commit's preload would start
                // after this one's initDone), so a one-deep undo on
                // the cluster rolls the dispatch back exactly.
                auto &runs = device_runs[static_cast<std::size_t>(
                    fe.device)];
                auto it = std::find_if(
                    runs.begin(), runs.end(), [&](std::uint64_t id) {
                        const auto &t = flight(id).run.times;
                        return t.start <= now && now < t.initDone;
                    });
                if (it == runs.end())
                    break; // transient error with no preload active
                std::uint64_t id = *it;
                runs.erase(it);
                if (counters)
                    ++counters->dmaAborts;
                cluster.abortLastCommit(fe.device);
                killRun(id, now);
                flushWindow();
                break;
              }
            }
            break;
          }
          case Event::DeviceDown:
            // Watchdog: a stalled run blew its timeout budget. The
            // whole device is declared wedged — every in-flight run
            // is killed and re-dispatched — but device memory is
            // intact, so plan residency survives for the recovery.
            if (cluster.devices()[ev.seq].health !=
                DeviceHealth::Down) {
                killAllOn(static_cast<int>(ev.seq), now,
                          /*timeout=*/true);
                cluster.markDown(static_cast<int>(ev.seq), now);
                flushWindow();
            }
            break;
          case Event::Recover:
            // The stall wedge cleared; rejoin unless a real crash
            // intervened (then only its Rejoin event recovers it).
            if (cluster.devices()[ev.seq].health ==
                    DeviceHealth::Down &&
                !cluster.devices()[ev.seq].crashDown)
                cluster.rejoin(static_cast<int>(ev.seq), now, kProbation);
            break;
          case Event::DmaFree:
            // No state change; a DMA-free exists to wake the dispatch
            // pass when a preload queue frees mid-compute.
            break;
        }

        if (ready.empty())
            continue;
        // Drain simultaneous fault/arrival/retry events before
        // dispatching, so the policy compares every request that is
        // ready at this instant against the settled cluster state.
        if (auto after = peek();
            after && after->time <= now && after->kind <= Event::Retry)
            continue;

        while (!ready.empty() && cluster.anyAccepting(now)) {
            // SLO admission pass (deadline-aware policies): requests
            // that can no longer meet their bound are shed here —
            // before selection — or stickily marked for degraded
            // dispatch. Retried requests pass through the same gate,
            // so a retry that cannot meet its deadline any more is
            // shed instead of being retried forever. The ready set is
            // scanned in arrival order, so verdicts are deterministic.
            for (std::size_t i = 0; needs_admission && i < ready.size();) {
                auto verdict = policy.admit(now, ready[i]);
                if (verdict == Admission::Shed) {
                    drop(ready[i], now, DropReason::Admission);
                    ready.erase(ready.begin() +
                                static_cast<std::ptrdiff_t>(i));
                    continue;
                }
                if (verdict == Admission::Degrade)
                    ready[i].degraded = true;
                ++i;
            }
            if (ready.empty())
                break;

            auto pick = policy.select(now, ready);
            FM_ASSERT(pick < ready.size(),
                      "policy picked out of range");
            ReadyRequest picked = ready[pick];
            ready.erase(ready.begin() +
                        static_cast<std::ptrdiff_t>(pick));

            // Placement: the least-loaded device, the backend's price
            // for the run, the cluster's one timing rule.
            std::uint64_t run_id = next_run_id++;
            const int device = cluster.pickDevice(now);
            const RunService service =
                backend.service(picked, ready, now);
            const DispatchedRun run{
                device, service.budget,
                cluster.planTimes(device, now, service.init,
                                  service.exec)};
            cluster.commit(device, picked.model, service.budget,
                           run.times);
            backend.placed(picked, run, run_id);
            if (trace)
                trace->requestDispatch(
                    now, picked.queueIndex,
                    static_cast<std::int64_t>(run_id), run.device,
                    static_cast<std::int32_t>(picked.model),
                    run.times.start, run.times.initDone,
                    run.times.end);
            if (counters && picked.attempts > 0 &&
                run.device != picked.lastFailedDevice)
                ++counters->failovers;
            window.push_back({Flight::Live, picked, run});
            device_runs[static_cast<std::size_t>(run.device)]
                .push_back(run_id);
            if (cluster.overlap() &&
                run.times.initDone < run.times.end)
                events.push({run.times.initDone, Event::DmaFree,
                             static_cast<std::size_t>(run.device)});
            events.push({run.times.end, Event::Completion,
                         static_cast<std::size_t>(run.device)});
        }
    }

    // Anything still queued when the event horizon is exhausted had
    // no surviving device to run on: record the starvation instead of
    // dropping the requests silently.
    for (const auto &r : ready) {
        if (counters)
            ++counters->starved;
        drop(r, now, DropReason::Starved);
    }
    return true;
}

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_EVENT_LOOP_HH
